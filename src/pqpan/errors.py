"""Exception hierarchy, the range checks, and the base of the value types.

Everything raised on purpose by this package derives from PqpanError so the
CLI can map model/domain failures to a single exit code.
"""

import operator
from types import MappingProxyType

#: How a value type's ``__init__`` stores a field past its refusing ``__setattr__``.
set_field = object.__setattr__


class PqpanError(Exception):
    """Base class for all model, data, and protocol errors."""


class UnknownScheme(PqpanError):
    """Scheme name not present in the bundled parameter table."""


class UnsupportedScheme(PqpanError):
    """Scheme exists but the requested operation cannot serve it."""


class ParseError(PqpanError):
    """A bundled or user-supplied data file failed to parse."""

    def __init__(self, message: str, *, path: str = "", row: int | None = None,
                 column: str | None = None):
        where = path or "<data>"
        if row is not None:
            where += f":row {row}"
        if column is not None:
            where += f":{column}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.row = row
        self.column = column


class ConsistencyError(PqpanError):
    """Parsed data violates a cross-field invariant."""


class SizeMismatch(PqpanError):
    """A byte-string argument has the wrong length for its scheme."""


class InvalidConfig(PqpanError):
    """A link, payload, seed or config value of the wrong type or out of range."""


class InvalidProfile(PqpanError):
    """A radio/MCU profile field or cycle count of the wrong type or out of range."""


class SingularSystem(PqpanError):
    """Current-fit design matrix is rank deficient, or its minimax solve did not finish."""


class HandshakeFailure(PqpanError):
    """Reassembled artifact does not match the scheme's sizes."""


class NotEstablished(PqpanError):
    """Payload transfer requested before the handshake completed."""


def _shown(value) -> str:
    try:
        return repr(value)
    except ValueError:  # holds an int of more digits than sys.get_int_max_str_digits()
        return f"<{type(value).__name__} too long to show>"


def int_in_range(name: str, value, lo: int, hi: int, error=InvalidConfig) -> int:
    """``value`` as an int in [lo, hi], else ``error``. Any integer type
    ``operator.index`` takes is accepted, except bool; a float, even 65.0, is not."""
    try:
        if not isinstance(value, bool) and lo <= (index := operator.index(value)) <= hi:
            return index
    except TypeError:
        pass
    raise error(f"{name} must be a finite integer in [{lo}, {hi}], got {_shown(value)}")


def real_in_range(name: str, value, lo: float, hi: float, error=InvalidConfig) -> float:
    """``value`` as a float in [lo, hi], else ``error``. A float or a plain int is
    accepted, but not a bool, a string or None; NaN fails the comparison."""
    if (isinstance(value, float) or type(value) is int) and lo <= value <= hi:
        return float(value)
    raise error(f"{name} must be a finite number in [{lo}, {hi}], got {_shown(value)}")


def _storing_init(cls):
    """An ``__init__`` that takes ``cls._fields`` in order, each defaulting to
    its ``cls._defaults`` entry if it has one, and stores each value as given.
    Built from source, as ``collections.namedtuple`` builds ``__new__``; the
    source holds only slot names, which are identifiers."""
    params = ", ".join(f"{name}=_defaults[{name!r}]" if name in cls._defaults else name
                       for name in cls._fields)
    body = "".join(f"    _set(self, {name!r}, {name})\n" for name in cls._fields)
    namespace = {"_defaults": cls._defaults, "_set": set_field}
    exec(f"def __init__(self, {params}):\n{body or '    pass'}\n", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Value:
    """Base of the package's immutable value types.

    A subclass names its fields once, in order, as ``__slots__`` (plus
    ``"__dict__"`` if it caches properties), and any defaults in a
    ``_defaults`` mapping of field name to value. Unless it writes its own,
    it gets an ``__init__`` that takes the fields in that order and stores each
    as given. A class writes ``__init__`` only to check, convert, copy or
    compute its fields; it stores each with :data:`set_field`, and a table as
    a read-only copy, a ``MappingProxyType``. Instances compare equal when
    their class and field values are, hash their field tuple, print as
    ``Name(field=value, ...)``, refuse assignment and deletion, and pickle and
    copy through ``__init__``, which gets each read-only table as a plain dict.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" in vars(cls):
            cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
            if "__init__" not in vars(cls):
                cls.__init__ = _storing_init(cls)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(dict(value) if type(value) is MappingProxyType else value
                                 for value in self._values())

    def replace(self, **changes):
        """A new instance with the named fields changed, checked by ``__init__``
        as any new instance is."""
        values = [changes.pop(name, value) for name, value in zip(self._fields, self._values())]
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {', '.join(changes)}")
        return type(self)(*values)
