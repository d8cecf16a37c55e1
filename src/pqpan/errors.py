"""Exception hierarchy.

Everything raised on purpose by this package derives from PqpanError so the
CLI can map model/domain failures to a single exit code.
"""

import operator


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
    """Current-fit design matrix is rank deficient."""


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
