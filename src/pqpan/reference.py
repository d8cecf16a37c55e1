"""Bundled reference data.

Four data sets ship with the package:

* ``schemes.csv``     - artifact byte sizes for standardized key-encapsulation
  schemes, plus the classical ECDH baseline.
* ``table2.csv``      - the 48-row communication-energy reference table
  (theoretical and hardware-measured microjoules per transfer operation,
  across ATT MTU / LL PDU configurations and ML-KEM parameter sets).
* ``cycles.csv``      - MCU cycle counts per KEM operation (``energy.load_cycle_counts``).
* default calibration factors aligning analytical energy with measurement.

Every CSV table, bundled or a user's, is read by :func:`read_table` and checked
row by row by one loop. All loaders return immutable values: rows are tuples and
keyed tables are read-only mappings, so the cached ones, the bundled tables only,
are safe to share across callers and threads.
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Mapping
from functools import lru_cache, partial
from types import MappingProxyType

from .errors import (ConsistencyError, ParseError, PqpanError, UnknownScheme, Value, _shown,
                     int_in_range, of_type, one_of, path_str, real_in_range)
from .link import ARTIFACT_MAX, LinkConfig

OP_NOTIFY_PK = "Notify_PK"
OP_WRITE_CT = "Write_CT"

#: NIST security levels a KEM parameter set can claim.
SECURITY_LEVELS = (1, 3, 5)

#: Rows expected in the reference energy table: 3 schemes x 8 configs x 2 ops.
REFERENCE_ROW_COUNT = 48

#: Largest calibration factor; every factor lies in [1, GAMMA_MAX].
GAMMA_MAX = 10.0

#: Tolerance for re-deriving a stored delta from its (theoretical, empirical)
#: energy pair.
DELTA_TOLERANCE = 1e-3


def _nist_level(name: str, level) -> int | None:
    """A check: None, or one of SECURITY_LEVELS as ``int_in_range`` takes an integer."""
    if level is None:
        return None
    level = int_in_range(name, level, 1, 5, ConsistencyError)
    if level not in SECURITY_LEVELS:
        raise ConsistencyError(f"{name} must be 1, 3 or 5, got {level}")
    return level


class KemParamSet(Value):
    """Named key-encapsulation scheme with its artifact byte sizes, each an
    integer in [1, ARTIFACT_MAX], and its NIST security level, if it claims one."""

    __slots__ = ("name", "pk_size", "sk_size", "ct_size", "nist_level")
    _defaults = {"nist_level": None}
    _checks = {"name": partial(of_type, cls=str, error=ConsistencyError),
               **dict.fromkeys(("pk_size", "sk_size", "ct_size"), partial(
                   int_in_range, lo=1, hi=ARTIFACT_MAX, error=ConsistencyError)),
               "nist_level": _nist_level}

    def transfers(self) -> tuple[tuple[str, int, bool], ...]:
        """The handshake's transfers in order: (op, artifact size, peripheral receives)."""
        return ((OP_NOTIFY_PK, self.pk_size, False), (OP_WRITE_CT, self.ct_size, True))


def _bundled_name(name: str, scheme: str | KemParamSet) -> str:
    """A check: a bundled scheme's name, from its name or a KemParamSet of its name and fields."""
    bundled = lookup_scheme(scheme.name if isinstance(scheme, KemParamSet) else scheme)
    if isinstance(scheme, KemParamSet) and scheme.replace(name=bundled.name) != bundled:
        raise UnknownScheme(f"{name} {scheme!r} is not the bundled {bundled!r}")
    return bundled.name


class ReferenceEnergyRow(Value):
    """A cell of the communication-energy reference table, its scheme a bundled one by name, each
    energy in [1e-6, 1e12] uJ and a normal float in joules; delta is (e_emp - e_theor)/e_emp."""

    __slots__ = ("scheme", "att_mtu", "ll_pdu", "op", "e_theor_uj", "e_emp_uj", "delta")
    _checks = {"scheme": _bundled_name,
               **{field: LinkConfig._checks[field] for field in ("att_mtu", "ll_pdu")},
               "op": partial(one_of, choices=(OP_NOTIFY_PK, OP_WRITE_CT), error=ConsistencyError),
               **dict.fromkeys(("e_theor_uj", "e_emp_uj"), partial(
                   real_in_range, lo=1e-6, hi=1e12, error=ConsistencyError))}

    def derived_delta(self) -> float:
        return (self.e_emp_uj - self.e_theor_uj) / self.e_emp_uj


def _factor_table(name: str, table) -> MappingProxyType[int, float]:
    """A check: a read-only copy of a calibration table, which maps exactly the ``int`` levels
    1, 3 and 5 (not bools), those a KemParamSet can claim, each to a factor in [1, GAMMA_MAX]."""
    table = dict(table) if isinstance(table, Mapping) else {}  # the copy is checked
    for level, factor in table.items():  # types first: a bad key is not called a missing level
        if type(level) is not int:
            raise ConsistencyError(f"{name} has a level that is not an integer, {_shown(level)}")
        table[level] = real_in_range(name, factor, 1.0, GAMMA_MAX, ConsistencyError)
    if set(SECURITY_LEVELS) != set(table):
        raise ConsistencyError(f"{name} must map exactly levels 1, 3 and 5 to factors")
    return MappingProxyType(table)


class CalibrationFactors(Value):
    """Multiplicative corrections applied to theoretical energies.

    ``gamma_keygen``/``gamma_decap`` map a NIST security level to the factor
    for that computation phase; ``gamma_comm`` applies to both transfer
    phases regardless of level. Every factor is a number in [1, GAMMA_MAX], and
    each table is a mapping of exactly the security levels 1, 3 and 5, stored as
    a read-only copy.
    """

    __slots__ = ("gamma_keygen", "gamma_decap", "gamma_comm")
    _checks = {"gamma_keygen": _factor_table, "gamma_decap": _factor_table,
               "gamma_comm": partial(real_in_range, lo=1.0, hi=GAMMA_MAX, error=ConsistencyError)}


@lru_cache(maxsize=1)
def default_calibration() -> CalibrationFactors:
    """Calibration defaults for the nRF52-class reference platform; one shared
    value, as it cannot change."""
    return CalibrationFactors(
        gamma_keygen={1: 1.27, 3: 1.38, 5: 1.62},
        gamma_decap={1: 1.12, 3: 1.19, 5: 1.32},
        gamma_comm=1.15,
    )


def read_text(path: str | os.PathLike) -> str:
    """A file's text, without the byte-order mark a file may start with; one
    that is not UTF-8 is a ParseError naming it."""
    path = path_str("path", path)
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except UnicodeError as exc:
        raise ParseError(f"not readable as UTF-8 text ({exc})", path=path) from None


def read_table(path: str | os.PathLike | None, bundled_name: str,
               columns: tuple[str, ...]) -> tuple[str, list[tuple[int, list[str]]]]:
    """The label of the CSV file at ``path`` (None: the bundled ``data/<bundled_name>``)
    and its records, each as (its line in the file, its fields of ``columns``).

    The file is UTF-8. Blank and ``#`` lines are skipped but counted, so each
    error names the line the file shows. The header names each of ``columns``
    once, in any order, among any others, and each record is as wide as it.
    """
    label = bundled_name if path is None else path_str("path", path)
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", bundled_name)
    table = []
    for i, line in enumerate(read_text(path).split("\n"), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            try:
                table.append((i, next(csv.reader((line,)))))
            except csv.Error as exc:  # a NUL byte, or a field over csv.field_size_limit()
                raise ParseError(f"not a CSV record ({exc})", path=label, row=i) from None
    (head_line, header), *records = table or [(None, [])]  # no header: the check below fails
    for column in columns:
        if header.count(column) != 1:
            raise ParseError(f"header names {column!r} {header.count(column)} times, not once",
                             path=label, row=head_line)
    for i, fields in records:
        if len(fields) != len(header):
            raise ParseError(f"expected {len(header)} columns, got {len(fields)}",
                             path=label, row=i)
    picks = [header.index(column) for column in columns]
    return label, [(i, [fields[k] for k in picks]) for i, fields in records]


def _int_or_blank(text: str) -> int | None:
    return int(text) if text.strip() else None


def _load_table(path: str | os.PathLike | None, bundled_name: str, columns: tuple[str, ...],
                types: tuple, build) -> tuple[str, dict]:
    """The label of a table :func:`read_table` reads, and the table of each record in
    file order, as ``build(*fields)`` returns its (key, value). A field that its type
    (``str``, ``int``, finite ``float``, ``_int_or_blank``) cannot parse, a PqpanError
    from ``build`` or a repeated key is a ParseError at its line."""
    label, records = read_table(path, bundled_name, columns)
    table, lines = {}, {}
    for i, texts in records:
        fields = []
        for column, kind, text in zip(columns, types, texts):
            try:
                fields.append(kind(text))
                if kind is float and not math.isfinite(fields[-1]):
                    raise ValueError(text)
            except ValueError:
                raise ParseError(f"expected {'a finite number' if kind is float else 'integer'}, "
                                 f"got {text!r}", path=label, row=i, column=column) from None
        try:
            key, value = build(*fields)
        except PqpanError as exc:
            raise ParseError(str(exc), path=label, row=i) from None
        if key in lines:
            raise ParseError(f"{key} repeats row {lines[key]}", path=label, row=i)
        lines[key], table[key] = i, value
    return label, table


@lru_cache(maxsize=1)
def load_schemes() -> MappingProxyType[str, KemParamSet]:
    """Parse the bundled scheme-size table, keyed by upper-cased name; the
    table is read-only, as every caller shares it."""
    return MappingProxyType(_load_table(None, "schemes.csv", ("name", "pk", "sk", "ct", "level"),
                                        (str, int, int, int, _int_or_blank),
                                        lambda *row: (row[0].upper(), KemParamSet(*row)))[1])


def lookup_scheme(name: str | KemParamSet) -> KemParamSet:
    """The scheme of a (case-insensitive) name, or a KemParamSet as it is; UnknownScheme
    for a name not in the bundled table, or not a ``str``."""
    if isinstance(name, str) and (scheme := load_schemes().get(name.strip().upper())):
        return scheme
    if isinstance(name, KemParamSet):
        return name
    known = ", ".join(sorted(load_schemes()))
    raise UnknownScheme(f"unknown scheme {_shown(name)} (known: {known})")


_TABLE_COLUMNS = ("scheme", "att_mtu", "ll_pdu", "op", "e_theor_uJ", "e_emp_uJ",
                  "delta_pct")


def _reference_row(*fields) -> tuple[str, ReferenceEnergyRow]:
    """A record's cell and row, whose delta fits its energies."""
    row = ReferenceEnergyRow(*fields[:-1], fields[-1] / 100.0)
    if abs(row.delta - row.derived_delta()) <= DELTA_TOLERANCE:
        return f"cell {row.scheme},{row.att_mtu},{row.ll_pdu},{row.op}", row
    raise ConsistencyError(f"stored delta {row.delta:.4f} does not match "
                           f"(e_emp - e_theor)/e_emp = {row.derived_delta():.4f}")


def load_reference_table(path: str | os.PathLike | None = None) -> tuple[ReferenceEnergyRow, ...]:
    """Load the 48-row communication-energy reference table.

    ``path`` defaults to the bundled copy. Each row's stored delta is checked
    against the (theoretical, empirical) pair it was derived from; rows where
    the hardware measurement undercuts the model (negative delta) are valid.
    Each (scheme, att_mtu, ll_pdu, op) cell occurs once, its scheme by bundled name.
    """
    label, rows = _load_table(path, "table2.csv", _TABLE_COLUMNS,
                              (str, int, int, str, float, float, float), _reference_row)
    if len(rows) != REFERENCE_ROW_COUNT:
        raise ConsistencyError(
            f"{label}: expected {REFERENCE_ROW_COUNT} rows, got {len(rows)}")
    return tuple(rows.values())
