"""Bundled reference data.

Three data sets ship with the package:

* ``schemes.csv``     - artifact byte sizes for standardized key-encapsulation
  schemes, plus the classical ECDH baseline.
* ``table2.csv``      - the 48-row communication-energy reference table
  (theoretical and hardware-measured microjoules per transfer operation,
  across ATT MTU / LL PDU configurations and ML-KEM parameter sets).
* default calibration factors aligning analytical energy with measurement.

All loaders return immutable values: rows are tuples and keyed tables are
read-only mappings, so the cached ones are safe to share across callers and
threads.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Mapping
import os
from functools import lru_cache
from types import MappingProxyType

from .errors import (ConsistencyError, ParseError, UnknownScheme, Value, _shown, real_in_range,
                     set_field)

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


class KemParamSet(Value):
    """Named key-encapsulation scheme with its artifact byte sizes."""

    __slots__ = ("name", "pk_size", "sk_size", "ct_size", "nist_level")

    def __init__(self, name: str, pk_size: int, sk_size: int, ct_size: int,
                 nist_level: int | None = None):
        for field, size in (("pk_size", pk_size), ("sk_size", sk_size), ("ct_size", ct_size)):
            if size <= 0:
                raise ConsistencyError(f"{name}: {field} must be positive")
        if nist_level is not None and nist_level not in SECURITY_LEVELS:
            raise ConsistencyError(f"{name}: level must be 1, 3, or 5")
        set_field(self, "name", name)
        set_field(self, "pk_size", pk_size)
        set_field(self, "sk_size", sk_size)
        set_field(self, "ct_size", ct_size)
        set_field(self, "nist_level", nist_level)

    def transfers(self) -> tuple[tuple[str, int, bool], ...]:
        """The handshake's transfers in order: (op, artifact size, peripheral receives)."""
        return ((OP_NOTIFY_PK, self.pk_size, False), (OP_WRITE_CT, self.ct_size, True))


class ReferenceEnergyRow(Value):
    """One cell of the communication-energy reference table; ``delta`` is
    (e_emp - e_theor) / e_emp, as a fraction."""

    __slots__ = ("scheme", "att_mtu", "ll_pdu", "op", "e_theor_uj", "e_emp_uj", "delta")

    def derived_delta(self) -> float:
        return (self.e_emp_uj - self.e_theor_uj) / self.e_emp_uj


class CalibrationFactors(Value):
    """Multiplicative corrections applied to theoretical energies.

    ``gamma_keygen``/``gamma_decap`` map a NIST security level to the factor
    for that computation phase; ``gamma_comm`` applies to both transfer
    phases regardless of level. Every factor is a number in [1, GAMMA_MAX], and
    each table is a mapping that covers every security level, stored as a
    read-only copy.
    """

    __slots__ = ("gamma_keygen", "gamma_decap", "gamma_comm")

    def __init__(self, gamma_keygen: Mapping[int, float], gamma_decap: Mapping[int, float],
                 gamma_comm: float):
        for name, table in (("gamma_keygen", gamma_keygen), ("gamma_decap", gamma_decap)):
            table = dict(table) if isinstance(table, Mapping) else {}  # the copy is checked
            if not set(SECURITY_LEVELS) <= set(table):
                raise ConsistencyError(f"{name} must map each of levels 1, 3 and 5 to a factor")
            for factor in table.values():
                real_in_range(name, factor, 1.0, GAMMA_MAX, ConsistencyError)
            set_field(self, name, MappingProxyType(table))
        real_in_range("gamma_comm", gamma_comm, 1.0, GAMMA_MAX, ConsistencyError)
        set_field(self, "gamma_comm", gamma_comm)


@lru_cache(maxsize=1)
def default_calibration() -> CalibrationFactors:
    """Calibration defaults for the nRF52-class reference platform; one shared
    value, as it cannot change."""
    return CalibrationFactors(
        gamma_keygen={1: 1.27, 3: 1.38, 5: 1.62},
        gamma_decap={1: 1.12, 3: 1.19, 5: 1.32},
        gamma_comm=1.15,
    )


def bundled_text(name: str) -> str:
    """The text of a data file that ships in the package's ``data`` directory."""
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as f:
        return f.read()


def read_text(path: str | os.PathLike) -> str:
    """A user-supplied file's text; one that is not UTF-8 is a ParseError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeError as exc:
        raise ParseError(f"not readable as UTF-8 text ({exc})", path=os.fspath(path)) from None


def _int_field(raw: str, *, path: str, row: int, column: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"expected integer, got {raw!r}", path=path, row=row,
                         column=column) from None


def _float_field(raw: str, *, path: str, row: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {raw!r}", path=path, row=row,
                         column=column)
    return value


@lru_cache(maxsize=1)
def load_schemes() -> MappingProxyType[str, KemParamSet]:
    """Parse the bundled scheme-size table, keyed by upper-cased name; the
    table is read-only, as every caller shares it."""
    path = "schemes.csv"
    text = bundled_text(path)
    reader = csv.DictReader(io.StringIO(text))
    schemes: dict[str, KemParamSet] = {}
    for i, rec in enumerate(reader, start=2):
        level_raw = (rec.get("level") or "").strip()
        scheme = KemParamSet(
            name=rec["name"],
            pk_size=_int_field(rec["pk"], path=path, row=i, column="pk"),
            sk_size=_int_field(rec["sk"], path=path, row=i, column="sk"),
            ct_size=_int_field(rec["ct"], path=path, row=i, column="ct"),
            nist_level=_int_field(level_raw, path=path, row=i, column="level")
            if level_raw else None,
        )
        schemes[scheme.name.upper()] = scheme
    return MappingProxyType(schemes)


def lookup_scheme(name: str) -> KemParamSet:
    """Look up a scheme by (case-insensitive) name.

    Raises UnknownScheme for a name not in the bundled table, or not a ``str``.
    """
    if isinstance(name, str) and (scheme := load_schemes().get(name.strip().upper())):
        return scheme
    known = ", ".join(sorted(load_schemes()))
    raise UnknownScheme(f"unknown scheme {_shown(name)} (known: {known})")


_TABLE_COLUMNS = ("scheme", "att_mtu", "ll_pdu", "op", "e_theor_uJ", "e_emp_uJ",
                  "delta_pct")


def load_reference_table(path: str | os.PathLike | None = None) -> tuple[ReferenceEnergyRow, ...]:
    """Load the 48-row communication-energy reference table.

    ``path`` defaults to the bundled copy. Each row's stored delta is checked
    against the (theoretical, empirical) pair it was derived from; rows where
    the hardware measurement undercuts the model (negative delta) are valid.
    Each (scheme, att_mtu, ll_pdu, op) cell occurs once.
    """
    if path is None:
        label = "table2.csv"
        text = bundled_text(label)
    else:
        label = os.fspath(path)
        text = read_text(path)

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file", path=label) from None
    if tuple(header) != _TABLE_COLUMNS:
        raise ParseError(f"expected header {','.join(_TABLE_COLUMNS)}", path=label, row=1)

    rows: list[ReferenceEnergyRow] = []
    first_row: dict[tuple, int] = {}
    for i, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != len(_TABLE_COLUMNS):
            raise ParseError(f"expected {len(_TABLE_COLUMNS)} columns, got {len(rec)}",
                             path=label, row=i)
        op = rec[3]
        if op not in (OP_NOTIFY_PK, OP_WRITE_CT):
            raise ParseError(f"unknown op {op!r}", path=label, row=i, column="op")
        row = ReferenceEnergyRow(
            scheme=rec[0],
            att_mtu=_int_field(rec[1], path=label, row=i, column="att_mtu"),
            ll_pdu=_int_field(rec[2], path=label, row=i, column="ll_pdu"),
            op=op,
            e_theor_uj=_float_field(rec[4], path=label, row=i, column="e_theor_uJ"),
            e_emp_uj=_float_field(rec[5], path=label, row=i, column="e_emp_uJ"),
            delta=_float_field(rec[6], path=label, row=i, column="delta_pct") / 100.0,
        )
        if row.e_theor_uj <= 0 or row.e_emp_uj <= 0:
            raise ParseError("energies must be positive", path=label, row=i)
        if abs(row.delta - row.derived_delta()) > DELTA_TOLERANCE:
            raise ConsistencyError(
                f"{label}:row {i}: stored delta {row.delta:.4f} does not match "
                f"(e_emp - e_theor)/e_emp = {row.derived_delta():.4f}")
        cell = (row.scheme.upper(), row.att_mtu, row.ll_pdu, row.op)
        if cell in first_row:
            raise ConsistencyError(
                f"{label}:row {i}: cell {row.scheme},{row.att_mtu},{row.ll_pdu},{row.op} "
                f"repeats row {first_row[cell]}")
        first_row[cell] = i
        rows.append(row)

    if len(rows) != REFERENCE_ROW_COUNT:
        raise ConsistencyError(
            f"{label}: expected {REFERENCE_ROW_COUNT} rows, got {len(rows)}")
    return tuple(rows)

