"""Energy model.

Computation energy converts MCU cycle counts into microjoules
(``I_mcu * V * C / f_mcu``); communication energy prices a transfer's time
budget, in µs, with per-state radio currents (``V * (I_tx*tx_us + I_rx*rx_us
+ I_ifs*ifs_us)``, already µJ). Per-phase calibration factors then align the
analytical values with hardware behavior. ``handshake_breakdown`` prices the
four dominant handshake phases (key generation, public-key transmit,
ciphertext receive, decapsulation) for both ``pqke_total`` and the
simulator's ledger.

The radio currents shipped as defaults are *fitted* values, recovered from
the bundled reference energy table by :func:`fit_radio_currents`; they are
not datasheet numbers. The MCU current is a separate modeling default that
the communication fit cannot determine.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from functools import lru_cache, partial, wraps
from types import MappingProxyType

from .errors import (ConsistencyError, InvalidProfile, ParseError, SingularSystem,
                     UnsupportedScheme, Value, int_in_range, of_type, real_in_range)
from .link import ATT_MTU_MIN, LL_PDU_MIN, LinkConfig, TimeBudget, airtime
from .reference import (CalibrationFactors, KemParamSet, ReferenceEnergyRow, _load_table,
                        default_calibration, lookup_scheme)

#: Measured cost of the classical ECDH P-256 pairing baseline, microjoules.
ECDH_PAIRING_UJ = 328.0

#: Size growth of a secured payload: 16 B authentication tag + 12 B nonce.
AEAD_OVERHEAD_BYTES = 28

SECURITY_NONE = "none"
SECURITY_ECDH = "ecdh"

#: Modeled profile ranges (volts, amperes, hertz). The lower ends keep every
#: energy a positive normal float, so no total underflows to zero.
VOLTAGE_MIN, VOLTAGE_MAX = 1e-3, 10.0
CURRENT_MIN, CURRENT_MAX = 1e-12, 1.0
F_MCU_MIN, F_MCU_MAX = 1e3, 1e10

#: Largest cycle count per operation: about 4 h of MCU time at 64 MHz.
CYCLES_MAX = 10**12


class RadioProfile(Value):
    """Supply voltage, radio-state currents (amperes), and MCU parameters,
    each a number in its range, stored as a float."""

    __slots__ = ("voltage", "i_tx", "i_rx", "i_ifs", "i_mcu", "f_mcu")
    _defaults = {"f_mcu": 64e6}
    _checks = {"voltage": partial(real_in_range, lo=VOLTAGE_MIN, hi=VOLTAGE_MAX,
                                  error=InvalidProfile),
               **dict.fromkeys(("i_tx", "i_rx", "i_ifs", "i_mcu"), partial(
                   real_in_range, lo=CURRENT_MIN, hi=CURRENT_MAX, error=InvalidProfile)),
               "f_mcu": partial(real_in_range, lo=F_MCU_MIN, hi=F_MCU_MAX, error=InvalidProfile)}


# Recovered from the bundled reference table by fit_radio_currents, under the link's
# default IFS accounting (fitted values, not datasheet). i_mcu is a modeling default.
FITTED_RADIO_PROFILE = RadioProfile(
    voltage=3.0,
    i_tx=6.442828134732573e-3,
    i_rx=6.083351032006949e-3,
    i_ifs=3.0344238330093955e-3,
    i_mcu=3.0e-3,
    f_mcu=64e6,
)


class CycleCounts(Value):
    """MCU cycle counts for one scheme's KEM operations, stored as ints in [0, CYCLES_MAX]."""

    __slots__ = ("keygen", "encap", "decap")
    _checks = dict.fromkeys(__slots__, partial(int_in_range, lo=0, hi=CYCLES_MAX,
                                               error=InvalidProfile))


_CYCLES_COLUMNS = ("scheme", "keygen", "encaps", "decaps")


def _bundled_cached(load):
    """``load``, reading its bundled table (``path`` None) once to share it; a user's
    file is read on every call, so an edited one is read again."""
    bundled = lru_cache(maxsize=1)(partial(load, None))
    return wraps(load)(lambda path=None: bundled() if path is None else load(path))


@_bundled_cached
def load_cycle_counts(path: str | None = None) -> MappingProxyType[str, CycleCounts]:
    """Load the cycle-count snapshot (bundled file by default), keyed by bundled scheme
    name, ``lookup_scheme(scheme).name``, as a read-only table: the bundled one is shared.

    Each row names a known scheme, once. Within a scheme family (the name
    before its last ``-``, as ML-KEM or HQC), counts must increase strictly
    with security level in each operation.
    """
    label, counts = _load_table(path, "cycles.csv", _CYCLES_COLUMNS, (str, int, int, int),
                                lambda scheme, *ops: (lookup_scheme(scheme).name,
                                                      CycleCounts(*ops)))
    leveled = sorted((key.rpartition("-")[0], lookup_scheme(key).nist_level, key)
                     for key in counts if lookup_scheme(key).nist_level is not None)
    for (family, _, lo_key), (hi_family, _, hi_key) in zip(leveled, leveled[1:]):
        lo, hi = counts[lo_key], counts[hi_key]
        if family == hi_family and not (
                lo.keygen < hi.keygen and lo.encap < hi.encap and lo.decap < hi.decap):
            raise ParseError("cycle counts must increase strictly with security level, but "
                             f"{hi_key} does not exceed {lo_key}", path=label)
    return MappingProxyType(counts)


class EnergyBreakdown(Value):
    """Per-phase handshake energies in microjoules, raw and calibrated.

    ``e_total`` sums the adjusted components (including encapsulation when
    present); ``comm_share`` is the adjusted communication fraction of that
    total.
    """

    __slots__ = ("e_keygen", "e_decap", "e_notify_pk", "e_write_ct", "adj_keygen", "adj_decap",
                 "adj_notify_pk", "adj_write_ct", "e_total", "comm_share", "e_encap",
                 "adj_encap")
    _defaults = {"e_encap": None, "adj_encap": None}

    def as_dict(self) -> dict:
        d = {
            "raw_uJ": {"keygen": self.e_keygen, "decap": self.e_decap,
                       "notify_pk": self.e_notify_pk, "write_ct": self.e_write_ct},
            "adjusted_uJ": {"keygen": self.adj_keygen, "decap": self.adj_decap,
                            "notify_pk": self.adj_notify_pk, "write_ct": self.adj_write_ct},
            "total_uJ": self.e_total,
            "comm_share": self.comm_share,
        }
        if self.e_encap is not None:
            d["raw_uJ"]["encap"] = self.e_encap
            d["adjusted_uJ"]["encap"] = self.adj_encap
        return d


def comp_energy(cycles: float, profile: RadioProfile) -> float:
    """Computation energy in microjoules for a cycle count in [0, CYCLES_MAX]."""
    cycles = real_in_range("cycles", cycles, 0, CYCLES_MAX, InvalidProfile)
    return profile.i_mcu * profile.voltage * (cycles / profile.f_mcu) * 1e6


def radio_state_times(budget: TimeBudget, as_receiver: bool) -> tuple[float, float, float]:
    """Microseconds in (tx, rx, ifs) for one end of a transfer with this sender-side
    budget: the sender sends data and receives acks, the receiver the reverse."""
    if as_receiver:
        return budget.rx_us, budget.tx_us, budget.ifs_us
    return budget.tx_us, budget.rx_us, budget.ifs_us


def comm_energy(budget: TimeBudget, profile: RadioProfile,
                as_receiver: bool = False) -> float:
    """Communication energy in microjoules for a sender-side time budget, spent
    by its sender or, with ``as_receiver``, the other end: amperes times µs is µJ."""
    tx_us, rx_us, ifs_us = radio_state_times(budget, as_receiver)
    return profile.voltage * (profile.i_tx * tx_us + profile.i_rx * rx_us
                              + profile.i_ifs * ifs_us)


def transfer_energy(budget: TimeBudget, profile: RadioProfile, gamma: CalibrationFactors,
                    as_receiver: bool = False) -> float:
    """Calibrated microjoules for a transfer's sender-side time budget, spent by
    its sender or, with ``as_receiver``, the other end: :func:`comm_energy`
    times ``gamma_comm``."""
    return gamma.gamma_comm * comm_energy(budget, profile, as_receiver)


def _model_inputs(profile, gamma, cycles) -> tuple[RadioProfile, CalibrationFactors, Mapping]:
    """Each its default when None; a value of another type is refused with its type's error."""
    return (FITTED_RADIO_PROFILE if profile is None
            else of_type("profile", profile, RadioProfile, InvalidProfile),
            default_calibration() if gamma is None
            else of_type("gamma", gamma, CalibrationFactors, ConsistencyError),
            load_cycle_counts() if cycles is None
            else of_type("cycles", cycles, Mapping, InvalidProfile))


def handshake_inputs(scheme: KemParamSet | str, profile: RadioProfile | None,
                     gamma: CalibrationFactors | None, cycles: Mapping[str, CycleCounts] | None):
    """(scheme, profile, gamma, the cycle counts at ``scheme.name``), with defaults filled
    in; UnsupportedScheme for a scheme without a handshake energy model or counts."""
    scheme = lookup_scheme(scheme)
    profile, gamma, cycles = _model_inputs(profile, gamma, cycles)
    if scheme.nist_level is None:
        raise UnsupportedScheme(f"{scheme.name} has no handshake energy model")
    counts = cycles.get(scheme.name)
    if counts is None:
        raise UnsupportedScheme(f"no cycle counts at key {scheme.name!r}")
    return scheme, profile, gamma, of_type("cycles entry", counts, CycleCounts, InvalidProfile)


def handshake_breakdown(counts: CycleCounts, pk_budget: TimeBudget, ct_budget: TimeBudget,
                        profile: RadioProfile, gamma: CalibrationFactors, level: int,
                        include_encap: bool = False) -> EnergyBreakdown:
    """Price and calibrate the peripheral's phases: it sends the ``pk_budget``
    transfer and receives the ``ct_budget`` one. Encapsulation, on the central,
    is priced only with ``include_encap`` and is uncalibrated (no published factor)."""
    e_keygen = comp_energy(counts.keygen, profile)
    e_decap = comp_energy(counts.decap, profile)
    e_notify = comm_energy(pk_budget, profile)
    e_write = comm_energy(ct_budget, profile, as_receiver=True)
    e_encap = comp_energy(counts.encap, profile) if include_encap else None
    adj_keygen = gamma.gamma_keygen[level] * e_keygen
    adj_decap = gamma.gamma_decap[level] * e_decap
    adj_notify = gamma.gamma_comm * e_notify
    adj_write = gamma.gamma_comm * e_write
    total = adj_keygen + adj_decap + adj_notify + adj_write
    if e_encap is not None:
        total += e_encap
    return EnergyBreakdown(
        e_keygen=e_keygen, e_decap=e_decap, e_notify_pk=e_notify, e_write_ct=e_write,
        adj_keygen=adj_keygen, adj_decap=adj_decap, adj_notify_pk=adj_notify,
        adj_write_ct=adj_write, e_total=total,
        comm_share=(adj_notify + adj_write) / total, e_encap=e_encap, adj_encap=e_encap)


def pqke_total(scheme: KemParamSet | str, cfg: LinkConfig,
               profile: RadioProfile | None = None,
               cycles: Mapping[str, CycleCounts] | None = None,
               gamma: CalibrationFactors | None = None,
               include_encap: bool = False) -> EnergyBreakdown:
    """Total handshake energy breakdown for one scheme and link config.

    Prices the time budgets of the scheme's two transfers with
    :func:`handshake_breakdown`. Encapsulation runs on the remote party and
    is excluded unless ``include_encap``, a bool, is True.
    """
    scheme, profile, gamma, counts = handshake_inputs(scheme, profile, gamma, cycles)
    pk_budget, ct_budget = (airtime(size, cfg) for _, size, _ in scheme.transfers())
    return handshake_breakdown(counts, pk_budget, ct_budget, profile, gamma, scheme.nist_level,
                               of_type("include_encap", include_encap, bool))


def session_energy(security: str, payload: int, cfg: LinkConfig,
                   profile: RadioProfile | None = None,
                   gamma: CalibrationFactors | None = None,
                   cycles: Mapping[str, CycleCounts] | None = None) -> float:
    """Energy to establish a session and notify one payload, in microjoules.

    ``security`` selects the pairing mechanism: ``"none"`` (no pairing, raw
    payload), ``"ecdh"`` (classical pairing at its measured constant), or a
    KEM scheme name. ``payload`` is an integer byte count. Secured payloads
    grow by the 28-byte AEAD envelope; a zero-byte payload sends nothing.
    """
    security = of_type("security", security, str)
    payload = int_in_range("payload", payload, 0, math.inf)  # the artifact cap comes later
    cfg = of_type("cfg", cfg, LinkConfig)  # "none" or "ecdh" without a payload never reads it
    profile, gamma, cycles = _model_inputs(profile, gamma, cycles)  # each path checks all three

    kind = security.strip().lower()
    if kind == SECURITY_NONE:
        pairing = 0.0
    elif kind in (SECURITY_ECDH, "ecdh-p256"):
        pairing = ECDH_PAIRING_UJ
    else:
        pairing = pqke_total(security, cfg, profile, cycles, gamma).e_total

    transfer = 0.0
    if payload > 0:
        artifact = payload if kind == SECURITY_NONE else payload + AEAD_OVERHEAD_BYTES
        transfer = transfer_energy(airtime(artifact, cfg), profile, gamma)
    return pairing + transfer


class FitRowResidual(Value):
    """One reference row against the fitted model."""

    __slots__ = ("scheme", "att_mtu", "ll_pdu", "op", "reference_uj", "modeled_uj", "rel_err")


class FitResult(Value):
    """Recovered radio currents plus the per-row residual report."""

    __slots__ = ("profile", "residuals", "max_abs_rel_err", "mean_abs_rel_err")

    def as_dict(self) -> dict:
        return {
            "provenance": "fitted from reference table, not datasheet",
            "ifs_slots": _FIT_LINK.ifs_slots,  # binds a report loaded as a config
            "max_abs_rel_err": self.max_abs_rel_err,
            "mean_abs_rel_err": self.mean_abs_rel_err,
            "profile": dict(zip(self.profile._fields, self.profile._values())),
            "residuals": [
                {"scheme": r.scheme, "att_mtu": r.att_mtu, "ll_pdu": r.ll_pdu,
                 "op": r.op, "reference_uJ": r.reference_uj,
                 "modeled_uJ": r.modeled_uj, "rel_err": r.rel_err}
                for r in self.residuals
            ],
        }


#: The link each reference row is priced on at its att_mtu and ll_pdu: LinkConfig's defaults.
_FIT_LINK = LinkConfig(att_mtu=ATT_MTU_MIN, ll_pdu=LL_PDU_MIN)
#: Simplex pivots allowed per tableau column; Bland's rule needs far fewer.
_PIVOTS_PER_COLUMN = 50


def _dot(a, b) -> float:
    return math.fsum(x * y for x, y in zip(a, b))


def _require_full_rank(design) -> None:
    """Raise SingularSystem unless the design's columns are independent: by
    modified Gram-Schmidt QR, some ``|R_jj|`` at or below ``max column norm *
    max(n, k) * eps`` (the SVD rank tolerance with R's diagonal in place of
    the singular values) means rank deficient."""
    n, k = len(design), len(design[0])
    cols = list(zip(*design))
    tol = max(math.hypot(*c) for c in cols) * max(n, k) * math.ulp(1.0)
    q = []
    for v in cols:
        for qi in q:
            r_ij = _dot(qi, v)
            v = [x - r_ij * y for x, y in zip(v, qi)]
        r_jj = math.hypot(*v)
        if r_jj <= tol:
            raise SingularSystem(
                "design matrix is rank deficient; rows do not span independent "
                "tx/rx/ifs time combinations")
        q.append([x / r_jj for x in v])


def _chebyshev_polish(design, target) -> list[float]:
    """Minimize the maximum relative residual over non-negative currents.

    The optimum need not be unique (on the bundled table it is a segment), so
    ties break to the least total current: ``min z + eps*sum(x)`` s.t.
    ``|rel_i . x - 1| <= z``, ``x >= 0``. Its dual, ``max sum(v - u)`` s.t.
    ``rel^T (v - u) <= eps``, ``sum(u + v) <= 1``, ``u, v >= 0``, starts at the
    feasible origin; a tableau simplex under Bland's rule keeps ``eps``
    symbolic, as a second right-hand side that only breaks ratio ties. The
    currents are the reduced costs of the slack columns.

    Scaled, every row starts with entries of at most 1. A pivot must exceed
    ``pivot_min``: rounding can leave an entry that is exactly zero at about
    1e-11, and a pivot on it sends Bland's rule cycling, while real pivots stay
    above 1e-4 on designs as spread as the fit's. Raises SingularSystem if the
    simplex does not finish.
    """
    n, k = len(design), len(design[0])
    rel = [[d / t for d in row] for row, t in zip(design, target)]
    col_max = [max(col) for col in zip(*rel)]
    rel = [[v / c for v, c in zip(row, col_max)] for row in rel]  # every column peaks at 1
    m, cols, tol, pivot_min = k + 1, 2 * n, 1e-12, 1e-9
    # Rows: one per current, the residual bound, then the objective. Columns:
    # u, v, the m slacks, the right-hand side and its eps coefficient.
    slack = [[float(i == j) for j in range(m)] for i in range(m)]
    tab = [[-v for v in col] + list(col) + slack[i] + [0.0, min(col_max) / col_max[i]]
           for i, col in enumerate(zip(*rel))]  # sum(x) in the scaled currents
    tab += [[1.0] * cols + slack[k] + [1.0, 0.0], [1.0] * n + [-1.0] * n + [0.0] * (m + 2)]
    basis = list(range(cols, cols + m))
    max_pivots = _PIVOTS_PER_COLUMN * (cols + m)
    for _ in range(max_pivots):
        j = next((j for j in range(cols + m) if tab[m][j] < -tol), None)
        if j is None:
            return [max(tab[m][cols + i], 0.0) / col_max[i] for i in range(k)]
        rows = [i for i in range(m) if tab[i][j] > pivot_min]
        if not rows:
            break
        for rhs in (-2, -1):
            ratios = [tab[i][rhs] / tab[i][j] for i in rows]
            rows = [i for i, ratio in zip(rows, ratios) if ratio <= min(ratios) + tol]
        r = min(rows, key=basis.__getitem__)
        tab[r] = [v / tab[r][j] for v in tab[r]]
        tab = [row if i == r else [a - row[j] * b for a, b in zip(row, tab[r])]
               for i, row in enumerate(tab)]
        basis[r] = j
    raise SingularSystem(f"the minimax fit did not finish within {max_pivots} simplex pivots")


def fit_radio_currents(rows) -> FitResult:
    """Recover (i_tx, i_rx, i_ifs) from reference rows.

    Prices every row on LinkConfig's default link at the row's att_mtu and
    ll_pdu, checks that the (tx_us, rx_us, ifs_us) columns are independent, and
    returns the non-negative currents that minimize the worst relative
    residual of ``E = V * (i_tx*tx_us + i_rx*rx_us + i_ifs*ifs_us)``, in µJ, with
    the least total current among those that reach it (:func:`_chebyshev_polish`).
    The fitted ``i_ifs`` belongs to the link's IFS accounting, which the
    report records. Each residual prices its row with :func:`comm_energy` under
    the returned profile, as the model does once that profile is loaded.

    The voltage and the MCU fields, which the fit cannot observe, are
    ``FITTED_RADIO_PROFILE``'s.
    """
    rows = tuple(of_type("row", row, ReferenceEnergyRow, ConsistencyError)
                 for row in of_type("rows", rows, Iterable, ConsistencyError))
    if len(rows) < 3:
        raise SingularSystem(f"need at least 3 rows, got {len(rows)}")
    # Each row's sender-side time budget, and whether the peripheral receives it.
    transfers = [(airtime(size, _FIT_LINK.replace(att_mtu=r.att_mtu, ll_pdu=r.ll_pdu)), rx)
                 for r in rows for op, size, rx in lookup_scheme(r.scheme).transfers()
                 if op == r.op]
    # Columns multiply (i_tx, i_rx, i_ifs).
    design = [[FITTED_RADIO_PROFILE.voltage * t for t in radio_state_times(*transfer)]
              for transfer in transfers]
    _require_full_rank(design)
    current = _chebyshev_polish(design, [r.e_theor_uj for r in rows])
    # RadioProfile requires currents of at least CURRENT_MIN; a table whose
    # gaps cost nothing fits i_ifs to zero.
    profile = FITTED_RADIO_PROFILE.replace(i_tx=current[0], i_rx=current[1],
                                           i_ifs=max(current[2], CURRENT_MIN))
    residuals = tuple(
        FitRowResidual(scheme=r.scheme, att_mtu=r.att_mtu, ll_pdu=r.ll_pdu, op=r.op,
                       reference_uj=r.e_theor_uj, modeled_uj=m, rel_err=m / r.e_theor_uj - 1.0)
        for r, m in zip(rows, (comm_energy(b, profile, rx) for b, rx in transfers)))
    errors = [abs(r.rel_err) for r in residuals]
    return FitResult(profile=profile, residuals=residuals, max_abs_rel_err=max(errors),
                     mean_abs_rel_err=math.fsum(errors) / len(errors))
