"""The trace clock, the time budget and the energies against exact rationals.

Each frame time the simulator reports is compared with the exact value of its
own formula: the sum, over every frame before it, of the frame's bytes on air
at ``phy_rate`` and the gap after it. The frames come from the byte-stream
oracle, not from ``pqpan.link``. The link's ``phy_rate`` and ``ifs`` are read
with :class:`fractions.Fraction` as the decimals they print as, so the default
link's 150 µs is exactly 150, and the sums run on integers over one common
denominator.

On the default link every frame's air time and gap are whole microseconds, and
every time must equal its exact value. On a link whose bit time and IFS are
not whole microseconds, the error is bounded in units in the last place (ulp)
of the reported time, and the bound holds for a few frames as for a hundred
thousand.

The energies are checked the same way: each is compared with the exact value
of its formula, summed with :class:`~fractions.Fraction` from the oracle's
frame counts and from every input read as the decimal it prints as.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

from pqpan import (AEAD_OVERHEAD_BYTES, FITTED_RADIO_PROFILE, LinkConfig, airtime,
                   default_calibration, load_cycle_counts, lookup_scheme, pqke_total,
                   run_handshake, send_secured_payload, session_energy)
from chunking_oracle import byte_stream_frames

LL_OVERHEAD = 10
#: The largest payload one transfer carries: 1 MiB once sealed.
PAYLOAD_MAX = (1 << 20) - AEAD_OVERHEAD_BYTES
#: 80/3 µs a byte and an IFS of 100/7 µs: neither is a whole number. A running
#: float sum of the same steps drifts by about 24,000 ulp over 1 MiB here.
ODD_LINK = dict(phy_rate=3e5, ifs=1e-4 / 7)
#: Bound on the error off whole microseconds, in ulp of the reported time. The
#: largest measured is 5.4 ulp, over 209 cells of this link and 80 cells each
#: of 12 random ones.
ODD_LINK_ULP = 8


def _cells(n, seed):
    rng = random.Random(seed)
    return [(rng.choice(["ml-kem-512", "ml-kem-768", "ml-kem-1024"]), rng.randint(23, 517),
             rng.randint(27, 251), rng.choice([1, 2]), rng.randint(0, 4096)) for _ in range(n)]


@functools.lru_cache(maxsize=None)
def _oracle_frames(size, att_mtu, ll_pdu):
    return tuple(byte_stream_frames(size, att_mtu, ll_pdu))


def exact_times(scheme, payload, cfg):
    """The exact start of every frame of a handshake and its payload, sent from
    time 0, and the clock after the last frame's gap: ``(numerators, clock
    numerator, unit)``, where each time is ``numerator / unit`` µs."""
    per_byte = Fraction(8 * 10 ** 6) / Fraction(repr(cfg.phy_rate))
    ifs = Fraction(repr(cfg.ifs)) * 10 ** 6
    unit = math.lcm(per_byte.denominator, ifs.denominator)

    def ticks(n_bytes, gaps):  # a frame's air time and the gaps after it, in 1/unit µs
        return int((per_byte * n_bytes + ifs * gaps) * unit)

    ack = ticks(LL_OVERHEAD, cfg.ifs_slots - 1)
    data = {}
    t, times = 0, []
    sizes = [size for _, size, _ in lookup_scheme(scheme).transfers()]
    for size in sizes + [payload + AEAD_OVERHEAD_BYTES]:
        for frame in _oracle_frames(size, cfg.att_mtu, cfg.ll_pdu):
            if frame not in data:
                data[frame] = ticks(frame + LL_OVERHEAD, 1)
            times.append(t)
            t += data[frame]
            times.append(t)
            t += ack
    return times, t, unit


def simulated(scheme, payload, cfg):
    """(every frame time, the clock after the payload, the payload's JSONL)."""
    session = run_handshake(scheme, cfg)
    delta, _ = send_secured_payload(session, bytes(payload))
    trace = session.trace + delta
    return [record.time_us for record in trace.records], trace.clock_us, delta.to_jsonl()


def ulps(got: float, numerator: int, unit: int) -> float:
    """|got - numerator / unit| in ulp of ``got``, from exact integer products."""
    num, den = got.as_integer_ratio()
    ulp_num, ulp_den = math.ulp(got).as_integer_ratio()
    return abs(num * unit - numerator * den) * ulp_den / (den * unit * ulp_num)


@pytest.mark.parametrize("cell", _cells(24, seed=1), ids=str)
def test_default_link_times_are_exact(cell):
    scheme, att, ll, slots, payload = cell
    cfg = LinkConfig(att_mtu=att, ll_pdu=ll, ifs_slots=slots)
    times, clock, _ = simulated(scheme, payload, cfg)
    want, want_clock, unit = exact_times(scheme, payload, cfg)
    assert unit == 1 and times == want and clock == want_clock


def test_largest_payload_times_are_exact():
    # 1 MiB in 20-byte SDUs on (23, 27): over 100,000 frames, where a running
    # float sum in seconds drifts by hundreds of ulp. The JSONL prints the
    # same times.
    cfg = LinkConfig(att_mtu=23, ll_pdu=27)
    times, clock, jsonl = simulated("ml-kem-512", PAYLOAD_MAX, cfg)
    want, want_clock, unit = exact_times("ml-kem-512", PAYLOAD_MAX, cfg)
    assert len(times) > 100_000
    assert unit == 1 and times == want and clock == want_clock
    lines = jsonl.splitlines()
    assert [float(line[len('{"time_us": '):line.index(",")]) for line in lines] \
        == times[-len(lines):]


@pytest.mark.parametrize("cell", _cells(8, seed=2) + [("ml-kem-512", 23, 27, 2, PAYLOAD_MAX)],
                         ids=str)
def test_times_off_whole_microseconds_stay_within_a_few_ulp(cell):
    scheme, att, ll, slots, payload = cell
    cfg = LinkConfig(att_mtu=att, ll_pdu=ll, ifs_slots=slots, **ODD_LINK)
    times, clock, _ = simulated(scheme, payload, cfg)
    want, want_clock, unit = exact_times(scheme, payload, cfg)
    assert len(times) == len(want) and times[0] == want[0] == 0
    assert max(ulps(t, n, unit) for t, n in zip(times[1:], want[1:])) <= ODD_LINK_ULP
    assert ulps(clock, want_clock, unit) <= ODD_LINK_ULP


def q(x) -> Fraction:
    """A float input as the decimal it prints as."""
    return Fraction(repr(x))


def exact_budget(size, cfg):
    """The exact (tx, rx, ifs) µs of one transfer, from the oracle's frames."""
    frames = _oracle_frames(size, cfg.att_mtu, cfg.ll_pdu)
    per_byte = Fraction(8 * 10 ** 6) / q(cfg.phy_rate)
    n = len(frames)
    return (per_byte * (sum(frames) + LL_OVERHEAD * n), per_byte * LL_OVERHEAD * n,
            q(cfg.ifs) * 10 ** 6 * cfg.ifs_slots * n)


def exact_comm(size, cfg, p, as_receiver=False):
    tx, rx, ifs = exact_budget(size, cfg)
    if as_receiver:
        tx, rx = rx, tx
    return q(p.voltage) * (q(p.i_tx) * tx + q(p.i_rx) * rx + q(p.i_ifs) * ifs)


def exact_comp(cycles, p):
    return q(p.i_mcu) * q(p.voltage) * cycles / q(p.f_mcu) * 10 ** 6


def exact_breakdown(scheme, cfg, include_encap=False):
    """Each :class:`~pqpan.EnergyBreakdown` field of ``pqke_total``, exactly."""
    p, g = FITTED_RADIO_PROFILE, default_calibration()
    scheme = lookup_scheme(scheme)
    counts, level = load_cycle_counts()[scheme.name], scheme.nist_level
    e = {"e_keygen": exact_comp(counts.keygen, p), "e_decap": exact_comp(counts.decap, p),
         "e_notify_pk": exact_comm(scheme.pk_size, cfg, p),
         "e_write_ct": exact_comm(scheme.ct_size, cfg, p, as_receiver=True)}
    e.update(adj_keygen=q(g.gamma_keygen[level]) * e["e_keygen"],
             adj_decap=q(g.gamma_decap[level]) * e["e_decap"],
             adj_notify_pk=q(g.gamma_comm) * e["e_notify_pk"],
             adj_write_ct=q(g.gamma_comm) * e["e_write_ct"])
    e["e_total"] = e["adj_keygen"] + e["adj_decap"] + e["adj_notify_pk"] + e["adj_write_ct"]
    if include_encap:
        e["e_encap"] = e["adj_encap"] = exact_comp(counts.encap, p)
        e["e_total"] += e["e_encap"]
    e["comm_share"] = (e["adj_notify_pk"] + e["adj_write_ct"]) / e["e_total"]
    return e


def energy_ulps(got: float, exact: Fraction) -> float:
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(got)))


#: Bound on an energy's error, in ulp of the reported value. The largest
#: measured is 4.02 ulp on the default link (``comm_share``, a quotient of two
#: rounded sums; every energy stays within 3.8) and 4.8 ulp on links whose times
#: are not whole microseconds, over 30,000 and 20,000 random cells.
ENERGY_ULP = 5
#: Links whose bit time or IFS is not a whole number of µs.
ODD_LINKS = [dict(phy_rate=3e5, ifs=1e-4 / 7), dict(phy_rate=7.77e5, ifs=1e-3),
             dict(phy_rate=125e3, ifs=0.0), dict(phy_rate=2e6, ifs=150e-6)]


def _energy_cells(n, seed):
    rng = random.Random(seed)
    for i in range(n):
        link = {} if i % 4 else rng.choice(ODD_LINKS)
        yield (rng.choice(["ml-kem-512", "ml-kem-768", "ml-kem-1024"]),
               LinkConfig(att_mtu=rng.randint(23, 517), ll_pdu=rng.randint(27, 251),
                          ifs_slots=rng.choice([1, 2]), **link),
               rng.randint(1, 2048), rng.random() < 0.5)


def test_energies_are_exact_within_a_few_ulp():
    # e_total, every breakdown term and session_energy: three in four cells on
    # the default link, one in four on a link off whole microseconds.
    p, gamma_comm = FITTED_RADIO_PROFILE, q(default_calibration().gamma_comm)
    worst = {}
    for scheme, cfg, payload, include_encap in _energy_cells(500, seed=3):
        got = pqke_total(scheme, cfg, include_encap=include_encap)
        want = exact_breakdown(scheme, cfg, include_encap)
        checks = [(field, getattr(got, field), value) for field, value in want.items()]
        pairing = want["e_total"] - want.get("e_encap", 0)
        checks += [
            ("session kem", session_energy(scheme, payload, cfg),
             pairing + gamma_comm * exact_comm(payload + AEAD_OVERHEAD_BYTES, cfg, p)),
            ("session none", session_energy("none", payload, cfg),
             gamma_comm * exact_comm(payload, cfg, p))]
        for name, value, exact in checks:
            worst[name] = max(worst.get(name, 0.0), energy_ulps(value, exact))
    assert len(worst) == 14 and max(worst.values()) <= ENERGY_ULP, worst


@pytest.mark.parametrize("cell", _cells(16, seed=4), ids=str)
def test_ledger_entries_are_exact_within_a_few_ulp(cell):
    scheme, att, ll, slots, _ = cell
    cfg = LinkConfig(att_mtu=att, ll_pdu=ll, ifs_slots=slots)
    p, gamma_comm = FITTED_RADIO_PROFILE, q(default_calibration().gamma_comm)
    want = exact_breakdown(scheme, cfg, include_encap=True)
    ledger = run_handshake(scheme, cfg).ledger
    pk, ct = lookup_scheme(scheme).pk_size, lookup_scheme(scheme).ct_size
    checks = [(ledger.peripheral[op], want[f"adj_{op}"])
              for op in ("keygen", "decap", "notify_pk", "write_ct")]
    checks += [(ledger.central["encap"], want["e_encap"]),
               (ledger.central["notify_pk"], gamma_comm * exact_comm(pk, cfg, p, True)),
               (ledger.central["write_ct"], gamma_comm * exact_comm(ct, cfg, p)),
               (ledger.peripheral_pqke_total(), want["e_total"] - want["e_encap"])]
    assert max(energy_ulps(value, exact) for value, exact in checks) <= ENERGY_ULP


def test_fit_residuals_are_exact_within_a_few_ulp(reference_rows, fit_result):
    # Each residual's modeled_uJ is comm_energy under the reported profile.
    for row, residual in zip(reference_rows, fit_result.residuals, strict=True):
        size, as_receiver = {op: (size, rx) for op, size, rx
                             in lookup_scheme(row.scheme).transfers()}[row.op]
        cfg = LinkConfig(att_mtu=row.att_mtu, ll_pdu=row.ll_pdu)
        exact = exact_comm(size, cfg, fit_result.profile, as_receiver)
        assert energy_ulps(residual.modeled_uj, exact) <= ENERGY_ULP, row


@pytest.mark.parametrize("cell", _cells(24, seed=5), ids=str)
def test_default_link_budget_is_exact_whole_microseconds(cell):
    # 8 µs a byte, and 150 µs a gap: 300 µs an exchange under two slots, 150 under one.
    scheme, att, ll, slots, payload = cell
    cfg = LinkConfig(att_mtu=att, ll_pdu=ll, ifs_slots=slots)
    sizes = [size for _, size, _ in lookup_scheme(scheme).transfers()]
    for size in sizes + [payload + AEAD_OVERHEAD_BYTES]:
        frames = _oracle_frames(size, att, ll)
        budget = airtime(size, cfg)
        assert (budget.tx_us, budget.rx_us, budget.ifs_us) == (
            8 * (sum(frames) + LL_OVERHEAD * len(frames)), 8 * LL_OVERHEAD * len(frames),
            150 * slots * len(frames))
