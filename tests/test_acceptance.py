"""Acceptance suite.

Each test exercises one release criterion end to end at its stated tolerance
and prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure). All checks run on the shipped defaults: fitted radio currents,
bundled cycle snapshot, default calibration.
"""

import csv
import io
import random
import time
from importlib import resources

import pytest

from pqpan import (LinkConfig, Role, decapsulate, encapsulate, fit_radio_currents,
                   keygen, load_reference_table, lookup_scheme, plan_counts,
                   pqke_total, run_handshake, session_energy)
from pqpan.cli import main
from chunking_oracle import stream_counts

MLKEM = ["ML-KEM-512", "ML-KEM-768", "ML-KEM-1024"]
GRID = [(65, 27), (65, 69), (104, 27), (104, 108),
        (204, 27), (204, 208), (404, 27), (404, 251)]
DLE_PAIRS = [(65, 69), (104, 108), (204, 208), (404, 251)]
ECDH_UJ = 328.0


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def grid_totals():
    """EnergyBreakdown for every (scheme, att, ll) cell with shipped defaults."""
    return {(s, att, ll): pqke_total(s, LinkConfig(att_mtu=att, ll_pdu=ll))
            for s in MLKEM for att, ll in GRID}


def test_criterion_reference_table_reproduction(reference_rows, capsys, tmp_path):
    start = time.perf_counter()
    fit = fit_radio_currents(reference_rows)
    sweep_code = main(["sweep", "--reference-grid", "--compare",
                       "--out", str(tmp_path / "grid.csv")])
    elapsed = time.perf_counter() - start
    worst = max(abs(r.rel_err) for r in fit.residuals)
    ok = (len(fit.residuals) == 48 and worst <= 0.02
          and sweep_code == 0 and elapsed < 5.0)
    with capsys.disabled():
        _report("reference-table reproduction (48 cells within 2%)", ok,
                f"max rel err {worst * 100:.3f}%, fit+sweep {elapsed:.2f}s")


def test_criterion_fragmentation_oracle_equivalence(capsys):
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for att in (23, 65, 104, 204, 404, 512):
        for ll in (27, 69, 108, 208, 251):
            cfg = LinkConfig(att_mtu=att, ll_pdu=ll)
            for size, expected in enumerate(stream_counts(8000, att, ll), start=1):
                checked += 1
                if plan_counts(size, cfg) != expected:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    with capsys.disabled():
        _report("fragmentation counts equal byte-stream oracle (1..8000 B grid)", ok,
                f"{checked} cases, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_dle_savings(grid_totals, capsys):
    savings = []
    for scheme in MLKEM:
        for att, dle_ll in DLE_PAIRS:
            base = grid_totals[(scheme, att, 27)].e_total
            dle = grid_totals[(scheme, att, dle_ll)].e_total
            savings.append((base - dle) / base)
    lo, hi = min(savings), max(savings)
    ok = all(0.25 - 0.05 <= s <= 0.34 + 0.05 for s in savings)
    with capsys.disabled():
        _report("DLE savings within 25-34% (+-5 pp) per level", ok,
                f"observed {lo * 100:.1f}%..{hi * 100:.1f}%")


def test_criterion_range_and_ratio(grid_totals, capsys):
    totals = [bd.e_total for bd in grid_totals.values()]
    lo, hi = 721.0 * 0.95, 2633.0 * 1.05
    in_range = all(lo <= t <= hi for t in totals)
    ratios = [t / ECDH_UJ for t in totals]
    in_ratio = all(2.5 <= r <= 8.5 for r in ratios)
    ok = in_range and in_ratio
    with capsys.disabled():
        _report("grid totals within [721, 2633] uJ (+-5%) and 2.5-8.5x baseline", ok,
                f"totals {min(totals):.0f}..{max(totals):.0f} uJ, "
                f"ratios {min(ratios):.2f}..{max(ratios):.2f}")


def test_criterion_communication_share(grid_totals, capsys):
    ll27 = [bd.comm_share for (s, att, ll), bd in grid_totals.items() if ll == 27]
    ll27_ok = all(0.57 <= s <= 0.63 for s in ll27)
    dle_share = grid_totals[("ML-KEM-1024", 404, 251)].comm_share
    dle_ok = abs(dle_share - 0.37) <= 0.03
    ok = ll27_ok and dle_ok
    with capsys.disabled():
        _report("comm share 57-63% on LL 27 and ~37% at top scheme with DLE", ok,
                f"LL27 {min(ll27):.3f}..{max(ll27):.3f}, DLE {dle_share:.3f}")


def test_criterion_kem_roundtrips(capsys):
    rng = random.Random(0x5eed)
    failures = 0
    size_errors = 0
    for name in MLKEM:
        scheme = lookup_scheme(name)
        for _ in range(1000):
            pair = keygen(scheme, rng.randbytes(32))
            enc = encapsulate(pair.pk, scheme, rng.randbytes(32))
            if decapsulate(pair.sk, enc.ct, scheme) != enc.ss:
                failures += 1
            if (len(pair.pk), len(pair.sk), len(enc.ct)) != (
                    scheme.pk_size, scheme.sk_size, scheme.ct_size):
                size_errors += 1
    ok = failures == 0 and size_errors == 0
    with capsys.disabled():
        _report("3000 seeded KEM roundtrips agree with exact artifact sizes", ok,
                f"{failures} secret mismatches, {size_errors} size errors")


def bundled_cycles() -> dict[str, tuple[int, int]]:
    """Scheme -> (keygen, decaps) cycles, read from the bundled CSV directly."""
    text = resources.files("pqpan").joinpath("data/cycles.csv").read_text(encoding="utf-8")
    rows = csv.DictReader(io.StringIO(
        "".join(ln for ln in text.splitlines(True) if not ln.startswith("#"))))
    return {r["scheme"]: (int(r["keygen"]), int(r["decaps"])) for r in rows}


def peripheral_total_from_trace(result, cfg, cycles) -> float:
    """The peripheral's calibrated handshake energy in uJ, derived without
    pqpan.energy: radio time from the trace's frames (tx when it sends, rx
    when it receives, ``ifs_slots`` gaps per data frame), computation from
    the cycle counts, both priced with the run's profile and calibration."""
    p, g = result.profile, result.gamma
    t_tx = t_rx = 0.0
    n_data = 0
    for rec in result.trace.records:
        air = 8.0 * (rec.payload_bytes + rec.overhead_bytes) / cfg.phy_rate
        if rec.sender is Role.PERIPHERAL:
            t_tx += air
        else:
            t_rx += air
        n_data += not rec.is_ack
    t_ifs = cfg.ifs_slots * n_data * cfg.ifs
    comm = p.voltage * (p.i_tx * t_tx + p.i_rx * t_rx + p.i_ifs * t_ifs) * 1e6
    keygen_cycles, decap_cycles = cycles[result.peripheral.scheme.name]
    level = result.peripheral.scheme.nist_level
    comp = (g.gamma_keygen[level] * keygen_cycles
            + g.gamma_decap[level] * decap_cycles) * p.i_mcu * p.voltage / p.f_mcu * 1e6
    return g.gamma_comm * comm + comp


def test_criterion_simulator_reconciliation(capsys):
    rng = random.Random(20260810)
    cycles = bundled_cycles()
    worst_rel = 0.0
    key_failures = 0
    count_failures = 0
    for _ in range(30):
        scheme = rng.choice(MLKEM)
        att = rng.choice([65, 104, 204, 404, 512])
        ll = rng.choice([27, 69, 108, 208, 251])
        seed = rng.getrandbits(32)
        cfg = LinkConfig(att_mtu=att, ll_pdu=ll)
        result = run_handshake(scheme, cfg, seed=seed)
        analytic = pqke_total(scheme, cfg)
        ledger_total = result.ledger.peripheral_pqke_total()
        # Against the model, and against a total priced from the trace alone.
        for expected in (analytic.e_total, peripheral_total_from_trace(result, cfg, cycles)):
            worst_rel = max(worst_rel, abs(ledger_total - expected) / expected)
        if result.peripheral.session_key.key != result.central.session_key.key:
            key_failures += 1
        # The closed form, itself checked against the byte-stream oracle, not
        # the simulator's own plans.
        expected = sum(plan_counts(size, cfg)[1]
                       for _, size, _ in lookup_scheme(scheme).transfers())
        if (result.trace.data_frame_count() != expected
                or result.trace.ack_count() != expected):
            count_failures += 1
    ok = worst_rel <= 1e-6 and key_failures == 0 and count_failures == 0
    with capsys.disabled():
        _report("simulator ledger/keys/frame counts reconcile over 30 random runs", ok,
                f"worst ledger rel err {worst_rel:.2e}, {key_failures} key / "
                f"{count_failures} count failures")


def test_criterion_session_ordering(capsys):
    cfg = LinkConfig(att_mtu=404, ll_pdu=251)
    labels = ["none", "ecdh", "ml-kem-512", "ml-kem-768", "ml-kem-1024"]
    totals = [session_energy(sec, 1024, cfg) for sec in labels]
    ok = all(a < b for a, b in zip(totals, totals[1:]))
    with capsys.disabled():
        _report("1 kB session totals strictly increase with security choice", ok,
                " < ".join(f"{t:.0f}" for t in totals) + " uJ")
