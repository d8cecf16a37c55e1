import csv
import importlib.util
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_energy_landscape_prints_the_grid():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "energy_landscape.py")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["scheme", "att_mtu", "ll_pdu", "total_uJ", "comp_uJ", "comm_uJ",
                       "comm_share", "dle_savings_pct", "vs_ecdh"]
    assert len(rows) == 1 + 24
    for row in rows[1:]:
        # DLE savings are reported on the LL 27 rows only; ECDH ratios end in "x".
        assert (row[7] != "") == (row[2] == "27")
        numbers = [float(v.removesuffix("x")) for v in row[1:] if v]
        assert all(math.isfinite(x) for x in numbers), row


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_energy_landscape_ends_quietly_when_stdout_closes(unbuffered):
    # As `python scripts/energy_landscape.py | head -1` leaves it once head has
    # its line: exit 0, with nothing on stderr, as the pqpan commands end.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "energy_landscape.py")],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr.decode()) == (0, "")


def test_mutant_table_matches_source():
    # The mutant runner is outside tier-1; this keeps its table from rotting:
    # each old text occurs exactly once in src/, in the file named, and the
    # mutated file still compiles, so a kill is never a syntax error.
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.TABLE_TEST == "tests/test_scripts.py::test_mutant_table_matches_source"
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in (ROOT / "src" / "pqpan").glob("*.py")}
    assert len(mutants.MUTANTS) == 67
    for name, (file, old, new) in mutants.MUTANTS.items():
        assert old != new, name
        assert sources[file].count(old) == 1, name
        assert sum(text.count(old) for text in sources.values()) == 1, name
        compile(sources[file].replace(old, new), file, "exec")


def _chunking_domain():
    spec = importlib.util.spec_from_file_location("chunking_domain",
                                                  ROOT / "scripts" / "chunking_domain.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_chunking_domain_check_passes_on_the_two_smallest_att_mtus():
    # The whole domain runs in CI; tier-1 checks att_mtu 23 and 24 with every ll_pdu.
    domain = _chunking_domain()
    sizes = mismatches = 0
    for att_mtu in (23, 24):
        for ll_pdu in range(domain.LL_PDU_MIN, domain.LL_PDU_MAX + 1):
            checked, bad = domain.pair_mismatches(att_mtu, ll_pdu)
            sizes, mismatches = sizes + checked, mismatches + len(bad)
    assert (sizes, mismatches) == (18450, 0)


def test_chunking_domain_check_sees_a_count_off_by_one(monkeypatch):
    domain = _chunking_domain()
    real = domain.plan_counts
    monkeypatch.setattr(domain, "plan_counts", lambda size, cfg: real(size + (size == 40), cfg))
    checked, bad = domain.pair_mismatches(23, 27)
    assert checked == 40
    # Two SDUs of 20 value bytes, each 27 B in one frame; the model counts 41 bytes.
    assert bad == ["att_mtu=23 ll_pdu=27 size=40: model ((3, 3), TimeBudget(tx_us=592.0, "
                   "rx_us=160.0, ifs_us=600.0)), byte stream ((2, 2), TimeBudget("
                   "tx_us=592.0, rx_us=160.0, ifs_us=600.0))"]


def test_chunking_domain_check_sees_a_budget_off_by_one_byte(monkeypatch):
    domain = _chunking_domain()
    real = domain.airtime
    monkeypatch.setattr(domain, "airtime", lambda size, cfg: real(size + (size == 40), cfg))
    _, bad = domain.pair_mismatches(23, 27)
    # The budget of 41 bytes: a third SDU of one value byte and 7 B of headers, in a
    # frame of its own, puts 18 B more data and 10 B more acks on air.
    assert bad == ["att_mtu=23 ll_pdu=27 size=40: model ((2, 2), TimeBudget(tx_us=736.0, "
                   "rx_us=240.0, ifs_us=900.0)), byte stream ((2, 2), TimeBudget("
                   "tx_us=592.0, rx_us=160.0, ifs_us=600.0))"]


def test_chunking_domain_check_sees_a_stream_that_does_not_step(monkeypatch):
    # An empty frame added past 23 bytes breaks the stream's one-full-SDU step, and
    # the step is reported on its own line beside the count mismatches.
    domain = _chunking_domain()
    real = domain.stream

    def shifted(max_size, att_mtu, ll_pdu):
        for size, (n_att, frames) in enumerate(real(max_size, att_mtu, ll_pdu), start=1):
            yield n_att, frames + [0] * (size > att_mtu)

    monkeypatch.setattr(domain, "stream", shifted)
    _, bad = domain.pair_mismatches(23, 27)
    assert "att_mtu=23 ll_pdu=27 size=24: byte stream (2, 3, 68, 30), not one full SDU " \
        "past size 4, (2, 2, 58, 20)" in bad


def _alignment_rule():
    spec = importlib.util.spec_from_file_location("alignment_rule",
                                                  ROOT / "scripts" / "alignment_rule.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("ifs_slots", [2, 1])
def test_alignment_rule_check_passes_on_the_smallest_pairs(ifs_slots):
    # The whole domain runs in CI; tier-1 checks ATT 23..25 x LL 27..29, which
    # holds the worst att_mtu step of the whole domain.
    rule = _alignment_rule()
    rising, (rise, *cell) = rule.grid_steps(ifs_slots, range(23, 26), range(27, 30))
    assert rising == []
    assert (*cell, round(100 * rise, 2)) == rule.WORST_ATT_STEP[ifs_slots]


def test_alignment_rule_check_sees_a_rising_ll_pdu_step(monkeypatch):
    rule = _alignment_rule()
    real = rule.pqke_total

    def raised(scheme, cfg):
        bd = real(scheme, cfg)
        return bd.replace(e_total=bd.e_total * 2) if (cfg.att_mtu, cfg.ll_pdu) == (24, 28) else bd

    monkeypatch.setattr(rule, "pqke_total", raised)
    rising, _ = rule.grid_steps(2, range(23, 26), range(27, 30))
    assert [line.split(":")[0] for line in rising] == [
        f"{scheme} ifs_slots=2 att_mtu=24" for scheme in rule.SCHEMES]
    assert all(" ll_pdu 27 -> 28 raises e_total " in line for line in rising)


def test_alignment_rule_ends_quietly_when_stdout_closes(tmp_path):
    # Its main on a small grid, as `python scripts/alignment_rule.py | head -1`
    # leaves it once head has its line: exit 0, with nothing on stderr.
    script = str(ROOT / "scripts" / "alignment_rule.py")
    code = ("import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('rule', {script!r})\n"
            "rule = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(rule)\n"
            "rule.ATT_MTU_MAX, rule.LL_PDU_MAX = 25, 29\n"
            "sys.exit(rule.main())\n")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-c", code], stdout=write, stderr=subprocess.PIPE,
                              timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr.decode()) == (0, "")
