import csv
import importlib.util
import io
import math
import os
import subprocess
import sys
from pathlib import Path

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
    assert len(mutants.MUTANTS) == 48
    for name, (file, old, new) in mutants.MUTANTS.items():
        assert old != new, name
        assert sources[file].count(old) == 1, name
        assert sum(text.count(old) for text in sources.values()) == 1, name
        compile(sources[file].replace(old, new), file, "exec")
