import csv
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
