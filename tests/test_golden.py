"""Golden outputs: the CLI's JSON, CSV, trace and ledger on a fixed grid, and
the full ``fit`` report.

Each case runs ``pqpan.cli.main`` in-process and compares every output
byte for byte with the copy stored under ``tests/golden/``. A refactor that
changes any of them must say why and refresh the stored copy with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from pqpan.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMES = ("ml-kem-512", "ml-kem-768", "ml-kem-1024")
LINKS = ((23, 27), (65, 27), (404, 251))
SLOTS = (1, 2)
CELLS = [(s, a, l, k) for s in SCHEMES for a, l in LINKS for k in SLOTS]


def _cell_argv(scheme, att, ll, slots):
    return ["--scheme", scheme, "--att-mtu", str(att), "--ll-pdu", str(ll),
            "--ifs-slots", str(slots)]


def _cell_id(scheme, att, ll, slots):
    return f"{scheme}_{att}_{ll}_s{slots}"


def _cases():
    """(case id, argv with ``{out}`` placeholders, {golden file: output file})."""
    yield "fit", ["fit"], {"fit.json": None}
    yield ("sweep_reference_compare",
           ["sweep", "--reference-grid", "--compare", "--out", "{out}/sweep.csv"],
           {"sweep_reference_compare.csv": "sweep.csv"})
    for cell in CELLS:
        cid = _cell_id(*cell)
        yield (f"estimate_{cid}", ["estimate", *_cell_argv(*cell)],
               {f"estimate_{cid}.json": None})
        yield (f"simulate_{cid}",
               ["simulate", *_cell_argv(*cell), "--payload", "100",
                "--trace", "{out}/trace.jsonl", "--ledger", "{out}/ledger.json"],
               {f"simulate_{cid}.trace.jsonl": "trace.jsonl",
                f"simulate_{cid}.ledger.json": "ledger.json"})


CASES = list(_cases())


def run_case(argv, files, out_dir: Path) -> dict[str, bytes]:
    """Run one CLI case; returns golden file name -> produced bytes.

    A file mapped to ``None`` is the command's stdout.
    """
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([a.replace("{out}", str(out_dir)) for a in argv])
    if code != 0:
        raise RuntimeError(f"pqpan {' '.join(argv)} exited {code}")
    return {name: stdout.getvalue().encode() if produced is None
            else (out_dir / produced).read_bytes()
            for name, produced in files.items()}


@pytest.mark.parametrize("argv,files", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(argv, files, tmp_path, monkeypatch):
    monkeypatch.delenv("PQPAN_PROFILE", raising=False)
    for name, produced in run_case(argv, files, tmp_path).items():
        assert produced == (GOLDEN / name).read_bytes(), f"{name} differs from golden"


def test_golden_files_are_exactly_the_cases():
    # A stale golden left by a refactor, or a case whose golden is missing,
    # shows up here rather than as a silently unchecked file.
    named = [name for _, _, files in CASES for name in files]
    assert len(named) == len(set(named)) == 56
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(named)


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("PQPAN_PROFILE", None)
    GOLDEN.mkdir(exist_ok=True)
    for _, argv, files in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for name, produced in run_case(argv, files, Path(tmp)).items():
                (GOLDEN / name).write_bytes(produced)
    print(f"wrote {sum(len(c[2]) for c in CASES)} files to {GOLDEN}", file=sys.stderr)
