#!/usr/bin/env python3
"""Hand-picked source mutants, each run against the tier-1 test suite.

A mutant is one textual substitution in one file under ``src/pqpan``. For
each, the repository is copied to a temporary directory, the substitution
is applied to the copy, and the tier-1 tests run there with ``-x``. The
mutant is killed when a test fails and survives when every test passes. An
unmutated copy runs first, and must pass, so that a kill means the mutant
changed an outcome some test checks. Standard library only; one test run at
a time, each about as long as the tier-1 suite.

Usage: python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: The tier-1 test of this table; every mutant would fail it, so it is left out.
TABLE_TEST = "tests/test_scripts.py::test_mutant_table_matches_source"
RUN_TIMEOUT_S = 900

#: The two checks of a calibration table, in reference._factor_table's order.
LEVEL_KEYS = """\
    for level, factor in table.items():  # types first: a bad key is not called a missing level
        if type(level) is not int:
            raise ConsistencyError(f"{name} has a level that is not an integer, {_shown(level)}")
        table[level] = real_in_range(name, factor, 1.0, GAMMA_MAX, ConsistencyError)
"""
COVERAGE = """\
    if not set(SECURITY_LEVELS) <= set(table):
        raise ConsistencyError(f"{name} must map each of levels 1, 3 and 5 to a factor")
"""

#: name -> (file under src/pqpan, old text, new text); each old text occurs
#: exactly once in src/.
MUTANTS = {
    "peripheral key from the central's secret": (
        "sim.py", "session_key=kem.derive_session_key(ss))",
        "session_key=kem.derive_session_key(enc.ss))"),
    "session key context": (
        "kem.py", 'SESSION_KEY_CONTEXT = b"pqke-ble-v1"', 'SESSION_KEY_CONTEXT = b"pqke-ble-v2"'),
    "cycle counts only non-decreasing": (
        "energy.py", "lo.keygen < hi.keygen and lo.encap < hi.encap and lo.decap < hi.decap",
        "lo.keygen <= hi.keygen and lo.encap <= hi.encap and lo.decap <= hi.decap"),
    "non-positive e_emp accepted": (
        "reference.py", "if row.e_theor_uj <= 0 or row.e_emp_uj <= 0:",
        "if row.e_theor_uj <= 0:"),
    "ecdh-p256 alias dropped": (
        "energy.py", 'elif kind in (SECURITY_ECDH, "ecdh-p256"):', "elif kind == SECURITY_ECDH:"),
    "one-slot gap rule dropped": (
        "link.py", "self.ifs if not is_ack or self.ifs_slots == 2 else 0.0", "self.ifs"),
    "ack gap left out of t_ifs": (
        "link.py", "(cfg.gap_after(False) + cfg.gap_after(True))", "cfg.gap_after(False)"),
    "seconds on air off by one byte": (
        "link.py", "8.0 * n_bytes / self.phy_rate", "8.0 * (n_bytes + 1) / self.phy_rate"),
    "AEAD envelope on an unsecured payload": (
        "energy.py",
        "artifact = payload if kind == SECURITY_NONE else payload + AEAD_OVERHEAD_BYTES",
        "artifact = payload + AEAD_OVERHEAD_BYTES"),
    "delta tolerance widened": (
        "reference.py", "DELTA_TOLERANCE = 1e-3", "DELTA_TOLERANCE = 1e-1"),
    "cycles_file relative to the working directory": (
        "config.py", 'os.path.join(os.path.dirname(path or ""), data["cycles_file"])',
        'os.path.join("", data["cycles_file"])'),
    "decapsulation ciphertext size unchecked": (
        "kem.py", '_sized(ct, f"{scheme.name}: ct", scheme.ct_size)', "ct"),
    "encapsulation left out of the total": (
        "energy.py", "total += e_encap", "total += 0.0"),
    "minimax polish skipped": (
        "energy.py", "if tab[m][j] < -tol), None)", "if False), None)"),
    "near-zero pivot accepted": (
        "energy.py", "if tab[i][j] > pivot_min]", "if tab[i][j] > tol]"),
    "least-total tie-break dropped": (
        "energy.py", "for rhs in (-2, -1):", "for rhs in (-2,):"),
    "duplicate reference cell accepted": (
        "reference.py", "if cell in first_row:", "if False:"),
    "duplicate cycles row accepted": (
        "energy.py", "if key in first_row:", "if False:"),
    "cycles level order compared across families": (
        "energy.py", "if family == hi_family and not (", "if not ("),
    "table lines counted after the skip": (
        "reference.py", 'enumerate(read_text(path).split("\\n"), start=1)',
        'enumerate([ln for ln in read_text(path).split("\\n") if ln.strip() and '
        'not ln.lstrip().startswith("#")], start=1)'),
    "header column named twice accepted": (
        "reference.py", "if header.count(column) != 1:", "if column not in header:"),
    "table record width unchecked": (
        "reference.py", "if len(fields) != len(header):", "if False:"),
    "repeated config key accepted": (
        "config.py",
        'json.loads(text, object_pairs_hook=lambda pairs: _once(pairs, f"{path}: key"))',
        "json.loads(text)"),
    "trace clock additions fused": (
        "sim.py", "t += air\n            t += gap", "t += air + gap"),
    "JSONL tail shared across sender roles": (
        "sim.py", "[tail(*step[:4], op_json) for step in steps]",
        "[tail(part.last[0][0], *step[1:4], op_json) for step in steps]"),
    "trace frame counts ignore the op": (
        "sim.py", "for part in self._parts if op is None or part.op == op)",
        "for part in self._parts)"),
    "comm_share unrounded": (
        "cli.py", 'body["comm_share"] = round(breakdown.comm_share, 4)',
        'body["comm_share"] = breakdown.comm_share'),
    "value equality across classes": (
        "errors.py", "if other.__class__ is self.__class__:", "if isinstance(other, Value):"),
    "replace bypasses the constructor's checks": (
        "errors.py", "return type(self)(*values)",
        "new = object.__new__(type(self)); "
        "[set_field(new, n, v) for n, v in zip(self._fields, values)]; return new"),
    "defaulted field made required": (
        "errors.py", 'f"{name}=_defaults[{name!r}]" if name in cls._defaults else name', "name"),
    "declared check not applied": (
        "errors.py", 'body.append(f"    _set(self, {name!r}, {value})\\n")',
        'body.append(f"    _set(self, {name!r}, {name})\\n")'),
    "KemParamSet size lower bound 1 -> 0": (
        "reference.py", "int_in_range, lo=1, hi=ARTIFACT_MAX, error=ConsistencyError)",
        "int_in_range, lo=0, hi=ARTIFACT_MAX, error=ConsistencyError)"),
    "generated init skipped": (
        "errors.py", 'if "__init__" not in vars(cls):', "if False:"),
    "value fields assignable": (
        "errors.py", 'raise AttributeError(f"cannot assign to field {name!r}")',
        "set_field(self, name, value)"),
    "ATT header left out of each SDU": (
        "link.py", "divmod(value + SDU_HEADERS, cfg.ll_pdu)",
        "divmod(value + L2CAP_HEADER, cfg.ll_pdu)"),
    "last SDU framed one byte short": (
        "link.py", "(last + 1, frames(last + 1))", "(last + 1, frames(last))"),
    "caller's calibration table stored uncopied": (
        "reference.py", "table = dict(table) if isinstance(table, Mapping) else {}",
        "table = table if isinstance(table, Mapping) else {}"),
    "falsy profile taken for the default": (
        "energy.py", "FITTED_RADIO_PROFILE if profile is None",
        "FITTED_RADIO_PROFILE if not profile"),
    "cfg check dropped from sdu_layout": (
        "link.py", 'cfg = of_type("cfg", cfg, LinkConfig)  # every count',
        "cfg = cfg  # every count"),
    "level-key check moved back after the coverage check": (
        "reference.py", LEVEL_KEYS + COVERAGE, COVERAGE + LEVEL_KEYS),
    "KemParamSet passthrough removed from lookup_scheme": (
        "reference.py", "    if isinstance(name, KemParamSet):\n        return name\n", ""),
    "non-backend value runs the stub": (
        "kem.py", "    if backend is None:\n        return StubBackend()",
        "    if not isinstance(backend, (StubBackend, RealBackend)):\n"
        "        return StubBackend()"),
    "truthy include_encap prices encapsulation": (
        "energy.py", 'of_type("include_encap", include_encap, bool))', "include_encap)"),
    "old tail kept after an in-place rewrite": (
        "cli.py", "fh.truncate()", "pass"),
    "non-regular output truncated": (
        "cli.py", "if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):", "if True:"),
}


def suite_passes(tree: Path) -> bool:
    """Whether the tier-1 suite, stopped at the first failure, passes in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--deselect", TABLE_TEST]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False  # a mutant that hangs the suite is caught
    return proc.returncode == 0


def copy_tree(dest: Path) -> Path:
    tree = dest / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work", ".benchmarks"))
    return tree


def mutate(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / "src" / "pqpan" / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{file}: {old!r} occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="pqpan-mutants-") as tmp:
        if not suite_passes(copy_tree(Path(tmp))):
            print("the unmutated suite fails; no mutant can be judged", file=sys.stderr)
            return 2
    survived = []
    for name, (file, old, new) in MUTANTS.items():
        with tempfile.TemporaryDirectory(prefix="pqpan-mutants-") as tmp:
            tree = copy_tree(Path(tmp))
            mutate(tree, file, old, new)
            killed = not suite_passes(tree)
        print(f"{'killed' if killed else 'SURVIVED'}  {file}: {name}", flush=True)
        if not killed:
            survived.append(name)
    print(f"killed {len(MUTANTS) - len(survived)} of {len(MUTANTS)}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
