#!/usr/bin/env python3
"""Hand-picked source mutants, each run against the tier-1 test suite.

A mutant is one textual substitution in one file under ``src/pqpan``. For
each, the repository is copied to a temporary directory, the substitution
is applied to the copy, and tier-1 tests run there with ``-x``: first the
test files that import the mutated module, by its name or by a name the
package exports from it, then, only if those all pass, the whole suite. The
mutant is killed when a test fails and survives when every test passes. An
unmutated copy runs the whole suite first, and must pass, so that a kill
means the mutant changed an outcome some tier-1 test checks. Standard
library only; one test run at a time.

Usage: python scripts/mutants.py
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pqpan import _EXPORTS  # noqa: E402  exported name -> its layer module; loads no layer

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
    if set(SECURITY_LEVELS) != set(table):
        raise ConsistencyError(f"{name} must map exactly levels 1, 3 and 5 to factors")
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
        "reference.py", 'dict.fromkeys(("e_theor_uj", "e_emp_uj"), partial(',
        'dict.fromkeys(("e_theor_uj",), partial('),
    "ecdh-p256 alias dropped": (
        "energy.py", 'elif kind in (SECURITY_ECDH, "ecdh-p256"):', "elif kind == SECURITY_ECDH:"),
    "one-slot gap rule dropped": (
        "link.py", "self.ifs * 1e6 if not is_ack or self.ifs_slots == 2 else 0.0",
        "self.ifs * 1e6"),
    "ack gap left out of ifs_us": (
        "link.py", "(cfg.gap_us(False) + cfg.gap_us(True))", "cfg.gap_us(False)"),
    "air time off by one byte": (
        "link.py", "8e6 * n_bytes / self.phy_rate", "8e6 * (n_bytes + 1) / self.phy_rate"),
    "air time left in seconds": (
        "link.py", "8e6 * n_bytes / self.phy_rate", "8.0 * n_bytes / self.phy_rate"),
    "gap left in seconds, in the budget and the trace": (
        "link.py", "self.ifs * 1e6 if not is_ack", "self.ifs if not is_ack"),
    "comm energy scaled by 1e6 again": (
        "energy.py", "+ profile.i_ifs * ifs_us)", "+ profile.i_ifs * ifs_us) * 1e6"),
    "fit targets back in joules": (
        "energy.py", "[r.e_theor_uj for r in rows]", "[r.e_theor_uj * 1e-6 for r in rows]"),
    "AEAD envelope on an unsecured payload": (
        "energy.py",
        "artifact = payload if kind == SECURITY_NONE else payload + AEAD_OVERHEAD_BYTES",
        "artifact = payload + AEAD_OVERHEAD_BYTES"),
    "delta tolerance widened": (
        "reference.py", "DELTA_TOLERANCE = 1e-3", "DELTA_TOLERANCE = 1e-1"),
    "cycles_file relative to the working directory": (
        "config.py", 'os.path.join(os.path.dirname(path or ""), cycles_file)',
        'os.path.join("", cycles_file)'),
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
    "duplicate reference cell or cycles row accepted": (
        "reference.py", "        if key in lines:\n", "        if key in ():\n"),
    "reference row keeps the scheme as written": (
        "reference.py", "    return bundled.name\n", "    return scheme\n"),
    "reference row takes a KemParamSet as it is": (
        "reference.py",
        "bundled = lookup_scheme(scheme.name if isinstance(scheme, KemParamSet) else scheme)",
        "bundled = lookup_scheme(scheme)"),
    "reference row takes a param set unequal to the bundled one": (
        "reference.py",
        "if isinstance(scheme, KemParamSet) and scheme.replace(name=bundled.name) != bundled:",
        "if False:"),
    "cycles read at the upper-cased name": (
        "energy.py", "counts = cycles.get(scheme.name)",
        "counts = cycles.get(scheme.name.upper())"),
    "fit residuals priced by the design row": (
        "energy.py", "for r, m in zip(rows, (comm_energy(b, profile, rx) for b, rx in transfers)))",
        "for r, m in zip(rows, (_dot(d, current) for d in design)))"),
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
    "SDU index not scaled by sdu_len": (
        "sim.py", "(start + i * sdu_len, full if", "(start + sdu_len, full if"),
    "offset counted after the frame's own air and gap": (
        "sim.py", "frames.append((offset, step))\n                offset += length",
        "offset += length\n                frames.append((offset, step))"),
    "trace clock leaves out the last SDU": (
        "sim.py", "t + n_full * sdu_len + last_len)", "t + n_full * sdu_len)"),
    "JSONL tail shared across sender roles": (
        "sim.py", "tail(*step, op_json)", "tail(part.last[0][1][0], *step[1:], op_json)"),
    "run-length count one full block short": (
        "sim.py", "return (self.n_full * sum(", "return ((self.n_full - 1) * sum("),
    "stub decapsulation hashes all of sk": (
        "kem.py", 'head = _shake(b"pqpan-stub-pk", sk[:_HEAD],',
        'head = _shake(b"pqpan-stub-pk", sk,'),
    "stub encapsulation binds ss to all of pk": (
        "kem.py", 'ss = _shake(b"pqpan-stub-ss", pk[:_HEAD] + ct,',
        'ss = _shake(b"pqpan-stub-ss", pk + ct,'),
    "trace frame counts ignore the op": (
        "sim.py", "for part in self.parts if op is None or part.op == op)",
        "for part in self.parts)"),
    "negative trace clock accepted": (
        "sim.py", "partial(real_in_range, lo=0.0, hi=sys.float_info.max)",
        "partial(real_in_range, lo=-sys.float_info.max, hi=sys.float_info.max)"),
    "infinite trace clock accepted": (
        "sim.py", "lo=0.0, hi=sys.float_info.max)", 'lo=0.0, hi=float("inf"))'),
    "a bool accepted as a real number, a trace clock included": (
        "errors.py", "(isinstance(value, float) or type(value) is int)",
        "isinstance(value, (float, int))"),
    "trace part not checked to be a transfer": (
        "sim.py", "of_type(name, part, _Transfer) for part in", "part for part in"),
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
    "calibration levels checked as a subset again": (
        "reference.py", "if set(SECURITY_LEVELS) != set(table):",
        "if not set(SECURITY_LEVELS) <= set(table):"),
    "session_energy leaves a given cycles unchecked": (
        "energy.py", "profile, gamma, cycles = _model_inputs(profile, gamma, cycles)  # each path",
        "profile, gamma, _ = _model_inputs(profile, gamma, None)  # each path"),
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
    "a user's cycles file is cached": (
        "energy.py", "return wraps(load)(lambda path=None:",
        "return lru_cache(maxsize=8)(lambda path=None:"),
    "a row error loses its line": (
        "reference.py", "raise ParseError(str(exc), path=label, row=i) from None",
        "raise ParseError(str(exc), path=label) from None"),
    "the path rule is skipped": (
        "config.py", '        path = path_str("path", path)\n', "        path = os.fspath(path)\n"),
}


def importers(module: str) -> list[str]:
    """The test files that import ``module`` of pqpan (``"sim"``), by its name or by
    a name the package exports from it, as paths relative to the repository; its
    own file, ``tests/test_sim.py``, comes first."""
    files = []
    for path in sorted((ROOT / "tests").glob("test_*.py"),
                       key=lambda path: (path.name != f"test_{module}.py", path.name)):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module == "pqpan":
                imported.update(f"pqpan.{_EXPORTS.get(alias.name, alias.name)}"
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        if f"pqpan.{module}" in imported:
            files.append(path.relative_to(ROOT).as_posix())
    return files


def suite_passes(tree: Path, files: list[str] = ()) -> bool:
    """Whether the tier-1 tests in ``files`` (all of them if none), stopped at the
    first failure, pass in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--deselect", TABLE_TEST, *files]
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
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="pqpan-mutants-") as tmp:
        if not suite_passes(copy_tree(Path(tmp))):
            print("the unmutated suite fails; no mutant can be judged", file=sys.stderr)
            return 2
    tests = {file: importers(file.removesuffix(".py")) for file, _, _ in MUTANTS.values()}
    survived = []
    for name, (file, old, new) in MUTANTS.items():
        with tempfile.TemporaryDirectory(prefix="pqpan-mutants-") as tmp:
            tree = copy_tree(Path(tmp))
            mutate(tree, file, old, new)
            # a failure among the importers' tests is a tier-1 failure; only a
            # mutant that survives them pays for the whole suite
            killed = ((bool(tests[file]) and not suite_passes(tree, tests[file]))
                      or not suite_passes(tree))
        print(f"{'killed' if killed else 'SURVIVED'}  {file}: {name}", flush=True)
        if not killed:
            survived.append(name)
    print(f"killed {len(MUTANTS) - len(survived)} of {len(MUTANTS)} "
          f"in {time.monotonic() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
