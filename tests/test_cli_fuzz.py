"""Fuzzing of the CLI boundary with drawn argv and drawn config JSON.

Whatever the input, ``main`` returns 0, 2, 3 or 4 without raising, and a run
that exits 0 prints and writes finite numbers only. A drawn argv whose values
are all valid exits 0. Every output path lies under the test's temporary
directory.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from pqpan.cli import main
from pqpan.config import _LINK_KEYS, _OTHER_KEYS, _PROFILE_KEYS
from pqpan.energy import AEAD_OVERHEAD_BYTES
from pqpan.link import ARTIFACT_MAX

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

EXTREME_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 1e-3, 1.0, 10.0, 1e12, 1e307, 1e308,
                  -1.0, math.nan, math.inf, -math.inf]
EXTREME_INTS = [-1, 0, 1, 2, 3, 2 ** 63, -2 ** 63 - 1, 10 ** 400,
                ARTIFACT_MAX - AEAD_OVERHEAD_BYTES + 1]
extremes = st.sampled_from(EXTREME_FLOATS + EXTREME_INTS)
# Real argv holds no NUL and no lone surrogate, which st.text never draws.
bad_tokens = st.one_of(*[extremes.map(str)] * 3, st.floats().map(repr), st.integers().map(str),
                       st.text(alphabet=st.characters(blacklist_characters="\x00"), max_size=8),
                       st.sampled_from(["", "65,abc", "27,"]))
leaf = st.one_of(st.floats(), st.integers(), st.booleans(), st.text(max_size=8), st.none())
bad_values = st.one_of(extremes, leaf, st.lists(leaf, max_size=3),
                       st.dictionaries(st.sampled_from(["1", "3", "5", "x"]), leaf, max_size=4))
SCHEMES = ["ml-kem-512", "ML-KEM-768", "ml-kem-1024"]

# Valid values per flag: (required flags, optional flags); None marks a
# switch. Every listed value is valid, so an example without a swap exits 0.
# An example then swaps at most two values for bad ones: a bad token, or one
# of the flag's own bad values below.
GAMMA = {f"--gamma-{part}": ["1.0", "1.15", "10.0"] for part in ("comm", "keygen", "decap")}
SLOTS = {"--ifs-slots": ["1", "2"]}
LINK = {"--att-mtu": ["23", "65", "404", "517"], "--ll-pdu": ["27", "69", "251"], **SLOTS}
# Path values are Path objects, resolved under each example's own directory.
CONFIG = {"--config": [Path("in/config.json")]}
TABLE = {"--table": [Path("in/table.csv")]}
COMMANDS = {
    "estimate": ({"--scheme": SCHEMES, **LINK}, {"--include-encap": None, **GAMMA, **CONFIG}),
    "sweep": ({}, {"--schemes": ["ml-kem-512,ML-KEM-768", "hqc-256,ecdh-p256"],
                   "--att-mtus": ["65", "23,404,517"], "--ll-pdus": ["27", "27,251"],
                   "--reference-grid": None, "--compare": None, "--format": ["csv", "json"],
                   **SLOTS, **CONFIG, **TABLE}),
    "fit": ({}, {**TABLE}),
    "simulate": ({"--scheme": SCHEMES}, {"--seed": ["0", "7"], "--payload": ["0", "64", "600"],
                                         "--backend": ["stub"], **LINK, **GAMMA, **CONFIG}),
}
BAD_PATHS = [Path("in/missing.json"), Path("in/binary.bin")]
# Names that exist but that the command cannot price, or that do not exist;
# the real backend, which not every scheme or install has; unreadable paths.
# A path is swapped only for another path under the example's directory.
BAD = {"--scheme": ["ecdh-p256", "hqc-256", "ml-dsa-44", "sphincs+-128", "ecdsa-p256"],
       "--schemes": ["ml-dsa-44", "sphincs+-128,ml-kem-512"], "--backend": ["real"],
       "--config": BAD_PATHS, "--table": BAD_PATHS}
OUTPUTS = {"sweep": ["--out", Path("out.csv")], "fit": ["--out", Path("fit.json")],
           "simulate": ["--trace", Path("trace.jsonl"), "--ledger", Path("ledger.json")]}


@st.composite
def argvs(draw):
    """(argv, number of swapped values)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    flags = {**required, **{f: v for f, v in optional.items() if draw(st.booleans())}}
    if command == "sweep" and "--table" in flags:  # valid only with a flag that reads it
        flags.setdefault(draw(st.sampled_from(["--reference-grid", "--compare"])), None)
    values = {f: draw(st.sampled_from(v)) for f, v in flags.items() if v is not None}
    # Generation favours the first entry, so one swap, a single bad value in
    # an otherwise valid command, is the most common case.
    swaps = draw(st.permutations(sorted(values)))[:draw(st.sampled_from((1, 2, 0)))]
    for flag in swaps:
        own = st.sampled_from(BAD[flag]) if flag in BAD else st.nothing()
        values[flag] = draw(own if flag in ("--config", "--table") else st.one_of(bad_tokens, own))
    argv = [command]
    for flag in draw(st.permutations(sorted(flags))):
        argv += [flag, values[flag]] if flag in values else [flag]
    if command == "simulate" or (command in OUTPUTS and draw(st.booleans())):
        argv += OUTPUTS[command]
        if values.get("--format") == "json":
            argv[-1] = Path("out.json")
    return argv, len(swaps)


FACTOR = st.floats(1.0, 10.0)
VALID_CONFIG = {
    "voltage": st.floats(0.5, 10.0), "i_tx": st.floats(1e-4, 1.0), "i_rx": st.floats(1e-4, 1.0),
    "i_ifs": st.floats(1e-4, 1.0), "i_mcu": st.floats(1e-4, 1.0), "f_mcu": st.floats(1e3, 1e10),
    "phy_rate": st.floats(1e3, 1e9), "ifs": st.floats(0.0, 0.01),
    "ifs_slots": st.sampled_from([1, 2]), "gamma_comm": FACTOR,
    "gamma_keygen": st.fixed_dictionaries({k: FACTOR for k in "135"}),
    "gamma_decap": st.fixed_dictionaries({k: FACTOR for k in "135"}),
    "cycles_file": st.sampled_from(["cycles.csv", "over_cap.csv", "missing.csv",
                                    "binary.bin", "", "a\x00b"]),
    "kem_backend": st.sampled_from(["stub", "real"]),
}
assert set(VALID_CONFIG) == set(_PROFILE_KEYS + _LINK_KEYS + _OTHER_KEYS)


@st.composite
def configs(draw):
    keys = st.sampled_from(sorted(VALID_CONFIG))
    config = {k: draw(VALID_CONFIG[k]) for k in draw(st.lists(keys, max_size=4, unique=True))}
    for key in draw(st.lists(keys, max_size=2, unique=True)):
        config[key] = draw(bad_values)
    return config


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


def _assert_finite(obj):
    if isinstance(obj, float):
        assert math.isfinite(obj), obj
    elif isinstance(obj, dict):
        for value in obj.values():
            _assert_finite(value)
    elif isinstance(obj, list):
        for value in obj:
            _assert_finite(value)


def assert_finite_output(content: str, kind: str):
    if kind == "json":
        _assert_finite(json.loads(content, parse_constant=_reject_constant))
    elif kind == "jsonl":
        for line in content.splitlines():
            _assert_finite(json.loads(line, parse_constant=_reject_constant))
    else:
        for row in csv.reader(io.StringIO(content)):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), row


def run_in(root: Path, argv, config=None):
    """Run ``main`` in a fresh directory under ``root``; relative paths resolve there."""
    work = Path(tempfile.mkdtemp(dir=root))
    (work / "in").mkdir()
    bundled = resources.files("pqpan").joinpath("data/cycles.csv").read_text()
    (work / "in" / "cycles.csv").write_text(bundled)
    (work / "in" / "over_cap.csv").write_text(
        f"scheme,keygen,encaps,decaps\nML-KEM-512,{'9' * 400},1,1\n")
    (work / "in" / "binary.bin").write_bytes(b"\xff\xfe\x00\x80 not text")
    (work / "in" / "table.csv").write_text(
        resources.files("pqpan").joinpath("data/table2.csv").read_text())
    (work / "in" / "config.json").write_text(json.dumps(
        {"gamma_comm": 1.0} if config is None else config))
    argv = [str(work / a) if isinstance(a, Path) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4) and "Traceback" not in err.getvalue(), (argv, code, err.getvalue())
    event(f"{argv[0]}: exit {code}")  # shown by --hypothesis-show-statistics
    if code == 0:
        stdout = out.getvalue()
        assert_finite_output(stdout, "json" if stdout.startswith(("{", "[")) else "csv")
        for path in work.iterdir():
            if path.is_file():
                assert_finite_output(path.read_text(), path.suffix[1:])
    return code


@FUZZ
@given(case=argvs())
def test_cli_argv_fuzz(tmp_path, case):
    argv, swaps = case
    code = run_in(tmp_path, argv)
    event(f"{swaps} swaps: exit {code}")
    assert swaps or code == 0, (argv, code)


@FUZZ
@given(config=configs(), command=st.sampled_from([
    ["estimate", "--scheme", "ml-kem-768", "--att-mtu", "65", "--ll-pdu", "27"],
    ["sweep", "--schemes", "ml-kem-512", "--att-mtus", "65", "--ll-pdus", "27,251"],
    ["sweep", "--reference-grid", "--compare", "--format", "json"],
    ["simulate", "--scheme", "ml-kem-512", "--att-mtu", "65", "--ll-pdu", "27",
     "--payload", "64", *OUTPUTS["simulate"]],
]))
def test_cli_config_fuzz(tmp_path, config, command):
    run_in(tmp_path, [*command, *CONFIG["--config"]], config)


# Factors argparse's float() accepts: in range, at its ends, just beyond
# them, far out and not finite.
FLAG_FACTORS = st.one_of(FACTOR, st.floats(), st.sampled_from(
    [1.0, 10.0, math.nextafter(1.0, 0.0), math.nextafter(10.0, math.inf), 0.0, -1.0,
     1e308, math.nan, math.inf, -math.inf]))


def _estimate(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(["gamma_comm", "gamma_keygen", "gamma_decap", "ifs_slots"]),
       scheme=st.sampled_from(["ml-kem-512", "ml-kem-768", "ml-kem-1024"]), data=st.data())
def test_flag_and_config_key_share_one_path(tmp_path, monkeypatch, key, scheme, data):
    # A flag and its config key give the same exit code and the same stdout,
    # byte for byte; the per-level flags set every level of the key's table.
    monkeypatch.delenv("PQPAN_PROFILE", raising=False)
    value = data.draw(st.sampled_from([1, 2, 0, 3, -1, 2 ** 63]) if key == "ifs_slots"
                      else FLAG_FACTORS)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {key: dict.fromkeys("135", value) if key in ("gamma_keygen", "gamma_decap") else value}))
    argv = ["estimate", "--scheme", scheme, "--att-mtu", "65", "--ll-pdu", "27"]
    # One token, so that argparse cannot take "-inf" or "-1e+308" for a flag.
    by_flag = _estimate([*argv, f"--{key.replace('_', '-')}={value!r}"])
    assert by_flag == _estimate([*argv, "--config", str(config)])
    event(f"{key}: exit {by_flag[0]}")
