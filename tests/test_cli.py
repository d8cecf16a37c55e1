import io
import json
import os
import subprocess
import sys
from importlib import resources

import pytest

import pqpan.cli
from pqpan.cli import main
from pqpan.config import load_config
from pqpan.energy import AEAD_OVERHEAD_BYTES
from pqpan.errors import ConsistencyError, InvalidConfig
from pqpan.link import ARTIFACT_MAX
from pqpan.reference import load_reference_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_outputs_breakdown(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--scheme", "ml-kem-1024",
                           "--att-mtu", "204", "--ll-pdu", "208")
    assert code == 0
    data = json.loads(out)
    assert data["scheme"] == "ML-KEM-1024"
    assert set(data["raw_uJ"]) == {"keygen", "decap", "notify_pk", "write_ct"}
    # Transfer terms track the reference cell (293.46 / 287.63) within the
    # fit tolerance, calibrated by 1.15.
    assert data["adjusted_uJ"]["notify_pk"] == pytest.approx(1.15 * 293.46, rel=0.02)
    assert data["adjusted_uJ"]["write_ct"] == pytest.approx(1.15 * 287.63, rel=0.02)
    assert 0 < data["comm_share"] < 1


def test_estimate_identity_comm_gamma(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--scheme", "ml-kem-512",
                           "--att-mtu", "65", "--ll-pdu", "27", "--gamma-comm", "1.0")
    assert code == 0
    data = json.loads(out)
    assert data["adjusted_uJ"]["notify_pk"] == data["raw_uJ"]["notify_pk"]
    assert data["adjusted_uJ"]["write_ct"] == data["raw_uJ"]["write_ct"]


def test_estimate_signature_scheme_exits_3(capsys):
    code, _, err = run_cli(capsys, "estimate", "--scheme", "ecdsa-p256",
                           "--att-mtu", "65", "--ll-pdu", "27")
    assert code == 3
    assert "unknown scheme" in err


@pytest.mark.parametrize("scheme,code", [
    ("ml-dsa-44", 3), ("sphincs+-128", 3),  # signatures are not in the scheme table
    ("ecdh-p256", 0), ("hqc-256", 0),  # KEMs without a handshake model still sweep
])
def test_sweep_scheme_table_is_kem_only(capsys, scheme, code):
    got, out, err = run_cli(capsys, "sweep", "--schemes", scheme, "--att-mtus", "65",
                            "--ll-pdus", "27")
    assert got == code
    assert ("unknown scheme" in err) == (code == 3) and "Traceback" not in err
    assert len(out.splitlines()) == (0 if code else 3)


def test_sweep_scheme_named_twice_exits_3_naming_it(capsys):
    # Names are compared after lookup, so a change of case is still a repeat.
    code, out, err = run_cli(capsys, "sweep", "--schemes", "ml-kem-512,ml-kem-768,ML-KEM-512",
                             "--att-mtus", "65", "--ll-pdus", "27")
    assert code == 3 and out == ""
    assert "'ML-KEM-512' is given twice" in err and "Traceback" not in err


def test_estimate_missing_flags_exits_2(capsys):
    assert main(["estimate", "--scheme", "ml-kem-512"]) == 2


def test_estimate_invalid_link_exits_3(capsys):
    code, _, err = run_cli(capsys, "estimate", "--scheme", "ml-kem-512",
                           "--att-mtu", "10", "--ll-pdu", "27")
    assert code == 3
    assert "att_mtu" in err


def test_sweep_single_cell_matches_estimate(capsys):
    code, sweep_out, _ = run_cli(capsys, "sweep", "--schemes", "ml-kem-768",
                                 "--att-mtus", "104", "--ll-pdus", "108",
                                 "--format", "json")
    assert code == 0
    rows = {r["op"]: r["e_theor_uJ"] for r in json.loads(sweep_out)}
    code, est_out, _ = run_cli(capsys, "estimate", "--scheme", "ml-kem-768",
                               "--att-mtu", "104", "--ll-pdu", "108")
    assert code == 0
    est = json.loads(est_out)["raw_uJ"]
    assert rows["Notify_PK"] == pytest.approx(est["notify_pk"], abs=0.005)
    assert rows["Write_CT"] == pytest.approx(est["write_ct"], abs=0.005)


def test_sweep_reference_grid_compare(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--reference-grid", "--compare")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "scheme,att_mtu,ll_pdu,op,e_theor_uJ,e_ref_uJ,rel_err_pct"
    assert len(lines) == 49
    errs = [abs(float(line.rsplit(",", 1)[1])) for line in lines[1:]]
    assert max(errs) <= 2.0


def test_sweep_rows_deterministically_ordered(capsys):
    _, out_a, _ = run_cli(capsys, "sweep", "--schemes",
                          "ml-kem-1024,ml-kem-512", "--att-mtus", "104,65",
                          "--ll-pdus", "27")
    _, out_b, _ = run_cli(capsys, "sweep", "--schemes",
                          "ml-kem-512,ml-kem-1024", "--att-mtus", "65,104",
                          "--ll-pdus", "27")
    assert out_a == out_b


def test_sweep_writes_file(capsys, tmp_path):
    out_file = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "sweep", "--schemes", "ml-kem-512",
                         "--att-mtus", "65", "--ll-pdus", "27",
                         "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("scheme,att_mtu,ll_pdu,op,e_theor_uJ")


def test_fit_report(capsys, tmp_path):
    report_path = tmp_path / "fit.json"
    code, out, _ = run_cli(capsys, "fit", "--out", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["ifs_slots"] == 2
    assert report["max_abs_rel_err"] <= 0.02
    assert len(report["residuals"]) == 48
    assert "not datasheet" in report["provenance"]
    summary = json.loads(out)
    assert summary["profile"]["i_tx"] == report["profile"]["i_tx"]


def test_fit_has_no_ifs_slots_flag(capsys):
    # The fit prices rows under the link's own IFS accounting; no flag changes it.
    code, out, err = run_cli(capsys, "fit", "--ifs-slots", "2")
    assert code == 2
    assert out == "" and "unrecognized arguments: --ifs-slots" in err


def test_one_slot_fit_report_prices_the_same(capsys, tmp_path):
    # The table identifies only i_ifs * ifs_slots, so a report that halves the
    # gap count and doubles i_ifs (as one-slot fits were written) loads with
    # every energy unchanged; only the trace's clock sees the shorter gaps.
    two = tmp_path / "fit.json"
    assert run_cli(capsys, "fit", "--out", str(two))[0] == 0
    report = json.loads(two.read_text())
    report["ifs_slots"] = 1
    report["profile"]["i_ifs"] *= 2
    one = tmp_path / "fit_s1.json"
    one.write_text(json.dumps(report, indent=2) + "\n")

    def outputs(config):
        cell = ["--scheme", "ml-kem-768", "--att-mtu", "65", "--ll-pdu", "27",
                "--config", str(config)]
        sweep = run_cli(capsys, "sweep", "--reference-grid", "--compare", "--config", str(config))
        estimate = run_cli(capsys, "estimate", *cell)
        trace, ledger = tmp_path / f"{config.stem}.jsonl", tmp_path / f"{config.stem}.ledger"
        simulate = run_cli(capsys, "simulate", *cell, "--payload", "100",
                           "--trace", str(trace), "--ledger", str(ledger))
        assert sweep[0] == estimate[0] == simulate[0] == 0
        return sweep[1], json.loads(estimate[1]), ledger.read_bytes(), trace.read_text()

    sweep_2, estimate_2, ledger_2, trace_2 = outputs(two)
    sweep_1, estimate_1, ledger_1, trace_1 = outputs(one)
    assert sweep_1 == sweep_2
    assert estimate_2.pop("ifs_slots") == 2 and estimate_1.pop("ifs_slots") == 1
    assert estimate_1 == estimate_2
    assert ledger_1 == ledger_2
    assert trace_1 != trace_2


@pytest.mark.parametrize("argv", [["fit"], ["sweep", "--reference-grid", "--compare"]],
                         ids=["fit", "sweep-compare"])
def test_reference_table_with_a_repeated_cell_exits_3(capsys, tmp_path, argv):
    # Row 3 copies row 2, so the 48 rows miss the 512/65/27 Write_CT cell.
    lines = resources.files("pqpan").joinpath("data/table2.csv").read_text().splitlines()
    lines[2] = lines[1]
    table = tmp_path / "table.csv"
    table.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, *argv, "--table", str(table))
    assert code == 3
    assert out == ""
    assert f"{table}:row 3: cell ML-KEM-512,65,27,Notify_PK repeats row 2" in err


@pytest.mark.parametrize("argv,column,value", [
    pytest.param(["fit"], "e_theor_uJ", "nan", id="fit-nan"),
    pytest.param(["fit"], "e_theor_uJ", "inf", id="fit-inf"),
    pytest.param(["fit"], "e_emp_uJ", "nan", id="fit-emp-nan"),
    pytest.param(["sweep", "--reference-grid", "--compare"], "e_theor_uJ", "nan",
                 id="sweep-compare-nan"),
])
def test_non_finite_reference_energy_exits_3(capsys, tmp_path, argv, column, value):
    lines = resources.files("pqpan").joinpath("data/table2.csv").read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[4].split(",")
    fields[header.index(column)] = value
    lines[4] = ",".join(fields)
    table = tmp_path / "table.csv"
    table.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, *argv, "--table", str(table))
    assert code == 3
    assert out == ""
    assert f"row 5:{column}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--reference-grid", "--compare"], ["--compare"],
                                  ["--reference-grid"]])
def test_sweep_reads_the_table_once(capsys, monkeypatch, tmp_path, argv):
    from importlib import resources
    table = tmp_path / "table.csv"
    table.write_text(resources.files("pqpan").joinpath("data/table2.csv").read_text())
    calls = []

    def counted(path=None):
        calls.append(path)
        return load_reference_table(path)

    code, want, _ = run_cli(capsys, "sweep", *argv)
    monkeypatch.setattr(pqpan.cli, "load_reference_table", counted)
    code, out, _ = run_cli(capsys, "sweep", *argv, "--table", str(table))
    assert code == 0 and out == want and calls == [str(table)]


def test_fit_missing_table_exits_4(capsys):
    code, _, err = run_cli(capsys, "fit", "--table", "/nonexistent/table.csv")
    assert code == 4


def test_fitted_report_round_trips_as_config(capsys, tmp_path):
    report_path = tmp_path / "fit.json"
    run_cli(capsys, "fit", "--out", str(report_path))
    code, out, _ = run_cli(capsys, "estimate", "--scheme", "ml-kem-512",
                           "--att-mtu", "65", "--ll-pdu", "27",
                           "--config", str(report_path))
    assert code == 0
    assert json.loads(out)["raw_uJ"]["notify_pk"] == pytest.approx(362.63, rel=0.02)


def test_fit_report_with_slot_candidates_loads_as_config(capsys, tmp_path):
    # Earlier versions wrote each tried slot count's worst residual as
    # candidates_max_abs_rel_err; such reports must still load.
    code, out, _ = run_cli(capsys, "fit")
    assert code == 0
    report = json.loads(out)
    old = {**report, "candidates_max_abs_rel_err": {"1": report["max_abs_rel_err"],
                                                    "2": report["max_abs_rel_err"]}}
    estimates = []
    for name, doc in (("new.json", report), ("old.json", old)):
        (tmp_path / name).write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "estimate", "--scheme", "ml-kem-512",
                                 "--att-mtu", "65", "--ll-pdu", "27",
                                 "--config", str(tmp_path / name))
        assert code == 0, err
        estimates.append(out)
    assert estimates[0] == estimates[1]


def test_simulate_deterministic_outputs(capsys, tmp_path):
    paths = {}
    for tag in ("a", "b"):
        trace = tmp_path / f"trace_{tag}.jsonl"
        ledger = tmp_path / f"ledger_{tag}.json"
        code, _, _ = run_cli(capsys, "simulate", "--scheme", "ml-kem-512",
                             "--seed", "7", "--trace", str(trace),
                             "--ledger", str(ledger))
        assert code == 0
        paths[tag] = (trace.read_bytes(), ledger.read_bytes())
    assert paths["a"] == paths["b"]


def test_simulate_trace_counts(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    code, _, _ = run_cli(capsys, "simulate", "--scheme", "ml-kem-512",
                         "--att-mtu", "65", "--ll-pdu", "27",
                         "--trace", str(trace), "--ledger", str(tmp_path / "l.json"))
    assert code == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    data = [r for r in records if not r["is_ack"]]
    acks = [r for r in records if r["is_ack"]]
    assert len(data) == 77 and len(acks) == 77


def test_simulate_payload_prints_session_total(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "simulate", "--scheme", "ml-kem-512",
                           "--payload", "1024", "--trace", str(tmp_path / "t.jsonl"),
                           "--ledger", str(tmp_path / "l.json"))
    assert code == 0
    data = json.loads(out)
    assert data["session_total_uJ"] > data["ledger"]["peripheral_pqke_total_uJ"]
    assert data["session_keys_match"] is True
    # Pairing dominates a 1 kB session.
    assert data["ledger"]["peripheral_pqke_total_uJ"] > data["payload_energy_uJ"]


@pytest.mark.parametrize("file_backend,flag,expected", [
    (None, None, "stub"), ("real", "stub", "stub"), ("stub", "real", "real"),
    ("real", None, "real")])
def test_simulate_backend_flag_overrides_the_config_file(capsys, tmp_path, monkeypatch,
                                                          file_backend, flag, expected):
    # --backend is the kem_backend config key: it goes on top of the file's,
    # and the ledger names the backend that ran.
    if expected == "real":
        pytest.importorskip("cryptography.hazmat.primitives.asymmetric.mlkem")
    monkeypatch.delenv("PQPAN_PROFILE", raising=False)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({} if file_backend is None else {"kem_backend": file_backend}))
    argv = ["simulate", "--scheme", "ml-kem-768", "--config", str(config),
            "--trace", str(tmp_path / "t.jsonl"), "--ledger", str(tmp_path / "l.json")]
    code, out, err = run_cli(capsys, *argv, *(() if flag is None else ("--backend", flag)))
    assert code == 0, err
    assert json.loads(out)["backend"] == expected
    assert json.loads((tmp_path / "l.json").read_text())["backend"] == expected


def test_env_var_config_fallback(capsys, tmp_path, monkeypatch):
    config = tmp_path / "profile.json"
    config.write_text(json.dumps({"gamma_comm": 1.0}))
    monkeypatch.setenv("PQPAN_PROFILE", str(config))
    code, out, _ = run_cli(capsys, "estimate", "--scheme", "ml-kem-512",
                           "--att-mtu", "65", "--ll-pdu", "27")
    assert code == 0
    data = json.loads(out)
    assert data["adjusted_uJ"]["notify_pk"] == data["raw_uJ"]["notify_pk"]


def test_config_unknown_key_exits_3(capsys, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"gamma_com": 1.0}))
    code, _, err = run_cli(capsys, "estimate", "--scheme", "ml-kem-512",
                           "--att-mtu", "65", "--ll-pdu", "27",
                           "--config", str(config))
    assert code == 3
    assert "gamma_com" in err


@pytest.mark.parametrize("key,text", [
    pytest.param("phy_rate", '{"phy_rate": NaN}', id="phy_rate"),
    pytest.param("ifs", '{"ifs": NaN}', id="ifs"),
    pytest.param("phy_rate", '{"phy_rate": 1e-320}', id="phy_rate-tiny"),
    pytest.param("ifs", '{"ifs": 1e300}', id="ifs-huge"),
    pytest.param("i_tx", '{"i_tx": "abc"}', id="i_tx-text"),
    pytest.param("gamma_comm", '{"gamma_comm": "x"}', id="gamma_comm-text"),
    pytest.param("gamma_comm", '{"gamma_comm": NaN}', id="gamma_comm-nan"),
    pytest.param("gamma_keygen", '{"gamma_keygen": {"1": 1.3}}',
                 id="gamma_keygen-incomplete"),
    pytest.param("ifs_slots", '{"ifs_slots": 1.9}', id="ifs_slots-fraction"),
    pytest.param("ifs_slots", '{"ifs_slots": true}', id="ifs_slots-bool"),
    pytest.param("i_mcu", '{"i_mcu": true}', id="i_mcu-bool"),
    pytest.param("gamma_comm", '{"gamma_comm": false}', id="gamma_comm-bool"),
    pytest.param("gamma_keygen", '{"gamma_keygen": {"1": 1.27, "3": true, "5": 1.62}}',
                 id="gamma_keygen-bool"),
    pytest.param("cycles_file", '{"cycles_file": 5}', id="cycles_file-int"),
    pytest.param("cycles_file", '{"cycles_file": "a\\u0000b"}', id="cycles_file-nul"),
    pytest.param("voltage", '{"voltage": 1e308, "i_mcu": 1e308}', id="voltage-huge"),
    pytest.param("f_mcu", '{"f_mcu": 1e-300}', id="f_mcu-tiny"),
    pytest.param("voltage", '{"voltage": 5e-324}', id="voltage-subnormal"),
    pytest.param("kem_backend", '{"kem_backend": [1, 2]}', id="kem_backend-list"),
    pytest.param("kem_backend", '{"kem_backend": "quantum"}', id="kem_backend-unknown"),
    # json.loads refuses an int of more digits than Python converts; the
    # error names the file.
    pytest.param("bad.json", '{"i_tx": ' + "1" * 5000 + "}", id="i_tx-over-digit-limit"),
])
def test_config_non_finite_link_value_exits_3(capsys, tmp_path, key, text):
    # Python's json reads NaN, so the model itself must reject it; values
    # that are out of range, not numbers, or incomplete are rejected too.
    config = tmp_path / "bad.json"
    config.write_text(text)
    code, out, err = run_cli(capsys, "estimate", "--scheme", "ml-kem-768",
                             "--att-mtu", "65", "--ll-pdu", "27",
                             "--config", str(config))
    assert code == 3
    assert out == ""
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["kem_backend", "cycles_file"])
def test_config_value_too_long_to_show_is_rejected(key):
    # A library caller's override can hold an int whose repr Python refuses;
    # the error still names the key.
    with pytest.raises(InvalidConfig, match=f"{key} must be .*<int too long to show>"):
        load_config(overrides={key: 10 ** 5000})


@pytest.mark.parametrize("table", ["gamma_keygen", "gamma_decap"])
@pytest.mark.parametrize("level", [1.9, None, True])
def test_config_gamma_level_key_must_be_an_integer(table, level):
    # JSON keys are strings; an override may also use int keys, but a float
    # is not truncated and a bool is not read as level 1.
    cfg = load_config(overrides={table: {1: 2.0, "3": 1.5, 5: 1.5}})
    assert getattr(cfg.gamma, table) == {1: 2.0, 3: 1.5, 5: 1.5}
    with pytest.raises(ConsistencyError, match=f"{table} has a level that is not an integer"):
        load_config(overrides={table: {level: 2.0, 3: 1.38, 5: 1.62}})


def test_config_file_level_key_that_is_not_an_integer_exits_3(capsys, tmp_path):
    # The file's keys reach CalibrationFactors, the one rule on level keys,
    # as a library caller's do.
    config = tmp_path / "bad.json"
    config.write_text('{"gamma_decap": {"1.5": 1.2, "3": 1.3, "5": 1.4}}')
    with pytest.raises(ConsistencyError, match="gamma_decap has a level that is not an integer"):
        load_config(config)
    code, out, err = run_cli(capsys, "estimate", "--scheme", "ml-kem-512", "--att-mtu", "65",
                             "--ll-pdu", "27", "--config", str(config))
    assert code == 3 and out == ""
    assert "gamma_decap has a level that is not an integer, '1.5'" in err


@pytest.mark.parametrize("flag,argv", [
    pytest.param("--seed", ["simulate", "--scheme", "ml-kem-512",
                            "--seed", "99999999999999999999"], id="seed-overflow"),
    pytest.param("--payload", ["simulate", "--scheme", "ml-kem-512", "--payload", "-1"],
                 id="payload-negative"),
    pytest.param("--payload", ["simulate", "--scheme", "ml-kem-512", "--payload",
                               str(ARTIFACT_MAX - AEAD_OVERHEAD_BYTES + 1)],
                 id="payload-over-cap"),
    pytest.param("--att-mtus", ["sweep", "--att-mtus", "65,abc"], id="att_mtus-text"),
    pytest.param("--ll-pdus", ["sweep", "--ll-pdus", "27,"], id="ll_pdus-empty"),
    pytest.param("--att-mtus", ["sweep", "--att-mtus", "65,104,65"], id="att_mtus-repeated"),
    pytest.param("--ll-pdus", ["sweep", "--ll-pdus", "27,27"], id="ll_pdus-repeated"),
])
def test_bad_argv_is_usage_error(capsys, tmp_path, flag, argv):
    outputs = ["--trace", str(tmp_path / "t.jsonl"), "--ledger", str(tmp_path / "l.json")]
    code, out, err = run_cli(capsys, *argv, *(outputs if argv[0] == "simulate" else []))
    assert code == 2
    assert out == ""
    assert flag in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag,value", [("--gamma-comm", "1e308"),
                                        ("--gamma-keygen", "1e307")])
def test_calibration_flag_above_cap_exits_3(capsys, flag, value):
    code, out, err = run_cli(capsys, "estimate", "--scheme", "ml-kem-512",
                             "--att-mtu", "65", "--ll-pdu", "27", flag, value)
    assert code == 3
    assert out == ""
    assert flag[2:].replace("-", "_") in err and "Traceback" not in err


def test_att_mtu_above_cap_exits_3(capsys):
    code, out, err = run_cli(capsys, "estimate", "--scheme", "ml-kem-512",
                             "--att-mtu", "518", "--ll-pdu", "27")
    assert code == 3
    assert out == ""
    assert "att_mtu" in err and "Traceback" not in err


@pytest.mark.parametrize("source", ["--table", "--config", "cycles_file"])
def test_non_utf8_input_file_exits_3_naming_it(capsys, tmp_path, source):
    binary = tmp_path / "binary.bin"
    binary.write_bytes(b"\xff\xfe\x00\x82 not text")
    if source == "--table":
        argv = ["fit", "--table", str(binary)]
    else:
        config = binary
        if source == "cycles_file":
            config = tmp_path / "profile.json"
            config.write_text(json.dumps({"cycles_file": binary.name}))
        argv = ["estimate", "--scheme", "ml-kem-512", "--att-mtu", "65", "--ll-pdu", "27",
                "--config", str(config)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert str(binary) in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["fit"], ["sweep", "--reference-grid"],
                                  ["sweep", "--reference-grid", "--compare"]])
def test_reference_table_cell_out_of_range_exits_3_naming_its_line(capsys, tmp_path, argv):
    lines = resources.files("pqpan").joinpath("data/table2.csv").read_text().splitlines()
    assert lines[1].startswith("ML-KEM-512,65,27,")
    lines[1] = lines[1].replace(",65,", ",5,", 1)
    table = tmp_path / "bad.csv"
    table.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, *argv, "--table", str(table))
    assert code == 3 and out == ""
    assert err == (f"pqpan: error: {table}:row 2: att_mtu must be a finite integer "
                   "in [23, 517], got 5\n")


def _table_with_line(tmp_path, n, name):
    """The bundled reference table with line ``n`` set to line 2, its scheme written ``name``."""
    lines = resources.files("pqpan").joinpath("data/table2.csv").read_text().splitlines()
    assert lines[1].startswith("ML-KEM-512,65,27,Notify_PK,")
    lines[n - 1] = lines[1].replace("ML-KEM-512", name, 1)
    table = tmp_path / "respelled.csv"
    table.write_text("\n".join(lines) + "\n")
    return table


@pytest.mark.parametrize("argv", [["fit"], ["sweep", "--reference-grid"],
                                  ["sweep", "--reference-grid", "--compare"]])
def test_reference_table_cell_repeated_in_another_spelling_exits_3(capsys, tmp_path, argv):
    # Line 3 repeats line 2's cell in place of its Write_CT cell; the count is still 48.
    table = _table_with_line(tmp_path, 3, " ml-kem-512 ")
    code, out, err = run_cli(capsys, *argv, "--table", str(table))
    assert code == 3 and out == ""
    assert err == (f"pqpan: error: {table}:row 3: cell ML-KEM-512,65,27,Notify_PK "
                   "repeats row 2\n")


@pytest.mark.parametrize("name", [" ml-kem-512 ", "ml-kem-512"])
@pytest.mark.parametrize("argv", [["sweep", "--reference-grid", "--compare"],
                                  ["sweep", "--compare", "--format", "json"], ["fit"]])
def test_reference_table_scheme_in_another_spelling_prints_as_bundled(capsys, tmp_path, argv,
                                                                      name):
    table = _table_with_line(tmp_path, 2, name)
    assert run_cli(capsys, *argv, "--table", str(table)) == run_cli(capsys, *argv)


@pytest.mark.parametrize("argv", [[], ["--schemes", "ml-kem-512", "--format", "json"]])
def test_sweep_table_without_a_flag_that_reads_it_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "sweep", *argv, "--table", "/nonexistent.csv")
    assert code == 2 and out == ""
    assert err.endswith("pqpan sweep: error: --table needs --reference-grid or --compare\n")


def test_config_missing_file_exits_4(capsys):
    code, _, _ = run_cli(capsys, "estimate", "--scheme", "ml-kem-512",
                         "--att-mtu", "65", "--ll-pdu", "27",
                         "--config", "/nonexistent/profile.json")
    assert code == 4


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pqpan", "estimate", "--scheme", "ml-kem-768",
         "--att-mtu", "404", "--ll-pdu", "251"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["scheme"] == "ML-KEM-768"


#: Subcommand -> argv; ``{tmp}`` is a directory for the output files.
STDOUT_WRITERS = {
    "estimate": ["estimate", "--scheme", "ml-kem-512", "--att-mtu", "65", "--ll-pdu", "27"],
    "sweep": ["sweep", "--reference-grid", "--compare"],
    "sweep --help": ["sweep", "--help"],
    "fit": ["fit"],
    "simulate": ["simulate", "--scheme", "ml-kem-512", "--payload", "100",
                 "--trace", "{tmp}/t.jsonl", "--ledger", "{tmp}/l.json"],
}


def _with_closed_stdout(argv, unbuffered: bool):
    """(exit status, stderr) of ``python -m pqpan`` on ``argv`` whose stdout is
    a pipe that nobody reads any more."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "pqpan", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    return proc.returncode, proc.stderr.decode()


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", list(STDOUT_WRITERS))
def test_closed_stdout_ends_quietly(tmp_path, command, unbuffered):
    # As `pqpan sweep --reference-grid --compare | head -1` leaves it once
    # head has its line: exit 0, with nothing on stderr, not even from the
    # flush at interpreter exit.
    argv = [arg.format(tmp=tmp_path) for arg in STDOUT_WRITERS[command]]
    assert _with_closed_stdout(argv, unbuffered) == (0, "")


@pytest.mark.parametrize("flag", ["--trace", "--ledger"])
def test_output_file_error_with_stdout_closed_exits_4(tmp_path, flag):
    argv = [arg.format(tmp=tmp_path) for arg in STDOUT_WRITERS["simulate"]] + [flag, str(tmp_path)]
    code, err = _with_closed_stdout(argv, unbuffered=True)
    assert code == 4 and err.startswith("pqpan: i/o error:")


def test_broken_pipe_on_the_out_file_exits_4(capsys, tmp_path, monkeypatch):
    # A FIFO whose reader has gone: only a closed stdout ends quietly.
    class Gone(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(pqpan.cli, "open", lambda *args, **kwargs: Gone(), raising=False)
    code, out, err = run_cli(capsys, "sweep", "--out", str(tmp_path / "fifo"))
    assert (code, out) == (4, "") and err == "pqpan: i/o error: [Errno 32] Broken pipe\n"


#: Output option -> argv writing it to ``{out}``; ``{tmp}`` holds the other outputs.
FILE_WRITERS = {
    "sweep --out": ["sweep", "--schemes", "ml-kem-512", "--att-mtus", "65", "--ll-pdus", "27",
                    "--out", "{out}"],
    "fit --out": ["fit", "--out", "{out}"],
    "simulate --trace": ["simulate", "--scheme", "ml-kem-512", "--trace", "{out}",
                         "--ledger", "{tmp}/l.json"],
    "simulate --ledger": ["simulate", "--scheme", "ml-kem-512", "--trace", "{tmp}/t.jsonl",
                          "--ledger", "{out}"],
}


def _write_output(capsys, tmp_path, writer, out):
    """(exit status, stderr) of the ``writer`` argv with its output at ``out``."""
    code, _, err = run_cli(capsys, *[arg.format(out=out, tmp=tmp_path)
                                     for arg in FILE_WRITERS[writer]])
    return code, err


def _fresh_output(capsys, tmp_path, writer) -> bytes:
    fresh = tmp_path / "fresh"
    assert _write_output(capsys, tmp_path, writer, fresh)[0] == 0
    return fresh.read_bytes()


@pytest.mark.parametrize("through_link", [False, True], ids=["file", "symlink"])
@pytest.mark.parametrize("writer", list(FILE_WRITERS))
def test_existing_output_is_rewritten_in_place(capsys, tmp_path, writer, through_link):
    # A longer file of junk leaves no tail; the file keeps its inode and mode,
    # and a symlink to it stays a symlink.
    fresh = _fresh_output(capsys, tmp_path, writer)
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"junk\n" * len(fresh))
    target.chmod(0o600)
    link.symlink_to(target)
    inode = target.stat().st_ino
    assert _write_output(capsys, tmp_path, writer, link if through_link else target)[0] == 0
    assert target.read_bytes() == fresh
    assert (target.stat().st_ino, target.stat().st_mode & 0o777) == (inode, 0o600)
    assert link.is_symlink() and os.readlink(link) == str(target)


@pytest.mark.parametrize("writer", list(FILE_WRITERS))
def test_new_output_gets_the_mode_open_gives(capsys, tmp_path, writer):
    umask = os.umask(0o027)
    try:
        with open(tmp_path / "by_open", "w"):
            pass
        assert _write_output(capsys, tmp_path, writer, tmp_path / "out")[0] == 0
    finally:
        os.umask(umask)
    assert (tmp_path / "out").stat().st_mode == (tmp_path / "by_open").stat().st_mode


@pytest.mark.parametrize("writer", list(FILE_WRITERS))
def test_output_to_a_device_or_fifo_is_written_and_never_truncated(capsys, tmp_path, writer):
    # Truncating either one fails, so an attempt would exit 4.
    assert _write_output(capsys, tmp_path, writer, os.devnull)[0] == 0
    fresh = _fresh_output(capsys, tmp_path, writer)  # smaller than a pipe's buffer
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert _write_output(capsys, tmp_path, writer, fifo)[0] == 0
        assert os.read(reader, 2 * len(fresh)) == fresh
    finally:
        os.close(reader)


@pytest.mark.parametrize("writer", list(FILE_WRITERS))
def test_directory_as_output_exits_4(capsys, tmp_path, writer):
    (tmp_path / "dir").mkdir()
    code, err = _write_output(capsys, tmp_path, writer, tmp_path / "dir")
    assert code == 4 and err.startswith("pqpan: i/o error:")


#: The names ``pqpan`` exports, by defining module.
EXPORTS = {
    "errors": "ConsistencyError InvalidConfig InvalidProfile NotEstablished ParseError "
              "PqpanError SingularSystem SizeMismatch UnknownScheme UnsupportedScheme",
    "reference": "CalibrationFactors KemParamSet ReferenceEnergyRow default_calibration "
                 "load_reference_table load_schemes lookup_scheme",
    "link": "FragmentationPlan LinkConfig LinkFrame TimeBudget airtime plan_counts "
            "plan_transfer",
    "kem": "Encapsulation KemKeyPair SessionKey decapsulate derive_session_key encapsulate "
           "get_backend keygen",
    "energy": "AEAD_OVERHEAD_BYTES CycleCounts ECDH_PAIRING_UJ EnergyBreakdown "
              "FITTED_RADIO_PROFILE FitResult RadioProfile fit_radio_currents "
              "load_cycle_counts pqke_total session_energy",
    "sim": "EnergyLedger FrameTrace HandshakeResult PartyState Phase Role run_handshake "
           "send_secured_payload",
    "config": "ModelConfig load_config resolve_config",
}


def _loaded_after(argv):
    """The watched modules loaded by a fresh interpreter that runs ``argv``
    through ``pqpan.cli.main``. It runs without ``site`` (``-S``), so no ``.pth``
    file of the environment loads a watched module first; ``PYTHONPATH`` names
    the directory of the ``pqpan`` these tests import."""
    probe = (
        "import json, sys, pqpan.cli\n"
        "assert pqpan.cli.main(json.loads(sys.argv[1])) == 0\n"
        "print(json.dumps(sorted(m for m in ('numpy', 'scipy', 'pqpan.sim', 'pqpan.kem',\n"
        "                                    'dataclasses', 'importlib.resources', 'pathlib')\n"
        "                        if m in sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pqpan.cli.__file__))}
    proc = subprocess.run([sys.executable, "-S", "-c", probe, json.dumps(argv)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_estimate_sweep_and_simulate_do_not_import_numpy(tmp_path):
    # pqpan has no runtime dependencies: no command loads numpy or scipy,
    # the fit included. Each command loads only the layers it runs, so only
    # simulate loads the simulator and the KEM code. The value types are
    # plain classes, so no command loads dataclasses either, and the bundled
    # data is read with open(), so none loads importlib.resources or pathlib.
    out = str(tmp_path) + "/"
    link = ["--scheme", "ml-kem-768", "--att-mtu", "65", "--ll-pdu", "27"]
    assert _loaded_after(["estimate", *link]) == []
    assert _loaded_after(["sweep", "--reference-grid", "--out", out + "s.csv"]) == []
    assert _loaded_after(["fit", "--out", out + "f.json"]) == []
    assert _loaded_after(["simulate", *link, "--payload", "64", "--seed", "5",
                          "--trace", out + "t.jsonl", "--ledger", out + "l.json"]) == [
        "pqpan.kem", "pqpan.sim"]


@pytest.mark.parametrize("name", ["comm_energy", "comp_energy", "transfer_energy",
                                  "handshake_breakdown"])
def test_unchecked_pricing_helpers_are_not_exported(name):
    # They price values the exported entry points have checked; only pqpan.energy has them.
    assert name not in pqpan.__all__ and name not in dir(pqpan)
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(pqpan, name)
    assert callable(getattr(pqpan.energy, name))


def test_package_names_resolve_lazily_to_their_layer():
    # EXPORTS lists each layer before those that import it, so every layer
    # module is first reached through the package attribute.
    probe = (
        "import json, sys, pqpan\n"
        "before = sorted(m for m in sys.modules if m.startswith('pqpan.'))\n"
        "same, layers = [], []\n"
        "for module, names in json.loads(sys.argv[1]).items():\n"
        "    layers.append(getattr(pqpan, module) is sys.modules['pqpan.' + module])\n"
        "    for name in names.split():\n"
        "        exec(f'from pqpan import {name} as got')\n"
        "        same.append(got is getattr(sys.modules['pqpan.' + module], name))\n"
        "print(json.dumps([before, all(same), all(layers), pqpan.__all__,\n"
        "                  sorted(set(pqpan.__all__) - set(dir(pqpan)))]))\n")
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(EXPORTS)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, same, layers, exported, undir = json.loads(proc.stdout)
    assert before == []  # a bare import loads no layer module
    assert same and layers
    assert exported == sorted(n for names in EXPORTS.values() for n in names.split())
    assert undir == []


def test_fit_runs_without_scipy(tmp_path):
    probe = (
        "import sys\n"
        "class Blocked:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] in ('numpy', 'scipy'):\n"
        "            raise ImportError(name + ' is not installed')\n"
        "sys.meta_path.insert(0, Blocked())\n"
        "import pqpan.cli\n"
        "sys.exit(pqpan.cli.main(['fit', '--out', sys.argv[1]]))\n")
    report = tmp_path / "fit.json"
    proc = subprocess.run([sys.executable, "-c", probe, str(report)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(report.read_text())["max_abs_rel_err"] <= 0.02


def test_config_custom_cycles_file(capsys, tmp_path):
    cycles = tmp_path / "cycles.csv"
    cycles.write_text("scheme,keygen,encaps,decaps\n"
                      "ML-KEM-512,640000,700000,660000\n")
    config = tmp_path / "profile.json"
    config.write_text(json.dumps({"cycles_file": "cycles.csv"}))
    code, out, _ = run_cli(capsys, "estimate", "--scheme", "ml-kem-512",
                           "--att-mtu", "65", "--ll-pdu", "27",
                           "--config", str(config))
    assert code == 0
    # 640k cycles at the default 3 mA / 3 V / 64 MHz: 90 uJ raw keygen.
    assert json.loads(out)["raw_uJ"]["keygen"] == pytest.approx(90.0, abs=0.01)


def test_config_cycles_file_with_a_repeated_scheme_exits_3(capsys, tmp_path):
    cycles = tmp_path / "cycles.csv"
    cycles.write_text("scheme,keygen,encaps,decaps\n"
                      "ML-KEM-512,1432416,1711893,1575658\n"
                      "ML-KEM-768,1901587,2264514,2091746\n"
                      "ML-KEM-1024,2334729,2789406,2568191\n"
                      "ML-KEM-512,640000,700000,1\n")
    config = tmp_path / "profile.json"
    config.write_text(json.dumps({"cycles_file": "cycles.csv"}))
    code, out, err = run_cli(capsys, "estimate", "--scheme", "ml-kem-512",
                             "--att-mtu", "65", "--ll-pdu", "27", "--config", str(config))
    assert code == 3
    assert out == ""
    assert f"{cycles}:row 5: ML-KEM-512 repeats row 2" in err and "Traceback" not in err


def test_config_cycles_file_over_cap_exits_3(capsys, tmp_path):
    cycles = tmp_path / "cycles.csv"
    cycles.write_text("scheme,keygen,encaps,decaps\n"
                      f"ML-KEM-512,{'9' * 400},700000,660000\n")
    config = tmp_path / "profile.json"
    config.write_text(json.dumps({"cycles_file": "cycles.csv"}))
    code, out, err = run_cli(capsys, "estimate", "--scheme", "ml-kem-512",
                             "--att-mtu", "65", "--ll-pdu", "27",
                             "--config", str(config))
    assert code == 3
    assert out == ""
    assert f"{cycles}:row 2" in err and "Traceback" not in err


def test_config_with_a_byte_order_mark_loads_as_without_one(capsys, tmp_path):
    plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
    argv = ["estimate", "--scheme", "ml-kem-512", "--att-mtu", "65", "--ll-pdu", "27"]
    for text, code in (('{"gamma_comm": 1.2}', 0), ('{"gamma_comm": 1.2,\n "voltage": }', 3)):
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        (plain_code, plain_out, plain_err), (bom_code, bom_out, bom_err) = (
            run_cli(capsys, *argv, "--config", str(path)) for path in (plain, bom))
        assert plain_code == bom_code == code and bom_out == plain_out
        # A JSON error names the line and column it names without the mark.
        assert bom_err == plain_err.replace(str(plain), str(bom))
        if code == 0:
            assert load_config(bom) == load_config(plain)
            assert load_config(bom).gamma.gamma_comm == 1.2
    assert "line 2 column 13" in bom_err


def test_cycles_file_error_names_the_line_the_file_shows(capsys, tmp_path):
    # The bundled file's comment lines count: its ML-KEM-768 row is line 10.
    lines = resources.files("pqpan").joinpath("data/cycles.csv").read_text().splitlines()
    assert lines[9].startswith("ML-KEM-768,")
    lines[9] = lines[9].replace(",", ",x", 1)
    cycles = tmp_path / "cycles.csv"
    cycles.write_text("\n".join(lines) + "\n")
    config = tmp_path / "profile.json"
    config.write_text(json.dumps({"cycles_file": "cycles.csv"}))
    code, out, err = run_cli(capsys, "estimate", "--scheme", "ml-kem-512",
                             "--att-mtu", "65", "--ll-pdu", "27", "--config", str(config))
    assert code == 3
    assert out == ""
    assert f"{cycles}:row 10:keygen: expected integer, got 'x1901587'" in err
    assert "Traceback" not in err


def test_estimate_prices_hqc_from_a_cycles_file_with_ml_kem_and_hqc_rows(capsys, tmp_path):
    cycles = tmp_path / "cycles.csv"
    cycles.write_text("scheme,keygen,encaps,decaps\n"
                      "ML-KEM-512,1432416,1711893,1575658\n"
                      "ML-KEM-768,1901587,2264514,2091746\n"
                      "HQC-128,20000000,40000000,60000000\n"
                      "HQC-192,60000000,120000000,180000000\n")
    config = tmp_path / "profile.json"
    config.write_text(json.dumps({"cycles_file": "cycles.csv"}))
    code, out, err = run_cli(capsys, "estimate", "--scheme", "hqc-128",
                             "--att-mtu", "65", "--ll-pdu", "27", "--config", str(config))
    assert code == 0, err
    # 20M cycles at the default 3 mA / 3 V / 64 MHz: 2812.5 uJ raw keygen.
    assert json.loads(out)["raw_uJ"]["keygen"] == pytest.approx(2812.5)


@pytest.mark.parametrize("text,key", [
    pytest.param('{"gamma_comm": 1.1, "gamma_comm": 3.0}', "'gamma_comm' is given twice",
                 id="top-level"),
    pytest.param('{"gamma_keygen": {"1": 1.2, "1": 2.0, "3": 1.3, "5": 1.4}}',
                 "'1' is given twice", id="nested"),
    pytest.param('{"gamma_keygen": {"1": 1.2, "3": 1.3, "5": 1.4, "01": 2}}',
                 "gamma_keygen level 1 is given twice",
                 id="one-level-two-spellings"),
])
def test_config_that_names_a_key_twice_exits_3(capsys, tmp_path, text, key):
    # json alone keeps the last value, which would price the run silently.
    config = tmp_path / "twice.json"
    config.write_text(text)
    code, out, err = run_cli(capsys, "estimate", "--scheme", "ml-kem-512",
                             "--att-mtu", "65", "--ll-pdu", "27", "--config", str(config))
    assert code == 3
    assert out == ""
    assert key in err and "Traceback" not in err
    with pytest.raises(InvalidConfig, match=key):
        load_config(config)
