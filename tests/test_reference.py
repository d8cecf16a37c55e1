import pytest

from pqpan import (CalibrationFactors, ConsistencyError, ParseError, UnknownScheme,
                   default_calibration, load_reference_table, load_schemes,
                   lookup_scheme)

# (pk, sk, ct, level) as standardized.
MLKEM_SIZES = {
    "ML-KEM-512": (800, 1632, 768, 1),
    "ML-KEM-768": (1184, 2400, 1088, 3),
    "ML-KEM-1024": (1568, 3168, 1568, 5),
}


def test_lookup_mlkem_512():
    s = lookup_scheme("ML-KEM-512")
    assert (s.pk_size, s.sk_size, s.ct_size, s.nist_level) == (800, 1632, 768, 1)


def test_lookup_ecdh():
    s = lookup_scheme("ECDH-P256")
    assert (s.pk_size, s.sk_size, s.ct_size) == (65, 32, 65)
    assert s.nist_level is None


def test_lookup_case_insensitive():
    s = lookup_scheme("ml-kem-1024")
    assert (s.pk_size, s.sk_size, s.ct_size, s.nist_level) == (1568, 3168, 1568, 5)


@pytest.mark.parametrize("name,expected", MLKEM_SIZES.items())
def test_mlkem_sizes_exact(name, expected):
    s = lookup_scheme(name)
    assert (s.pk_size, s.sk_size, s.ct_size, s.nist_level) == expected


def test_unknown_scheme():
    with pytest.raises(UnknownScheme):
        lookup_scheme("ml-kem-2048")


@pytest.mark.parametrize("name", [None, 512, b"ml-kem-512", ["ml-kem-512"]],
                         ids=["None", "int", "bytes", "list"])
def test_scheme_name_that_is_not_a_str_is_unknown(name):
    with pytest.raises(UnknownScheme, match="unknown scheme"):
        lookup_scheme(name)


def test_all_sizes_positive():
    for s in load_schemes().values():
        assert s.pk_size > 0 and s.sk_size > 0
        assert s.ct_size > 0


def test_hqc_levels_in_size_order():
    sizes = [lookup_scheme(f"HQC-{n}") for n in (128, 192, 256)]
    assert [s.nist_level for s in sizes] == [1, 3, 5]
    assert sizes[0].pk_size < sizes[1].pk_size < sizes[2].pk_size


def test_reference_table_shape(reference_rows):
    assert len(reference_rows) == 48
    assert {r.scheme for r in reference_rows} == set(MLKEM_SIZES)
    assert {(r.att_mtu, r.ll_pdu) for r in reference_rows} == {
        (65, 27), (65, 69), (104, 27), (104, 108),
        (204, 27), (204, 208), (404, 27), (404, 251)}


@pytest.mark.parametrize("scheme,att,ll,op,e_theor,e_emp,delta_pct", [
    ("ML-KEM-512", 65, 27, "Notify_PK", 362.63, 396.67, 8.58),
    ("ML-KEM-768", 204, 27, "Notify_PK", 458.18, 456.83, -0.29),
    ("ML-KEM-1024", 404, 251, "Write_CT", 283.42, 302.56, 6.33),
])
def test_reference_rows_spot_values(reference_rows, scheme, att, ll, op,
                                    e_theor, e_emp, delta_pct):
    row = next(r for r in reference_rows
               if (r.scheme, r.att_mtu, r.ll_pdu, r.op) == (scheme, att, ll, op))
    assert row.e_theor_uj == pytest.approx(e_theor)
    assert row.e_emp_uj == pytest.approx(e_emp)
    assert row.delta == pytest.approx(delta_pct / 100, abs=1e-9)


def test_delta_rederivable(reference_rows):
    for r in reference_rows:
        assert abs(r.delta - r.derived_delta()) <= 1e-3


def test_negative_delta_rows_are_exactly_the_documented_two(reference_rows):
    negative = {(r.scheme, r.att_mtu, r.ll_pdu, r.op)
                for r in reference_rows if r.e_emp_uj < r.e_theor_uj}
    assert negative == {("ML-KEM-768", 204, 27, "Notify_PK"),
                        ("ML-KEM-1024", 404, 27, "Notify_PK")}


def write_table(rows, path):
    """Write rows in the bundled CSV format (2-decimal energies)."""
    lines = ["scheme,att_mtu,ll_pdu,op,e_theor_uJ,e_emp_uJ,delta_pct"]
    lines += [f"{r.scheme},{r.att_mtu},{r.ll_pdu},{r.op},{r.e_theor_uj:.2f},"
              f"{r.e_emp_uj:.2f},{r.delta * 100:.2f}" for r in rows]
    path.write_text("\n".join(lines) + "\n")


def test_round_trip_bit_exact(reference_rows, tmp_path):
    out = tmp_path / "table.csv"
    write_table(reference_rows, out)
    assert load_reference_table(out) == reference_rows
    from importlib import resources
    bundled = resources.files("pqpan").joinpath("data/table2.csv").read_text()
    assert out.read_text() == bundled


def test_parse_error_reports_location(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("scheme,att_mtu,ll_pdu,op,e_theor_uJ,e_emp_uJ,delta_pct\n"
                   "ML-KEM-512,65,27,Notify_PK,oops,396.67,8.58\n")
    with pytest.raises(ParseError, match="row 2.*e_theor_uJ"):
        load_reference_table(bad)


def test_parse_error_on_unknown_op(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("scheme,att_mtu,ll_pdu,op,e_theor_uJ,e_emp_uJ,delta_pct\n"
                   "ML-KEM-512,65,27,Indicate_PK,362.63,396.67,8.58\n")
    with pytest.raises(ParseError, match="Indicate_PK"):
        load_reference_table(bad)


def test_parse_error_on_wrong_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParseError, match="header"):
        load_reference_table(bad)


def test_consistency_error_on_tampered_delta(reference_rows, tmp_path):
    out = tmp_path / "tampered.csv"
    write_table(reference_rows, out)
    lines = out.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",2.00"  # true delta is 8.58
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConsistencyError, match="delta"):
        load_reference_table(out)


def test_parse_error_on_negative_empirical_energy(reference_rows, tmp_path):
    out = tmp_path / "negative.csv"
    write_table(reference_rows, out)
    lines = out.read_text().splitlines()
    scheme, att, ll, op, theor = lines[1].split(",")[:5]
    # e_emp = -e_theor gives (e_emp - e_theor)/e_emp = 2 exactly, so the
    # stored delta stays consistent and only the positivity rule applies.
    lines[1] = ",".join([scheme, att, ll, op, theor, "-" + theor, "200.00"])
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="row 2: energies must be positive"):
        load_reference_table(out)


def test_consistency_error_on_wrong_row_count(reference_rows, tmp_path):
    out = tmp_path / "short.csv"
    write_table(reference_rows[:10], out)
    with pytest.raises(ConsistencyError, match="48"):
        load_reference_table(out)


def test_consistency_error_on_a_repeated_cell(reference_rows, tmp_path):
    # Row 3 copies row 2: the count is still 48, but one cell is missing.
    out = tmp_path / "repeated.csv"
    write_table(reference_rows, out)
    lines = out.read_text().splitlines()
    lines[2] = lines[1]
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConsistencyError,
                       match="row 3: cell ML-KEM-512,65,27,Notify_PK repeats row 2"):
        load_reference_table(out)


def test_default_calibration_values():
    g = default_calibration()
    assert g.gamma_keygen == {1: 1.27, 3: 1.38, 5: 1.62}
    assert g.gamma_decap == {1: 1.12, 3: 1.19, 5: 1.32}
    assert g.gamma_comm == 1.15


def test_calibration_rejects_sub_unity_factors():
    with pytest.raises(ConsistencyError):
        CalibrationFactors(gamma_keygen={1: 0.9, 3: 1.3, 5: 1.6},
                           gamma_decap={1: 1.1, 3: 1.2, 5: 1.3}, gamma_comm=1.15)
