import math
import re
from importlib import resources

import pytest

from pqpan import (CalibrationFactors, ConsistencyError, InvalidConfig, KemParamSet, ParseError,
                   UnknownScheme, default_calibration, load_config, load_cycle_counts,
                   load_reference_table, load_schemes, lookup_scheme, resolve_config)
from pqpan.energy import _CYCLES_COLUMNS
from pqpan.link import ARTIFACT_MAX
from pqpan.reference import _TABLE_COLUMNS, ReferenceEnergyRow, read_table

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


def test_scheme_param_set_is_returned_as_it_is():
    own = KemParamSet("ML-KEM-512", 800, 1632, 768, 1)
    assert lookup_scheme(own) is own
    custom = KemParamSet("my-kem", 10, 20, 30)  # not in the bundled table
    assert lookup_scheme(custom) is custom


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


def test_parse_error_on_tampered_delta(reference_rows, tmp_path):
    out = tmp_path / "tampered.csv"
    write_table(reference_rows, out)
    lines = out.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",2.00"  # true delta is 8.58
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^{out}:row 2: stored delta 0.0200 does not match"):
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
    with pytest.raises(ParseError, match=r"row 2: e_emp_uj must be a finite number in "
                                         r"\[1e-06, 1000000000000.0\], got -362.63"):
        load_reference_table(out)


def test_consistency_error_on_wrong_row_count(reference_rows, tmp_path):
    out = tmp_path / "short.csv"
    write_table(reference_rows[:10], out)
    with pytest.raises(ConsistencyError, match="48"):
        load_reference_table(out)


def test_parse_error_on_a_repeated_cell(reference_rows, tmp_path):
    # Row 3 copies row 2: the count is still 48, but one cell is missing.
    out = tmp_path / "repeated.csv"
    write_table(reference_rows, out)
    lines = out.read_text().splitlines()
    lines[2] = lines[1]
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError,
                       match="row 3: cell ML-KEM-512,65,27,Notify_PK repeats row 2"):
        load_reference_table(out)


@pytest.mark.parametrize("name", [" ml-kem-512 ", "ml-kem-512", "Ml-Kem-512"])
def test_parse_error_on_a_cell_repeated_in_another_spelling(reference_rows, tmp_path, name):
    # A cell's scheme is compared as lookup_scheme reads it, so a copy of row 2
    # that respells the name is a repeat, not a 49th cell in place of row 3's.
    out = tmp_path / "respelled.csv"
    write_table(reference_rows, out)
    lines = out.read_text().splitlines()
    lines[2] = lines[1].replace("ML-KEM-512", name, 1)
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(
            f"{out}:row 3: cell ML-KEM-512,65,27,Notify_PK repeats row 2")):
        load_reference_table(out)


#: An edit of one field of line 2 of a reference table, as (column, new text), and
#: the error after ``path:row 2`` that refuses it at load. Each is a cell that the
#: fit or the comparison sweep would refuse later, or price wrongly.
BAD_CELLS = {
    "att_mtu-out-of-range": (1, "5", ": att_mtu must be a finite integer in [23, 517], got 5"),
    "ll_pdu-out-of-range": (2, "300", ": ll_pdu must be a finite integer in [27, 251], got 300"),
    "unknown-scheme": (0, "FOO-1", ": unknown scheme 'FOO-1' (known: "),
    "unknown-op": (3, "Indicate_PK", ": op must be one of ('Notify_PK', 'Write_CT'), "
                                     "got 'Indicate_PK'"),
    "att_mtu-not-an-integer": (1, "65.0", ":att_mtu: expected integer, got '65.0'"),
    "energy-not-finite": (5, "inf", ":e_emp_uJ: expected a finite number, got 'inf'"),
    "energy-zero": (4, "0", ": e_theor_uj must be a finite number in [1e-06, "),
    "delta-mismatch": (6, "2.00", ": stored delta 0.0200 does not match (e_emp - e_theor)/e_emp"),
}


@pytest.mark.parametrize("case", list(BAD_CELLS))
def test_reference_cell_error_is_a_parse_error_at_its_line(reference_rows, tmp_path, case):
    column, text, message = BAD_CELLS[case]
    out = tmp_path / "bad.csv"
    write_table(reference_rows, out)
    lines = out.read_text().splitlines()
    fields = lines[1].split(",")
    fields[column] = text
    lines[1] = ",".join(fields)
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="^" + re.escape(f"{out}:row 2{message}")):
        load_reference_table(out)


@pytest.mark.parametrize("field,value,error", [
    ("e_theor_uj", 0.0, ConsistencyError), ("e_emp_uj", -1.0, ConsistencyError),
    ("e_emp_uj", math.nan, ConsistencyError), ("e_theor_uj", 1e300, ConsistencyError),
    ("att_mtu", 5, InvalidConfig), ("ll_pdu", 27.0, InvalidConfig),
    ("op", "notify_pk", ConsistencyError), ("scheme", "FOO-1", UnknownScheme),
    ("scheme", None, UnknownScheme),
    ("scheme", KemParamSet("my-kem", 800, 1632, 768, 1), UnknownScheme),
    ("scheme", KemParamSet("ML-KEM-512", 800, 1632, 768, 3), UnknownScheme),
    ("scheme", KemParamSet("ML-KEM-512", 801, 1632, 768, 1), UnknownScheme),
], ids=["e_theor-zero", "e_emp-negative", "e_emp-nan", "e_theor-huge", "att_mtu",
        "ll_pdu-float", "op-case", "scheme-unknown", "scheme-None", "scheme-custom-param-set",
        "scheme-param-set-other-level", "scheme-param-set-other-size"])
def test_reference_row_is_checked_when_built(reference_rows, field, value, error):
    # A library-built row meets the cell checks a loaded one does, so the fit
    # never divides by a zero energy, prices a link outside the model's ranges
    # or looks up an op that no transfer has.
    fields = dict(zip(ReferenceEnergyRow._fields, reference_rows[0]._values()))
    with pytest.raises(error, match=field):
        ReferenceEnergyRow(**{**fields, field: value})
    with pytest.raises(error, match=field):
        reference_rows[0].replace(**{field: value})


@pytest.mark.parametrize("name", ["ml-kem-512", " ml-kem-512 ", lookup_scheme("ML-KEM-512"),
                                  KemParamSet("ML-KEM-512", 800, 1632, 768, 1),
                                  KemParamSet("ml-kem-512", 800, 1632, 768, 1)],
                         ids=["lower", "blanks", "param-set", "equal-param-set",
                              "equal-param-set-lower"])
def test_reference_row_stores_the_bundled_scheme_name(reference_rows, name):
    fields = dict(zip(ReferenceEnergyRow._fields, reference_rows[0]._values()))
    assert ReferenceEnergyRow(**{**fields, "scheme": name}).scheme == "ML-KEM-512"
    assert reference_rows[0].replace(scheme=name) == reference_rows[0]


def test_reference_table_stores_the_bundled_scheme_name(reference_rows, tmp_path):
    out = tmp_path / "respelled.csv"
    write_table(reference_rows, out)
    lines = out.read_text().splitlines()
    for name in ("ml-kem-512", " ml-kem-512 "):
        out.write_text("\n".join([lines[0], lines[1].replace("ML-KEM-512", name, 1),
                                   *lines[2:]]) + "\n")
        assert load_reference_table(out) == reference_rows


#: Path arguments of every entry point that reads a file, and values none takes.
PATH_READERS = {
    "load_cycle_counts": (load_cycle_counts, "path"),
    "load_reference_table": (load_reference_table, "path"),
    "load_config": (load_config, "path"),
    "resolve_config": (resolve_config, "explicit_path"),
    "cycles_file": (lambda path: load_config(overrides={"cycles_file": path}), "cycles_file"),
}


class _FsPath:
    def __init__(self, path):
        self.path = path

    def __fspath__(self):
        return self.path

    def __repr__(self):
        return f"_FsPath({self.path!r})"


@pytest.mark.parametrize("value", [5, [], "a\0b", b"/x", _FsPath(b"/x"), _FsPath("a\0b"),
                                   _FsPath(5)],
                         ids=["int", "list", "nul", "bytes", "pathlike-bytes", "pathlike-nul",
                              "pathlike-int"])
@pytest.mark.parametrize("reader", list(PATH_READERS))
def test_path_that_is_not_a_path_string_is_invalid_config(reader, value):
    load, name = PATH_READERS[reader]
    with pytest.raises(InvalidConfig, match="^" + re.escape(f"{name} must be a path string, "
                                                            f"got {value!r}")):
        load(value)


@pytest.mark.parametrize("reader", list(PATH_READERS))
def test_missing_file_is_still_an_os_error(tmp_path, reader):
    load, _ = PATH_READERS[reader]
    for path in (str(tmp_path / "missing.csv"), _FsPath(str(tmp_path / "missing.csv"))):
        with pytest.raises(FileNotFoundError):
            load(path)


#: Each bundled table, its columns, and the loader that takes a user's copy.
BUNDLED_TABLES = {
    "schemes.csv": (("name", "pk", "sk", "ct", "level"), None),
    "table2.csv": (_TABLE_COLUMNS, load_reference_table),
    "cycles.csv": (_CYCLES_COLUMNS, lambda path: load_cycle_counts(path and str(path))),
}


@pytest.mark.parametrize("case", ["comment-and-blank-counted", "header-misses-a-column",
                                  "header-names-one-twice", "short-record",
                                  "reordered-and-extra-columns"])
@pytest.mark.parametrize("name", sorted(BUNDLED_TABLES))
def test_read_table_format_rule(tmp_path, name, case):
    columns, loader = BUNDLED_TABLES[name]
    lines = resources.files("pqpan").joinpath(f"data/{name}").read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    path = tmp_path / name
    if case == "comment-and-blank-counted":
        # The note and the blank line are file lines head + 2 and head + 3,
        # skipped but counted, so the first record is on line head + 4.
        lines[head + 1:head + 1] = ["# a note", ""]
        lines[head + 3] += ",extra"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{path}:row {head + 4}: expected "
                                             f"{len(columns)} columns, got {len(columns) + 1}"):
            read_table(path, name, columns)
    elif case == "header-misses-a-column":
        lines[head] = ",".join(column for column in columns if column != columns[1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{path}:row {head + 1}: header names "
                                             f"'{columns[1]}' 0 times"):
            read_table(path, name, columns)
    elif case == "header-names-one-twice":
        lines[head] += f",{columns[0]}"
        lines[head + 1:] = [line + ",x" for line in lines[head + 1:]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{path}:row {head + 1}: header names "
                                             f"'{columns[0]}' 2 times"):
            read_table(path, name, columns)
    elif case == "short-record":
        lines[-1] = lines[-1].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^{path}:row {len(lines)}: expected "
                                             f"{len(columns)} columns, got {len(columns) - 1}"):
            read_table(path, name, columns)
    else:
        # Columns reversed, a note column in the middle, and the header moved
        # down a line: the records come back equal, on their new lines.
        order = list(reversed(columns))
        records = [dict(zip(columns, line.split(","))) for line in lines[head + 1:]]
        out = ["", ",".join(order[:1] + ["note"] + order[1:])]
        out += [",".join([rec[order[0]], "n/a"] + [rec[c] for c in order[1:]])
                for rec in records]
        path.write_text("\n".join(out) + "\n")
        label, rows = read_table(path, name, columns)
        _, bundled_rows = read_table(None, name, columns)
        assert label == str(path)
        assert [fields for _, fields in rows] == [fields for _, fields in bundled_rows]
        assert [i for i, _ in rows] == list(range(3, 3 + len(records)))
        if loader is not None:
            assert loader(path) == loader(None)


@pytest.mark.parametrize("name", sorted(BUNDLED_TABLES))
def test_table_with_a_byte_order_mark_loads_as_without_one(tmp_path, name):
    # A spreadsheet's "CSV UTF-8" starts with a BOM; it is not part of the header,
    # and it does not shift the line an error names.
    columns, loader = BUNDLED_TABLES[name]
    lines = resources.files("pqpan").joinpath(f"data/{name}").read_text().splitlines()
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_table(path, name, columns)[1] == read_table(None, name, columns)[1]
    if loader is not None:
        assert loader(path) == loader(None)
    lines[-1] = lines[-1].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
    with pytest.raises(ParseError, match=f"^{path}:row {len(lines)}: expected "):
        read_table(path, name, columns)


def test_read_table_without_a_header(tmp_path):
    path = tmp_path / "cycles.csv"
    path.write_text("# counts to come\n\n")
    with pytest.raises(ParseError, match=f"^{path}: header names 'scheme' 0 times"):
        load_cycle_counts(str(path))


def test_read_table_record_that_is_not_csv(tmp_path):
    # A field longer than the csv module's limit is an error at its line, not
    # the module's own exception.
    path = tmp_path / "cycles.csv"
    path.write_text(f"scheme,keygen,encaps,decaps\n\nML-KEM-512,{'9' * 200_000},1,1\n")
    with pytest.raises(ParseError, match=f"^{path}:row 3: not a CSV record"):
        load_cycle_counts(str(path))


def test_default_calibration_values():
    g = default_calibration()
    assert g.gamma_keygen == {1: 1.27, 3: 1.38, 5: 1.62}
    assert g.gamma_decap == {1: 1.12, 3: 1.19, 5: 1.32}
    assert g.gamma_comm == 1.15


def test_calibration_rejects_sub_unity_factors():
    with pytest.raises(ConsistencyError):
        CalibrationFactors(gamma_keygen={1: 0.9, 3: 1.3, 5: 1.6},
                           gamma_decap={1: 1.1, 3: 1.2, 5: 1.3}, gamma_comm=1.15)


@pytest.mark.parametrize("table", [{True: 1.2, 3: 1.3, 5: 1.4}, {1.0: 1.2, 3: 1.3, 5: 1.4},
                                   {1: 1.2, "1": 9.0, 3: 1.3, 5: 1.4},
                                   {1.5: 1.2, 3: 1.3, 5: 1.4}, {None: 1.2, 3: 1.3, 5: 1.4}],
                         ids=["bool", "float", "str-beside-int", "float-for-a-level",
                              "None-for-a-level"])
def test_calibration_level_that_is_not_an_int_is_refused(table):
    # A bool or a float key equals an int level, so a dict takes it for one.
    # Key types are checked before coverage, so a key that takes a level's
    # place is named as a bad key, not reported as a missing level.
    base = default_calibration()
    with pytest.raises(ConsistencyError, match="^gamma_decap has a level that is not an integer"):
        CalibrationFactors(base.gamma_keygen, table, base.gamma_comm)


@pytest.mark.parametrize("table", [{1: 1.2, 2: 9.0, 3: 1.3, 5: 1.4},
                                   {1: 1.2, 3: 1.3, 5: 1.4, 7: 2},
                                   {0: 1.2, 1: 1.2, 3: 1.3, 5: 1.4}, {1: 1.2, 3: 1.3}, {}],
                         ids=["level-2", "level-7", "level-0", "level-5-missing", "empty"])
def test_calibration_table_maps_exactly_levels_1_3_and_5(table):
    # A KemParamSet claims level 1, 3, 5 or none, so no scheme reads another level.
    base = default_calibration()
    with pytest.raises(ConsistencyError, match="^gamma_keygen must map exactly levels 1, 3 and 5"):
        CalibrationFactors(table, base.gamma_decap, base.gamma_comm)


def test_calibration_stores_each_factor_as_a_float():
    gamma = CalibrationFactors(dict.fromkeys((1, 3, 5), 2), {1: 1, 3: 2.5, 5: 3}, 2)
    assert gamma.gamma_keygen == {1: 2.0, 3: 2.0, 5: 2.0} and gamma.gamma_comm == 2.0
    assert {type(g) for g in (*gamma.gamma_keygen.values(), *gamma.gamma_decap.values(),
                              gamma.gamma_comm)} == {float}


#: A KemParamSet field and a value it refuses: each size is an int in
#: [1, ARTIFACT_MAX], the level is None or 1, 3 or 5, and the name is a str.
SCHEME_REFUSALS = [("pk_size", 800.0), ("sk_size", True), ("ct_size", "768"), ("pk_size", 0),
                   ("ct_size", ARTIFACT_MAX + 1), ("nist_level", True), ("nist_level", 3.0),
                   ("nist_level", 2), ("nist_level", "3"), ("name", 512), ("name", None)]


@pytest.mark.parametrize("field,value", SCHEME_REFUSALS,
                         ids=[f"{field}={value!r}" for field, value in SCHEME_REFUSALS])
def test_scheme_field_of_the_wrong_type_or_range_is_refused(field, value):
    sizes = dict(name="ML-KEM-512", pk_size=800, sk_size=1632, ct_size=768, nist_level=1)
    with pytest.raises(ConsistencyError, match=f"^{field} must be "):
        KemParamSet(**{**sizes, field: value})


def test_scheme_stores_each_integer_as_an_int():
    np = pytest.importorskip("numpy")
    scheme = KemParamSet("ML-KEM-512", np.int64(800), np.int32(1632), 768, np.int64(1))
    assert scheme == lookup_scheme("ml-kem-512")
    assert {type(v) for v in scheme._values()[1:]} == {int}
