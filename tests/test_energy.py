import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqpan import (CalibrationFactors, CycleCounts, ECDH_PAIRING_UJ, FITTED_RADIO_PROFILE,
                   InvalidConfig, InvalidProfile, KemParamSet, LinkConfig, ParseError,
                   RadioProfile, SingularSystem, TimeBudget, UnknownScheme, UnsupportedScheme,
                   airtime, comm_energy, comp_energy, default_calibration,
                   fit_radio_currents, load_cycle_counts, load_schemes, lookup_scheme,
                   pqke_total, session_energy, transfer_energy)
from pqpan import energy
from pqpan.energy import (CYCLES_MAX, _chebyshev_polish, _design_matrix, _dot,
                          _require_full_rank, handshake_inputs)
from pqpan.link import ARTIFACT_MAX
from pqpan.reference import ReferenceEnergyRow

REFERENCE_GRID = [(65, 27), (65, 69), (104, 27), (104, 108),
              (204, 27), (204, 208), (404, 27), (404, 251)]
MLKEM = ["ML-KEM-512", "ML-KEM-768", "ML-KEM-1024"]
#: All-ones factors: adjusted energies equal raw energies.
IDENTITY = CalibrationFactors(dict.fromkeys((1, 3, 5), 1.0), dict.fromkeys((1, 3, 5), 1.0), 1.0)


def make_profile(**kw):
    base = dict(voltage=3.0, i_tx=5e-3, i_rx=4e-3, i_ifs=2e-3, i_mcu=5e-3, f_mcu=64e6)
    base.update(kw)
    return RadioProfile(**base)


def test_comp_energy_zero_cycles():
    assert comp_energy(0, make_profile()) == 0.0


def test_comp_energy_hand_value():
    # 640k cycles at 5 mA, 3 V, 64 MHz is 10 ms of MCU time: 150 uJ.
    assert comp_energy(640_000, make_profile(i_mcu=5e-3)) == pytest.approx(150.0)


@given(st.integers(min_value=0, max_value=10**8))
def test_comp_energy_linear(cycles):
    p = make_profile()
    assert comp_energy(2 * cycles, p) == pytest.approx(2 * comp_energy(cycles, p))


def test_comp_energy_rejects_negative_cycles():
    with pytest.raises(InvalidProfile):
        comp_energy(-1, make_profile())


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   pytest.param(CYCLES_MAX + 1, id="over-cap")])
@pytest.mark.parametrize("field", ["keygen", "encap", "decap"])
def test_non_finite_cycles_rejected(field, value):
    counts = {"keygen": 1, "encap": 1, "decap": 1, field: value}
    with pytest.raises(InvalidProfile, match="finite"):
        CycleCounts(**counts)
    with pytest.raises(InvalidProfile, match="finite"):
        comp_energy(value, make_profile())


def test_invalid_profile_fields():
    with pytest.raises(InvalidProfile):
        make_profile(i_tx=0.0)
    with pytest.raises(InvalidProfile):
        make_profile(voltage=-3.0)


@pytest.mark.parametrize("field", ["voltage", "i_tx", "i_rx", "i_ifs", "i_mcu", "f_mcu"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e308])
def test_non_finite_profile_fields_rejected(field, value):
    with pytest.raises(InvalidProfile):
        make_profile(**{field: value})


def test_comm_energy_zero_budget():
    assert comm_energy(TimeBudget(0.0, 0.0, 0.0), make_profile()) == 0.0


def test_comm_energy_role_swap():
    p = make_profile(i_tx=6e-3, i_rx=4e-3)
    budget = TimeBudget(t_tx=10e-3, t_rx=2e-3, t_ifs=3e-3)
    sender = comm_energy(budget, p)
    receiver = comm_energy(budget, p, as_receiver=True)
    assert sender == pytest.approx(3.0 * (6e-3 * 10e-3 + 4e-3 * 2e-3 + 2e-3 * 3e-3) * 1e6)
    assert receiver == pytest.approx(3.0 * (4e-3 * 10e-3 + 6e-3 * 2e-3 + 2e-3 * 3e-3) * 1e6)


@given(st.floats(min_value=0.1, max_value=10.0))
def test_comm_energy_homogeneous_in_time(k):
    p = make_profile()
    b = TimeBudget(t_tx=1e-3, t_rx=2e-4, t_ifs=5e-4)
    scaled = TimeBudget(t_tx=k * b.t_tx, t_rx=k * b.t_rx, t_ifs=k * b.t_ifs)
    assert comm_energy(scaled, p) == pytest.approx(k * comm_energy(b, p))


def test_apply_calibration_identity():
    raw = pqke_total("ml-kem-512", LinkConfig(att_mtu=65, ll_pdu=27), gamma=IDENTITY)
    assert raw.adj_keygen == raw.e_keygen
    assert raw.adj_notify_pk == raw.e_notify_pk
    assert raw.e_total == pytest.approx(raw.e_keygen + raw.e_decap
                                        + raw.e_notify_pk + raw.e_write_ct)


def test_apply_calibration_level1_keygen():
    cfg = LinkConfig(att_mtu=65, ll_pdu=27)
    raw = pqke_total("ml-kem-512", cfg, gamma=IDENTITY)
    adjusted = pqke_total("ml-kem-512", cfg, gamma=default_calibration())
    assert adjusted.adj_keygen == pytest.approx(1.27 * raw.e_keygen)
    assert adjusted.adj_decap == pytest.approx(1.12 * raw.e_decap)
    assert adjusted.adj_notify_pk == pytest.approx(1.15 * raw.e_notify_pk)


def test_calibration_monotone():
    cfg = LinkConfig(att_mtu=104, ll_pdu=108)
    raw = pqke_total("ml-kem-768", cfg, gamma=IDENTITY)
    adj = pqke_total("ml-kem-768", cfg)
    for field in ("keygen", "decap", "notify_pk", "write_ct"):
        assert getattr(adj, f"adj_{field}") >= getattr(raw, f"e_{field}")


@pytest.mark.parametrize("scheme", MLKEM)
@pytest.mark.parametrize("att,ll", REFERENCE_GRID)
def test_breakdown_additivity(scheme, att, ll):
    bd = pqke_total(scheme, LinkConfig(att_mtu=att, ll_pdu=ll))
    total = bd.adj_keygen + bd.adj_decap + bd.adj_notify_pk + bd.adj_write_ct
    assert abs(bd.e_total - total) <= 1e-9 * total
    assert 0 < bd.comm_share < 1


def test_pqke_total_rejects_schemes_without_model():
    cfg = LinkConfig(att_mtu=65, ll_pdu=27)
    with pytest.raises(UnsupportedScheme):
        pqke_total("ecdh-p256", cfg)  # KEM but no cycle counts / level
    with pytest.raises(UnknownScheme, match="unknown scheme"):
        pqke_total("ml-dsa-65", cfg)  # signatures are not in the scheme table


@pytest.mark.parametrize("scheme", [None, 123, b"ml-kem-512", object()],
                         ids=["None", "int", "bytes", "object"])
def test_scheme_that_is_neither_a_name_nor_a_param_set_is_unknown(scheme):
    cfg = LinkConfig(att_mtu=65, ll_pdu=27)
    with pytest.raises(UnknownScheme, match="unknown scheme"):
        pqke_total(scheme, cfg)
    with pytest.raises(UnknownScheme, match="unknown scheme"):
        handshake_inputs(scheme, None, None, None)


def test_include_encap_adds_uncalibrated_term():
    cfg = LinkConfig(att_mtu=204, ll_pdu=208)
    base = pqke_total("ml-kem-512", cfg)
    full = pqke_total("ml-kem-512", cfg, include_encap=True)
    assert full.e_encap is not None
    assert full.adj_encap == full.e_encap
    assert full.e_total == pytest.approx(base.e_total + full.e_encap)
    assert full.comm_share < base.comm_share


def test_modeled_comm_matches_reference_spot_cell(fit_result):
    # ML-KEM-768 at ATT 404 / LL 251: both transfer phases within the fit
    # tolerance of the reference energies 217.81 and 199.06.
    cfg = LinkConfig(att_mtu=404, ll_pdu=251)
    bd = pqke_total("ml-kem-768", cfg, profile=fit_result.profile, gamma=IDENTITY)
    assert bd.e_notify_pk == pytest.approx(217.81, rel=0.02)
    assert bd.e_write_ct == pytest.approx(199.06, rel=0.02)


def test_argmin_invariant_under_voltage_scaling():
    def best_config(profile):
        totals = {(att, ll): pqke_total("ml-kem-768",
                                        LinkConfig(att_mtu=att, ll_pdu=ll),
                                        profile=profile).e_total
                  for att, ll in REFERENCE_GRID}
        return min(totals, key=totals.get), totals

    base_best, base_totals = best_config(FITTED_RADIO_PROFILE)
    scaled_profile = FITTED_RADIO_PROFILE.replace(voltage=FITTED_RADIO_PROFILE.voltage * 2.5)
    scaled_best, scaled_totals = best_config(scaled_profile)
    assert scaled_best == base_best
    for key in base_totals:
        assert scaled_totals[key] == pytest.approx(2.5 * base_totals[key])


def test_cycle_counts_increase_with_level():
    cycles = load_cycle_counts()
    by_level = [cycles[name] for name in ("ML-KEM-512", "ML-KEM-768", "ML-KEM-1024")]
    for lo, hi in zip(by_level, by_level[1:]):
        assert lo.keygen < hi.keygen
        assert lo.encap < hi.encap
        assert lo.decap < hi.decap


def test_cached_tables_are_read_only():
    # Both loaders are cached, so a write to one caller's table would reach
    # every later caller.
    cfg = LinkConfig(att_mtu=65, ll_pdu=27)
    before = pqke_total("ml-kem-512", cfg)
    with pytest.raises(TypeError):
        load_cycle_counts()["ML-KEM-512"] = CycleCounts(1, 1, 1)
    with pytest.raises(TypeError):
        load_schemes()["ML-KEM-512"] = KemParamSet("ML-KEM-512", 1, 1, 1, 1)
    with pytest.raises(TypeError):
        del load_schemes()["ML-KEM-512"]
    assert pqke_total("ml-kem-512", cfg) == before


@pytest.mark.parametrize("column", [1, 2, 3], ids=["keygen", "encaps", "decaps"])
def test_cycles_file_with_a_count_shared_by_two_levels_rejected(tmp_path, column):
    rows = [["ML-KEM-512", 100, 200, 300], ["ML-KEM-768", 1000, 2000, 3000],
            ["ML-KEM-1024", 5000, 6000, 7000]]
    rows[1][column] = rows[0][column]
    path = tmp_path / "cycles.csv"
    path.write_text("scheme,keygen,encaps,decaps\n"
                    + "".join(",".join(map(str, row)) + "\n" for row in rows))
    with pytest.raises(ParseError, match="increase strictly"):
        load_cycle_counts(str(path))


def test_cycles_file_row_for_an_unknown_scheme_is_located(tmp_path):
    path = tmp_path / "cycles.csv"
    path.write_text("scheme,keygen,encaps,decaps\n"
                    "ML-KEM-512,100,200,300\n"
                    "FOO-KEM,1000,2000,3000\n")
    with pytest.raises(ParseError, match=f"^{path}:row 3: unknown scheme 'FOO-KEM'"):
        load_cycle_counts(str(path))


# Current fit

def test_fit_on_reference_table(fit_result):
    assert fit_result.max_abs_rel_err <= 0.02
    assert len(fit_result.residuals) == 48
    # The report records the link's own IFS accounting, the one i_ifs belongs to.
    assert fit_result.as_dict()["ifs_slots"] == LinkConfig(att_mtu=65, ll_pdu=27).ifs_slots == 2


def test_fit_matches_shipped_defaults(fit_result):
    p, d = fit_result.profile, FITTED_RADIO_PROFILE
    assert p.i_tx == pytest.approx(d.i_tx, rel=1e-3)
    assert p.i_rx == pytest.approx(d.i_rx, rel=1e-3)
    assert p.i_ifs == pytest.approx(d.i_ifs, rel=1e-3)


def test_calibrated_model_against_empirical_column(reference_rows):
    # Characterisation, not a gate: the calibrated model (shipped profile,
    # default gamma_comm) against the table's measured e_emp_uJ, as README
    # "Model notes" states it. A change to either figure is an output change.
    gamma = default_calibration()
    assert gamma.gamma_comm == 1.15
    errors = []
    for row in reference_rows:
        size, as_receiver = {op: (size, rx) for op, size, rx
                             in lookup_scheme(row.scheme).transfers()}[row.op]
        budget = airtime(size, LinkConfig(att_mtu=row.att_mtu, ll_pdu=row.ll_pdu))
        modeled = transfer_energy(budget, FITTED_RADIO_PROFILE, gamma, as_receiver)
        errors.append(abs(modeled / row.e_emp_uj - 1.0))
    assert len(errors) == 48
    assert 100 * max(errors) == pytest.approx(17.31, abs=0.01)
    assert 100 * sum(errors) / len(errors) == pytest.approx(5.81, abs=0.01)


def test_fit_reproduces_shipped_profile_exactly(reference_rows):
    # The minimax optimum on the bundled table is a segment; the least-total-
    # current end is the shipped profile.
    p, d = fit_radio_currents(reference_rows).profile, FITTED_RADIO_PROFILE
    assert p.i_tx == pytest.approx(d.i_tx, rel=1e-12)
    assert p.i_rx == pytest.approx(d.i_rx, rel=1e-12)
    assert p.i_ifs == pytest.approx(d.i_ifs, rel=1e-12)


@pytest.mark.parametrize("design,least", [
    ([[1.0, 2.0], [2.0, 4.0], [1.5, 3.0]], [0.0, 1 / 3]),
    ([[2.0, 1.0], [4.0, 2.0], [3.0, 1.5]], [1 / 3, 0.0]),
])
def test_chebyshev_polish_breaks_ties_to_least_total_current(design, least):
    # Every x >= 0 with x1 + 2*x2 = 2/3 (x2 + 2*x1 in the second case) reaches
    # the minimax residual 1/3; the least total current is one end.
    x = _chebyshev_polish(design, [1.0] * 3)
    assert x == pytest.approx(least, abs=1e-12)


def test_chebyshev_polish_skips_near_zero_pivots():
    # A degenerate design on which rounding leaves a 9.5e-12 entry where the
    # tableau holds an exact zero. Pivoting on it blows the row up by 1e11 and
    # sends Bland's rule cycling; the answer is HiGHS' two-stage optimum.
    a = 1 / 128
    design = ([[a, a, 45 / 512]] + [[a, a, a]] * 4
              + [[a, 1 / 16, a], [a, 1 / 16, 1 / 256], [a, a, a], [1 / 16, a, a], [a, a, a],
                 [a, a, 46 / 512]]
              + [[a, a, a]] * 13 + [[a, 3 / 128, a]])
    target = [1 / 512, 1 / 128] + [1 / 512] * 22 + [1e-4]
    x = _chebyshev_polish(design, target)
    assert min(x) >= 0.0
    worst = max(abs(_dot(d, x) / t - 1.0) for d, t in zip(design, target))
    assert worst == pytest.approx(0.97472353870458, rel=1e-9)
    assert sum(x) == pytest.approx(0.0252764612954, rel=1e-9)


def test_fit_that_runs_out_of_pivots_is_an_error(reference_rows, monkeypatch):
    # The simplex never hands back an answer it did not finish.
    monkeypatch.setattr(energy, "_PIVOTS_PER_COLUMN", 0)
    with pytest.raises(SingularSystem, match="did not finish within 0 simplex pivots"):
        fit_radio_currents(reference_rows)


def _draw_problem(data, n, k):
    """A design and target, as numpy arrays, whose entries span the spread of
    the bundled fit (volt-seconds against joules) and two decades more."""
    np = pytest.importorskip("numpy")
    from hypothesis.extra.numpy import arrays
    design = data.draw(arrays(np.float64, (n, k), elements=st.floats(1e-3, 1e-1)))
    target = data.draw(arrays(np.float64, n, elements=st.floats(1e-4, 1e-2)))
    return np, design, target


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 60), st.integers(2, 3), st.data())
def test_chebyshev_polish_matches_highs(n, k, data):
    # HiGHS solves the same LP in two stages: the minimax residual, then the
    # least total current at that residual.
    optimize = pytest.importorskip("scipy.optimize")
    np, design, target = _draw_problem(data, n, k)
    x = np.asarray(_chebyshev_polish(design.tolist(), target.tolist()))
    assert (x >= 0).all()

    rel = design / target[:, None]
    a_ub = np.vstack([np.hstack([rel, -np.ones((n, 1))]),
                      np.hstack([-rel, -np.ones((n, 1))])])
    b_ub = np.hstack([np.ones(n), -np.ones(n)])
    stage1 = optimize.linprog(np.r_[np.zeros(k), 1.0], A_ub=a_ub, b_ub=b_ub,
                              bounds=[(0, None)] * (k + 1), method="highs")
    assert stage1.success
    z_star = stage1.x[-1]
    stage2 = optimize.linprog(np.r_[np.ones(k), 0.0], A_ub=a_ub, b_ub=b_ub,
                              bounds=[(0, None)] * k + [(0, z_star)], method="highs",
                              options={"presolve": False})
    assert stage2.success
    assert np.abs(rel @ x - 1.0).max() == pytest.approx(z_star, rel=1e-9, abs=1e-12)
    assert x.sum() <= stage2.fun * (1 + 1e-9)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 60), st.integers(2, 3), st.booleans(), st.integers(-3, 3), st.data())
def test_rank_test_matches_matrix_rank(n, k, deficient, power, data):
    # A deficient design repeats its first column, scaled by a power of two so
    # the copy is exact; a full-rank one must keep its smallest singular value
    # far above numpy's rank tolerance, so that the decision is not a toss-up.
    np, design, _ = _draw_problem(data, n, k)
    if deficient:
        design[:, -1] = design[:, 0] * 2.0 ** power
    s = np.linalg.svd(design, compute_uv=False)
    assume(deficient or s[-1] > 1e-6 * s[0])
    full = np.linalg.matrix_rank(design) == k
    assert full != deficient
    if full:
        _require_full_rank(design.tolist())
    else:
        with pytest.raises(SingularSystem, match="rank deficient"):
            _require_full_rank(design.tolist())


def _synthetic_rows(profile: RadioProfile):
    rows = []
    for name in MLKEM:
        scheme = lookup_scheme(name)
        for att, ll in REFERENCE_GRID:
            cfg = LinkConfig(att_mtu=att, ll_pdu=ll)
            for op, artifact, recv in (("Notify_PK", scheme.pk_size, False),
                                       ("Write_CT", scheme.ct_size, True)):
                e = comm_energy(airtime(artifact, cfg), profile, as_receiver=recv)
                rows.append(ReferenceEnergyRow(scheme=name, att_mtu=att, ll_pdu=ll,
                                               op=op, e_theor_uj=e, e_emp_uj=e,
                                               delta=0.0))
    return rows


def test_fit_recovers_synthetic_profile_exactly():
    truth = make_profile(i_tx=6.2e-3, i_rx=5.9e-3, i_ifs=2.8e-3)
    fitted = fit_radio_currents(_synthetic_rows(truth)).profile
    assert fitted.i_tx == pytest.approx(truth.i_tx, rel=1e-6)
    assert fitted.i_rx == pytest.approx(truth.i_rx, rel=1e-6)
    assert fitted.i_ifs == pytest.approx(truth.i_ifs, rel=1e-6)


def test_fit_without_ifs_term_is_strictly_worse(reference_rows):
    # Without its IFS column the gap time falls to the tx and rx currents,
    # and the best worst-case residual they reach is strictly larger.
    target = [r.e_theor_uj * 1e-6 for r in reference_rows]

    def worst(design):
        x = _chebyshev_polish(design, target)
        return max(abs(_dot(d, x) / t - 1.0) for d, t in zip(design, target))

    with_ifs = _design_matrix(reference_rows)
    without = [row[:2] for row in with_ifs]
    assert worst(with_ifs) == fit_radio_currents(reference_rows).max_abs_rel_err
    assert worst(without) > worst(with_ifs)


def test_fit_rejects_rank_deficient_rows(reference_rows):
    same_cell = [r for r in reference_rows
                 if (r.scheme, r.att_mtu, r.ll_pdu, r.op)
                 == ("ML-KEM-512", 65, 27, "Notify_PK")]
    with pytest.raises(SingularSystem):
        fit_radio_currents(same_cell * 3)


@pytest.mark.parametrize("op", ["Notify_PK", "Write_CT"])
def test_fit_rejects_single_direction_rows(reference_rows, op):
    # Within one direction the ack time (rx for a sender, tx for a receiver)
    # and the IFS time both count link-layer PDUs, so their columns are
    # proportional and the three currents are not separable.
    with pytest.raises(SingularSystem, match="rank deficient"):
        fit_radio_currents([r for r in reference_rows if r.op == op])


def test_fit_needs_three_rows(reference_rows):
    with pytest.raises(SingularSystem):
        fit_radio_currents(reference_rows[:2])


# Session energy

def test_session_none_zero_payload():
    assert session_energy("none", 0, LinkConfig(att_mtu=404, ll_pdu=251)) == 0.0


def test_session_ecdh_zero_payload_is_pairing_constant():
    assert session_energy("ecdh", 0, LinkConfig(att_mtu=404, ll_pdu=251)) \
        == ECDH_PAIRING_UJ


def test_session_ecdh_p256_is_the_ecdh_pairing():
    # The scheme table's ECDH-P256 row has no handshake model; as a security
    # choice it names the classical pairing.
    cfg = LinkConfig(att_mtu=404, ll_pdu=251)
    assert session_energy("ECDH-P256", 1024, cfg) == session_energy("ecdh", 1024, cfg)


def test_session_ordering_one_kib():
    cfg = LinkConfig(att_mtu=404, ll_pdu=251)
    totals = [session_energy(sec, 1024, cfg)
              for sec in ("none", "ecdh", "ml-kem-512", "ml-kem-768", "ml-kem-1024")]
    assert totals == sorted(totals)
    assert len(set(totals)) == len(totals)


def test_session_secured_payload_costs_more_than_raw():
    cfg = LinkConfig(att_mtu=404, ll_pdu=251)
    raw = session_energy("none", 1024, cfg)
    secured = session_energy("ecdh", 1024, cfg) - ECDH_PAIRING_UJ
    assert secured > raw  # 28 extra AEAD bytes on the air


def test_session_rejects_negative_payload():
    with pytest.raises(InvalidConfig):
        session_energy("none", -1, LinkConfig(att_mtu=404, ll_pdu=251))


@pytest.mark.parametrize("security", ["none", "ml-kem-512"])
@pytest.mark.parametrize("payload", [float("nan"), 10.5, 1024.0, True])
def test_session_rejects_non_integer_payload(security, payload):
    with pytest.raises(InvalidConfig, match="payload"):
        session_energy(security, payload, LinkConfig(att_mtu=404, ll_pdu=251))


@pytest.mark.parametrize("security", [None, 1, b"none", lookup_scheme("ml-kem-512")],
                         ids=["None", "int", "bytes", "param-set"])
def test_session_rejects_security_that_is_not_a_str(security):
    with pytest.raises(InvalidConfig, match="security"):
        session_energy(security, 0, LinkConfig(att_mtu=404, ll_pdu=251))


def test_session_rejects_payload_over_artifact_max():
    with pytest.raises(InvalidConfig, match="artifact_size"):
        session_energy("none", ARTIFACT_MAX + 1, LinkConfig(att_mtu=404, ll_pdu=251))
