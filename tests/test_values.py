"""The contract every value type keeps: its ``repr``, equality and hash by
field values within one class, immutability with no exception (a table is
stored as a read-only copy), ``pickle``/``copy``/``deepcopy`` round trips,
and ``replace``, which checks the new values as the constructor does.

Each expected ``repr`` below is the string the types printed when they were
frozen dataclasses, so the wide-grid digests of ``EnergyBreakdown`` and any
caller that logs a value keep the same text. The exceptions are a stored
table, which prints as ``mappingproxy({...})``, and ``FrameTrace``, which
prints the transfers the simulator stores.
"""

import copy
import inspect
import pickle

import pytest

from pqpan import (CalibrationFactors, ConsistencyError, CycleCounts, Encapsulation,
                   EnergyBreakdown, EnergyLedger, FitResult, FragmentationPlan, FrameTrace,
                   HandshakeResult, InvalidConfig, InvalidProfile, KemKeyPair, KemParamSet,
                   LinkConfig, LinkFrame, ModelConfig, PartyState, Phase, RadioProfile,
                   ReferenceEnergyRow, Role, SessionKey, TimeBudget, default_calibration,
                   load_config, pqke_total, run_handshake, send_secured_payload)
from pqpan.energy import FitRowResidual
from pqpan.sim import TraceRecord, _Transfer


def _scheme():
    return KemParamSet(name="ML-KEM-512", pk_size=800, sk_size=1632, ct_size=768, nist_level=1)


def _profile():
    return RadioProfile(voltage=3.0, i_tx=6e-3, i_rx=5e-3, i_ifs=3e-3, i_mcu=3e-3, f_mcu=64e6)


def _gamma():
    return CalibrationFactors(gamma_keygen={1: 1.27, 3: 1.38, 5: 1.62},
                              gamma_decap={1: 1.12, 3: 1.19, 5: 1.32}, gamma_comm=1.15)


def _residual():
    return FitRowResidual(scheme="ML-KEM-512", att_mtu=65, ll_pdu=27, op="Notify_PK",
                          reference_uj=100.0, modeled_uj=101.0, rel_err=0.01)


def _transfer():
    ack = (Role.CENTRAL, 0, 10, True, 8e-05, 0.00015)
    return _Transfer(op="Payload", start=1e-3, full=(ack,), n_full=2, last=(ack,))


#: type -> keyword arguments of one instance, built afresh on each call.
KWARGS = {
    LinkConfig: lambda: dict(att_mtu=65, ll_pdu=27, phy_rate=2_000_000, ifs=150e-6,
                             ifs_slots=1),
    LinkFrame: lambda: dict(payload_bytes=27, overhead_bytes=10, is_ack=False),
    FragmentationPlan: lambda: dict(frames=(LinkFrame(27), LinkFrame(0, is_ack=True)),
                                    ll_data_pdu_count=1),
    TimeBudget: lambda: dict(t_tx=1e-3, t_rx=2.5e-4, t_ifs=3e-4),
    KemParamSet: lambda: dict(name="ML-KEM-512", pk_size=800, sk_size=1632, ct_size=768,
                              nist_level=1),
    ReferenceEnergyRow: lambda: dict(scheme="ML-KEM-512", att_mtu=65, ll_pdu=27, op="Write_CT",
                                     e_theor_uj=100.0, e_emp_uj=110.0, delta=0.0909),
    CalibrationFactors: lambda: dict(gamma_keygen={1: 1.27, 3: 1.38, 5: 1.62},
                                     gamma_decap={1: 1.12, 3: 1.19, 5: 1.32}, gamma_comm=1.15),
    KemKeyPair: lambda: dict(pk=b"pk", sk=b"sk", scheme=_scheme()),
    Encapsulation: lambda: dict(ct=b"ct", ss=b"ss"),
    SessionKey: lambda: dict(key=b"key"),
    RadioProfile: lambda: dict(voltage=3, i_tx=6e-3, i_rx=5e-3, i_ifs=3e-3, i_mcu=3e-3,
                               f_mcu=64e6),
    CycleCounts: lambda: dict(keygen=1, encap=2, decap=3),
    EnergyBreakdown: lambda: dict(e_keygen=1.0, e_decap=2.0, e_notify_pk=3.0, e_write_ct=4.0,
                                  adj_keygen=1.5, adj_decap=2.5, adj_notify_pk=3.5,
                                  adj_write_ct=4.5, e_total=12.5, comm_share=0.64,
                                  e_encap=0.5, adj_encap=0.5),
    FitRowResidual: lambda: dict(scheme="ML-KEM-512", att_mtu=65, ll_pdu=27, op="Notify_PK",
                                 reference_uj=100.0, modeled_uj=101.0, rel_err=0.01),
    FitResult: lambda: dict(profile=_profile(), residuals=(_residual(),),
                            max_abs_rel_err=0.01, mean_abs_rel_err=0.01),
    TraceRecord: lambda: dict(time_s=1e-3, sender=Role.CENTRAL, payload_bytes=0,
                              overhead_bytes=10, is_ack=True, op="Payload"),
    FrameTrace: lambda: dict(parts=(_transfer(),), clock=0.00123),
    PartyState: lambda: dict(role=Role.PERIPHERAL, scheme=_scheme(), phase=Phase.ESTABLISHED,
                             keypair=KemKeyPair(b"pk", b"sk", _scheme()), peer_pk=None,
                             session_key=SessionKey(b"key")),
    EnergyLedger: lambda: dict(peripheral={"keygen": 1.0}, central={"encap": 2.0}),
    HandshakeResult: lambda: dict(peripheral=PartyState(Role.PERIPHERAL, _scheme()),
                                  central=PartyState(Role.CENTRAL, _scheme()),
                                  trace=FrameTrace(parts=(), clock=0.0),
                                  ledger=EnergyLedger({}, {}), cfg=LinkConfig(65, 27),
                                  profile=_profile(), gamma=_gamma()),
    ModelConfig: lambda: dict(profile=_profile(), gamma=_gamma(),
                              cycles={"ML-KEM-512": CycleCounts(1, 2, 3)},
                              link=LinkConfig(23, 27), kem_backend="real"),
}

_SCHEME_REPR = ("KemParamSet(name='ML-KEM-512', pk_size=800, sk_size=1632, ct_size=768, "
                "nist_level=1)")
_PROFILE_REPR = ("RadioProfile(voltage=3.0, i_tx=0.006, i_rx=0.005, i_ifs=0.003, i_mcu=0.003, "
                 "f_mcu=64000000.0)")
_GAMMA_REPR = ("CalibrationFactors(gamma_keygen=mappingproxy({1: 1.27, 3: 1.38, 5: 1.62}), "
               "gamma_decap=mappingproxy({1: 1.12, 3: 1.19, 5: 1.32}), gamma_comm=1.15)")

_LINK_REPR = "LinkConfig(att_mtu={}, ll_pdu=27, phy_rate=1000000.0, ifs=0.00015, ifs_slots=2)"
_RESIDUAL_REPR = ("FitRowResidual(scheme='ML-KEM-512', att_mtu=65, ll_pdu=27, op='Notify_PK', "
                  "reference_uj=100.0, modeled_uj=101.0, rel_err=0.01)")
_PARTY_REPR = ("PartyState(role=<Role.{}: '{}'>, scheme=" + _SCHEME_REPR
               + ", phase=<Phase.IDLE: 'Idle'>, keypair=None, peer_pk=None, session_key=None)")

REPRS = {
    # An int phy_rate is stored as a float; an int voltage is kept as given.
    LinkConfig: ("LinkConfig(att_mtu=65, ll_pdu=27, phy_rate=2000000.0, ifs=0.00015, "
                 "ifs_slots=1)"),
    LinkFrame: "LinkFrame(payload_bytes=27, overhead_bytes=10, is_ack=False)",
    FragmentationPlan: (
        "FragmentationPlan(frames=(LinkFrame(payload_bytes=27, overhead_bytes=10, is_ack=False), "
        "LinkFrame(payload_bytes=0, overhead_bytes=10, is_ack=True)), ll_data_pdu_count=1)"),
    TimeBudget: "TimeBudget(t_tx=0.001, t_rx=0.00025, t_ifs=0.0003)",
    KemParamSet: _SCHEME_REPR,
    ReferenceEnergyRow: ("ReferenceEnergyRow(scheme='ML-KEM-512', att_mtu=65, ll_pdu=27, "
                         "op='Write_CT', e_theor_uj=100.0, e_emp_uj=110.0, delta=0.0909)"),
    CalibrationFactors: _GAMMA_REPR,
    KemKeyPair: f"KemKeyPair(pk=b'pk', sk=b'sk', scheme={_SCHEME_REPR})",
    Encapsulation: "Encapsulation(ct=b'ct', ss=b'ss')",
    SessionKey: "SessionKey(key=b'key')",
    RadioProfile: ("RadioProfile(voltage=3, i_tx=0.006, i_rx=0.005, i_ifs=0.003, i_mcu=0.003, "
                   "f_mcu=64000000.0)"),
    CycleCounts: "CycleCounts(keygen=1, encap=2, decap=3)",
    EnergyBreakdown: (
        "EnergyBreakdown(e_keygen=1.0, e_decap=2.0, e_notify_pk=3.0, e_write_ct=4.0, "
        "adj_keygen=1.5, adj_decap=2.5, adj_notify_pk=3.5, adj_write_ct=4.5, e_total=12.5, "
        "comm_share=0.64, e_encap=0.5, adj_encap=0.5)"),
    FitRowResidual: _RESIDUAL_REPR,
    FitResult: (f"FitResult(profile={_PROFILE_REPR}, residuals=({_RESIDUAL_REPR},), "
                "max_abs_rel_err=0.01, mean_abs_rel_err=0.01)"),
    TraceRecord: ("TraceRecord(time_s=0.001, sender=<Role.CENTRAL: 'central'>, payload_bytes=0, "
                  "overhead_bytes=10, is_ack=True, op='Payload')"),
    FrameTrace: ("FrameTrace(_parts=(_Transfer(op='Payload', start=0.001, full=("
                 "(<Role.CENTRAL: 'central'>, 0, 10, True, 8e-05, 0.00015),), n_full=2, last=("
                 "(<Role.CENTRAL: 'central'>, 0, 10, True, 8e-05, 0.00015),), "
                 "clock=0.0016899999999999999),), clock=0.00123)"),
    PartyState: (
        f"PartyState(role=<Role.PERIPHERAL: 'peripheral'>, scheme={_SCHEME_REPR}, "
        f"phase=<Phase.ESTABLISHED: 'Established'>, keypair=KemKeyPair(pk=b'pk', sk=b'sk', "
        f"scheme={_SCHEME_REPR}), peer_pk=None, session_key=SessionKey(key=b'key'))"),
    EnergyLedger: ("EnergyLedger(peripheral=mappingproxy({'keygen': 1.0}), "
                   "central=mappingproxy({'encap': 2.0}))"),
    HandshakeResult: (
        f"HandshakeResult(peripheral={_PARTY_REPR.format('PERIPHERAL', 'peripheral')}, "
        f"central={_PARTY_REPR.format('CENTRAL', 'central')}, "
        "trace=FrameTrace(_parts=(), clock=0.0), "
        "ledger=EnergyLedger(peripheral=mappingproxy({}), central=mappingproxy({})), "
        f"cfg={_LINK_REPR.format(65)}, profile={_PROFILE_REPR}, gamma={_GAMMA_REPR})"),
    ModelConfig: (
        f"ModelConfig(profile={_PROFILE_REPR}, gamma={_GAMMA_REPR}, "
        "cycles=mappingproxy({'ML-KEM-512': CycleCounts(keygen=1, encap=2, decap=3)}), "
        f"link={_LINK_REPR.format(23)}, kem_backend='real')"),
}

#: A payload trace as the simulator stores it: one transfer, no full SDU and
#: a last SDU of four frames.
PAYLOAD_TRACE_REPR = (
    "FrameTrace(_parts=(_Transfer(op='Payload', start=0.04941999999999978, full=(), "
    "n_full=0, last=("
    "(<Role.PERIPHERAL: 'peripheral'>, 27, 10, False, 0.000296, 0.00015), "
    "(<Role.CENTRAL: 'central'>, 0, 10, True, 8e-05, 0.00015), "
    "(<Role.PERIPHERAL: 'peripheral'>, 8, 10, False, 0.000144, 0.00015), "
    "(<Role.CENTRAL: 'central'>, 0, 10, True, 8e-05, 0.00015)), "
    "clock=0.050619999999999755),), clock=0.050619999999999755)")

#: Types whose hash fails, as a frozen dataclass's did, because a field is a
#: table, which is stored as a read-only mapping.
UNHASHABLE = (CalibrationFactors, EnergyLedger, HandshakeResult, ModelConfig)

TYPES = pytest.mark.parametrize("cls", list(KWARGS), ids=lambda cls: cls.__name__)
CLONES = pytest.mark.parametrize(
    "clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"])


def _new(cls):
    """An instance of ``cls``; each call builds its fields afresh."""
    return cls(**KWARGS[cls]())


def _payload_trace():
    session = run_handshake("ml-kem-512", LinkConfig(65, 27), seed=3)
    return send_secured_payload(session, b"")[0]


@TYPES
def test_repr_is_the_dataclass_repr(cls):
    assert repr(_new(cls)) == REPRS[cls]


def test_simulated_trace_repr_is_the_dataclass_repr():
    assert repr(_payload_trace()) == PAYLOAD_TRACE_REPR


@TYPES
def test_equal_values_compare_equal_and_hash_alike(cls):
    a, b = _new(cls), _new(cls)
    assert a == b and not a != b and a is not b
    assert a != object() and (a == object()) is False
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@TYPES
def test_other_class_with_the_same_fields_compares_unequal(cls):
    twin_cls = type(cls.__name__, (cls,), {})
    a, twin = _new(cls), twin_cls(**KWARGS[cls]())
    assert repr(a) == repr(twin)
    assert a != twin and twin != a
    assert not a == twin and not twin == a


@TYPES
def test_fields_cannot_be_assigned_or_deleted(cls):
    a = _new(cls)
    field, value = next(iter(KWARGS[cls]().items()))
    before = repr(a)
    for name in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == before


@TYPES
@CLONES
def test_pickle_copy_and_deepcopy_round_trip(cls, clone):
    a = _new(cls)
    b = clone(a)
    assert type(b) is cls and b == a and repr(b) == repr(a)


@CLONES
def test_simulated_trace_round_trips(clone):
    trace = _payload_trace()
    other = clone(trace)
    assert repr(other) == PAYLOAD_TRACE_REPR
    assert other == trace and hash(other) == hash(trace)
    assert other.clock == trace.clock and other.to_jsonl() == trace.to_jsonl()


#: type -> (field, a value its constructor refuses, the error it raises)
REFUSED = {
    LinkConfig: ("att_mtu", 518, InvalidConfig),
    LinkFrame: ("payload_bytes", -1, InvalidConfig),
    KemParamSet: ("pk_size", 0, ConsistencyError),
    CalibrationFactors: ("gamma_comm", 0.5, ConsistencyError),
    RadioProfile: ("voltage", 0.0, InvalidProfile),
    CycleCounts: ("keygen", -1, InvalidProfile),
}


@TYPES
def test_replace_without_changes_is_an_equal_copy(cls):
    a = _new(cls)
    b = a.replace()
    assert type(b) is cls and b == a and repr(b) == repr(a)
    with pytest.raises(TypeError, match="no_such_field"):
        a.replace(no_such_field=1)


@pytest.mark.parametrize("cls", list(REFUSED), ids=lambda cls: cls.__name__)
def test_replace_checks_the_new_value_as_the_constructor_does(cls):
    field, value, error = REFUSED[cls]
    with pytest.raises(error, match=field):
        cls(**{**KWARGS[cls](), field: value})
    with pytest.raises(error, match=field):
        _new(cls).replace(**{field: value})


def test_replace_stores_what_the_constructor_stores():
    cfg = LinkConfig(65, 27).replace(ll_pdu=251, phy_rate=2_000_000)
    assert cfg == LinkConfig(65, 251, 2e6)
    assert type(cfg.phy_rate) is float
    with pytest.raises(InvalidConfig, match="att_mtu"):
        LinkConfig(65, 27).replace(att_mtu=518)
    trace = _payload_trace()
    later = trace.replace(clock=1.0)
    assert later.clock == 1.0 and later.to_jsonl() == trace.to_jsonl()


def _session_with_payload():
    session = run_handshake("ml-kem-512", LinkConfig(65, 27), seed=3)
    return session.replace(trace=session.trace + send_secured_payload(session, bytes(100))[0])


#: Values as the package builds them, each built afresh on each call.
BUILT = {"load_config": load_config, "default_calibration": default_calibration,
         "handshake with payload": _session_with_payload}


@pytest.mark.parametrize("build", list(BUILT.values()), ids=list(BUILT))
@CLONES
def test_built_values_round_trip(build, clone):
    a = build()
    b = clone(a)
    assert type(b) is type(a) and b == a and repr(b) == repr(a)


def test_callers_tables_are_copied_and_stored_read_only():
    factors = {1: 1.27, 3: 1.38, 5: 1.62}
    gamma = CalibrationFactors(factors, factors, 1.15)
    cycles = {"ML-KEM-512": CycleCounts(1, 2, 3)}
    cfg = ModelConfig(_profile(), gamma, cycles, LinkConfig(23, 27))
    peripheral, central = {"keygen": 1.0}, {"encap": 2.0}
    ledger = EnergyLedger(peripheral, central)
    before = repr((gamma, cfg, ledger))
    cell = LinkConfig(65, 27)
    energy = pqke_total("ml-kem-512", cell, gamma=gamma)

    factors[1] = -5.0
    cycles["ML-KEM-512"] = CycleCounts(4, 5, 6)
    peripheral["keygen"] = -1.0
    central.clear()
    assert repr((gamma, cfg, ledger)) == before
    assert pqke_total("ml-kem-512", cell, gamma=gamma) == energy
    for table in (gamma.gamma_keygen, gamma.gamma_decap, cfg.cycles, ledger.peripheral,
                  ledger.central):
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = table[key]
        with pytest.raises(TypeError):
            del table[key]


#: type -> its constructor's signature without annotations: parameter names,
#: order, kinds and defaults. The types that only store their fields get a
#: generated ``__init__``; this pins it to the one that was written by hand.
SIGNATURES = {
    LinkConfig: "(att_mtu, ll_pdu, phy_rate=1000000.0, ifs=0.00015, ifs_slots=2)",
    LinkFrame: "(payload_bytes, overhead_bytes=10, is_ack=False)",
    FragmentationPlan: "(frames, ll_data_pdu_count)",
    TimeBudget: "(t_tx, t_rx, t_ifs)",
    KemParamSet: "(name, pk_size, sk_size, ct_size, nist_level=None)",
    ReferenceEnergyRow: "(scheme, att_mtu, ll_pdu, op, e_theor_uj, e_emp_uj, delta)",
    CalibrationFactors: "(gamma_keygen, gamma_decap, gamma_comm)",
    KemKeyPair: "(pk, sk, scheme)",
    Encapsulation: "(ct, ss)",
    SessionKey: "(key)",
    RadioProfile: "(voltage, i_tx, i_rx, i_ifs, i_mcu, f_mcu=64000000.0)",
    CycleCounts: "(keygen, encap, decap)",
    EnergyBreakdown: ("(e_keygen, e_decap, e_notify_pk, e_write_ct, adj_keygen, adj_decap, "
                      "adj_notify_pk, adj_write_ct, e_total, comm_share, e_encap=None, "
                      "adj_encap=None)"),
    FitRowResidual: "(scheme, att_mtu, ll_pdu, op, reference_uj, modeled_uj, rel_err)",
    FitResult: "(profile, residuals, max_abs_rel_err, mean_abs_rel_err)",
    TraceRecord: "(time_s, sender, payload_bytes, overhead_bytes, is_ack, op)",
    _Transfer: "(op, start, full, n_full, last)",
    FrameTrace: "(parts=(), clock=0.0)",
    PartyState: ("(role, scheme, phase=<Phase.IDLE: 'Idle'>, keypair=None, peer_pk=None, "
                 "session_key=None)"),
    EnergyLedger: "(peripheral, central)",
    HandshakeResult: "(peripheral, central, trace, ledger, cfg, profile, gamma)",
    ModelConfig: "(profile, gamma, cycles, link, kem_backend='stub')",
}


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda cls: cls.__name__)
def test_constructor_signature_is_pinned(cls):
    signature = inspect.signature(cls)
    params = [p.replace(annotation=inspect.Parameter.empty)
              for p in signature.parameters.values()]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    assert str(signature.replace(parameters=params,
                                 return_annotation=inspect.Signature.empty)) == SIGNATURES[cls]
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


def test_constructor_refuses_a_missing_field_and_an_unknown_keyword():
    # Python's own errors, as from any function that takes these parameters.
    with pytest.raises(TypeError, match=r"missing 1 required positional argument: 't_ifs'"):
        TimeBudget(1e-3, 2.5e-4)
    with pytest.raises(TypeError, match=r"unexpected keyword argument 't_idle'"):
        TimeBudget(1e-3, 2.5e-4, 3e-4, t_idle=0.0)
    with pytest.raises(TypeError, match=r"takes from 3 to 7 positional arguments"):
        PartyState(Role.CENTRAL, _scheme(), Phase.IDLE, None, None, None, None)
    assert PartyState(Role.CENTRAL, _scheme()).phase is Phase.IDLE
    assert EnergyBreakdown(*range(10)).e_encap is None
