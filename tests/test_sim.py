import json
import math
import sys
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pqpan.energy
import pqpan.kem
import pqpan.link
import pqpan.sim
from pqpan import (AEAD_OVERHEAD_BYTES, ConsistencyError, FrameTrace, InvalidConfig,
                   InvalidProfile, LinkConfig, NotEstablished, Phase, Role, UnknownScheme,
                   UnsupportedScheme,
                   derive_session_key, lookup_scheme, plan_transfer, pqke_total,
                   run_handshake, send_secured_payload)
from pqpan.sim import OP_PAYLOAD, TraceRecord, _Transfer
from chunking_oracle import byte_stream_frames

CFG_DEFAULT = LinkConfig(att_mtu=65, ll_pdu=27)
CFG_DLE = LinkConfig(att_mtu=404, ll_pdu=251)


def test_handshake_establishes_and_agrees():
    r = run_handshake("ml-kem-512", CFG_DEFAULT, seed=1)
    assert r.peripheral.phase is Phase.ESTABLISHED
    assert r.central.phase is Phase.ESTABLISHED
    assert r.peripheral.session_key.key == r.central.session_key.key


def test_peripheral_key_comes_from_its_own_decapsulation(monkeypatch):
    # A decapsulation that recovers another secret must leave the two
    # parties with different keys, so a mismatch can show in the ledger.
    monkeypatch.setattr(pqpan.kem, "decapsulate", lambda *args: bytes(32))
    r = run_handshake("ml-kem-512", CFG_DEFAULT, seed=1)
    assert r.peripheral.session_key == derive_session_key(bytes(32))
    assert r.peripheral.session_key != r.central.session_key


def test_trace_frame_counts_match_plans():
    r = run_handshake("ml-kem-512", CFG_DEFAULT, seed=2)
    assert r.trace.data_frame_count("Notify_PK") == 39
    assert r.trace.data_frame_count("Write_CT") == 38
    assert r.trace.data_frame_count() == 77
    assert r.trace.ack_count() == 77


@pytest.mark.parametrize("scheme", ["ml-kem-512", "ml-kem-768", "ml-kem-1024"])
def test_trace_equals_plan_union(scheme):
    r = run_handshake(scheme, CFG_DEFAULT, seed=3)
    plan_frames = [(f.payload_bytes, f.is_ack) for _, size, _ in lookup_scheme(scheme).transfers()
                   for f in plan_transfer(size, CFG_DEFAULT).frames]
    trace_frames = [(rec.payload_bytes, rec.is_ack) for rec in r.trace.records]
    assert sorted(trace_frames) == sorted(plan_frames)


@given(st.sampled_from(["ml-kem-512", "ml-kem-768", "ml-kem-1024"]),
       st.integers(min_value=23, max_value=517), st.integers(min_value=27, max_value=251),
       st.integers(min_value=0, max_value=4096))
@settings(max_examples=40, deadline=None)
def test_trace_records_follow_the_oracle_frames(scheme, att, ll, payload):
    # Each transfer's records are the oracle's data frames in order, every
    # one answered by an empty ack from the other party.
    r = run_handshake(scheme, LinkConfig(att_mtu=att, ll_pdu=ll))
    delta, _ = send_secured_payload(r, bytes(payload))
    sizes = {op: size for op, size, _ in lookup_scheme(scheme).transfers()}
    sizes[OP_PAYLOAD] = payload + AEAD_OVERHEAD_BYTES
    for op, size in sizes.items():
        records = [rec for rec in r.trace.records + delta.records if rec.op == op]
        data, acks = records[::2], records[1::2]
        assert [rec.payload_bytes for rec in data] == byte_stream_frames(size, att, ll)
        assert len(acks) == len(data) and len({rec.sender for rec in data}) == 1
        assert all(not d.is_ack and a.is_ack and a.payload_bytes == 0 and a.sender is not d.sender
                   for d, a in zip(data, acks))


@given(st.sampled_from(["ml-kem-512", "ml-kem-768", "ml-kem-1024"]),
       st.integers(min_value=23, max_value=517), st.integers(min_value=27, max_value=251),
       st.integers(min_value=0, max_value=4096))
@settings(max_examples=40, deadline=None)
def test_frame_counts_equal_the_records_they_count(scheme, att, ll, payload):
    # The counts read the run-length form; the records walk it frame by frame.
    r = run_handshake(scheme, LinkConfig(att_mtu=att, ll_pdu=ll))
    trace = r.trace + send_secured_payload(r, bytes(payload))[0]
    for op in (None, "Notify_PK", "Write_CT", OP_PAYLOAD):
        records = [rec for rec in trace.records if op is None or rec.op == op]
        assert trace.data_frame_count(op) == sum(not rec.is_ack for rec in records)
        assert trace.ack_count(op) == sum(rec.is_ack for rec in records)


def test_replay_determinism():
    a = run_handshake("ml-kem-768", CFG_DEFAULT, seed=7)
    b = run_handshake("ml-kem-768", CFG_DEFAULT, seed=7)
    assert a.trace == b.trace
    assert a.ledger.peripheral == b.ledger.peripheral
    assert a.ledger.central == b.ledger.central
    assert a.peripheral.session_key == b.peripheral.session_key
    c = run_handshake("ml-kem-768", CFG_DEFAULT, seed=8)
    assert c.peripheral.session_key != a.peripheral.session_key


def test_ledger_reconciles_with_analytical_model():
    r = run_handshake("ml-kem-1024", CFG_DLE, seed=4)
    analytic = pqke_total("ml-kem-1024", CFG_DLE)
    assert abs(r.ledger.peripheral_pqke_total() - analytic.e_total) \
        <= 1e-6 * analytic.e_total


def trace_energy(records, cfg, profile, gamma_comm):
    """Calibrated radio uJ per (party, op), from the trace records alone."""
    air = defaultdict(float)  # (party, op, party is sending) -> seconds
    n_data = Counter()
    for rec in records:
        t = 8.0 * (rec.payload_bytes + rec.overhead_bytes) / cfg.phy_rate
        other = Role.CENTRAL if rec.sender is Role.PERIPHERAL else Role.PERIPHERAL
        air[rec.sender, rec.op, True] += t
        air[other, rec.op, False] += t
        n_data[rec.op] += not rec.is_ack
    return {(party, op): gamma_comm * 1e6 * profile.voltage * (
                profile.i_tx * air[party, op, True] + profile.i_rx * air[party, op, False]
                + profile.i_ifs * cfg.ifs_slots * n_data[op] * cfg.ifs)
            for party in Role for op in n_data}


@given(st.sampled_from(["ml-kem-512", "ml-kem-768", "ml-kem-1024"]),
       st.integers(min_value=23, max_value=517), st.integers(min_value=27, max_value=251),
       st.sampled_from([1, 2]), st.integers(min_value=0, max_value=4096))
@settings(max_examples=60, deadline=None)
def test_ledger_equals_energy_rederived_from_trace(scheme, att, ll, slots, payload):
    # Independent of the link and energy modules: only the trace and the
    # profile go in, so the check cannot pass by calling the same functions.
    cfg = LinkConfig(att_mtu=att, ll_pdu=ll, ifs_slots=slots)
    r = run_handshake(scheme, cfg)
    delta, e_payload = send_secured_payload(r, bytes(payload))
    derived = trace_energy(r.trace.records + delta.records, cfg, r.profile,
                           r.gamma.gamma_comm)
    reported = {(Role.PERIPHERAL, "Notify_PK"): r.ledger.peripheral["notify_pk"],
                (Role.PERIPHERAL, "Write_CT"): r.ledger.peripheral["write_ct"],
                (Role.CENTRAL, "Notify_PK"): r.ledger.central["notify_pk"],
                (Role.CENTRAL, "Write_CT"): r.ledger.central["write_ct"],
                (Role.PERIPHERAL, OP_PAYLOAD): e_payload}
    for key, value in reported.items():
        assert value == pytest.approx(derived[key], rel=1e-9, abs=0), key


def test_ledger_comm_terms_match_reference_cell(fit_result):
    # ML-KEM-768 at ATT 404 / LL 251: calibrated transfer entries are
    # 1.15x the reference energies 217.81 and 199.06 within fit tolerance.
    r = run_handshake("ml-kem-768", CFG_DLE, seed=5, profile=fit_result.profile)
    assert r.ledger.peripheral["notify_pk"] == pytest.approx(1.15 * 217.81, rel=0.02)
    assert r.ledger.peripheral["write_ct"] == pytest.approx(1.15 * 199.06, rel=0.02)


def test_virtual_time_strictly_increasing_with_ifs_gaps():
    r = run_handshake("ml-kem-512", CFG_DEFAULT, seed=6)
    times = [rec.time_us for rec in r.trace.records]
    assert all(b > a for a, b in zip(times, times[1:]))
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert min(gaps) >= CFG_DEFAULT.ifs * 1e6


def test_trace_jsonl_export():
    r = run_handshake("ml-kem-512", LinkConfig(att_mtu=404, ll_pdu=251), seed=9)
    lines = r.trace.to_jsonl().strip().splitlines()
    assert len(lines) == len(r.trace.records)
    first = json.loads(lines[0])
    assert set(first) == {"time_us", "dir", "payload_B", "overhead_B", "op", "is_ack"}
    assert first["dir"] == "p->c" and first["op"] == "Notify_PK"
    ack = json.loads(lines[1])
    assert ack["is_ack"] and ack["dir"] == "c->p"


def reference_jsonl(trace):
    return "".join(json.dumps(r.as_dict()) + "\n" for r in trace.records)


@given(st.sampled_from(["ml-kem-512", "ml-kem-768", "ml-kem-1024"]),
       st.integers(min_value=23, max_value=517), st.integers(min_value=27, max_value=251),
       st.sampled_from([1, 2]), st.integers(min_value=0, max_value=4096))
@settings(max_examples=40, deadline=None)
def test_to_jsonl_equals_json_dumps_of_records(scheme, att, ll, slots, payload):
    r = run_handshake(scheme, LinkConfig(att_mtu=att, ll_pdu=ll, ifs_slots=slots))
    delta, _ = send_secured_payload(r, bytes(payload))
    for trace in (r.trace, delta):
        assert trace.to_jsonl() == reference_jsonl(trace)


@pytest.mark.parametrize("time_us", [0.0, 1e-300, 1e300, sys.float_info.max, float("inf"),
                                     float("nan")])
def test_to_jsonl_formats_any_float_like_json(time_us):
    ack = (0.0, (Role.CENTRAL, 0, 10, True))
    transfer = _Transfer('op "quoted" \u00e9', time_us, (ack,), 2, (ack,), 230.0,
                         time_us + 2 * 230.0 + 230.0)
    if not math.isfinite(time_us):
        # No trace holds a clock that is not finite, so no line holds such a time.
        with pytest.raises(InvalidConfig, match="clock_us"):
            FrameTrace((transfer,), transfer.clock)
        with pytest.raises(InvalidConfig, match="clock_us"):
            FrameTrace((), time_us)
        return
    trace = FrameTrace((transfer,), transfer.clock)
    assert trace.to_jsonl() == reference_jsonl(trace)
    assert FrameTrace().to_jsonl() == reference_jsonl(FrameTrace()) == ""
    # A payload sent on a session whose clock stands at time_us.
    session = run_handshake("ml-kem-512", CFG_DLE, seed=19)
    session = session.replace(trace=FrameTrace((), time_us))
    delta, _ = send_secured_payload(session, bytes(10))
    assert delta.to_jsonl() == reference_jsonl(delta)


@pytest.mark.parametrize("clock_us", [float("nan"), float("inf"), -1.0, True, "junk", None],
                         ids=repr)
def test_trace_clock_is_a_finite_number_at_least_zero(clock_us):
    with pytest.raises(InvalidConfig, match="clock_us"):
        FrameTrace((), clock_us)
    session = run_handshake("ml-kem-512", CFG_DLE, seed=19)
    with pytest.raises(InvalidConfig, match="clock_us"):
        session.trace.replace(clock_us=clock_us)
    assert FrameTrace((), 0).clock_us == 0.0 and type(FrameTrace((), 7).clock_us) is float


@pytest.mark.parametrize("parts", [("x",), [], None, (FrameTrace(),)],
                         ids=["a string", "a list", "None", "a trace"])
def test_trace_parts_are_a_tuple_of_transfers(parts):
    with pytest.raises(InvalidConfig, match="parts"):
        FrameTrace(parts)


@pytest.fixture
def built_records(monkeypatch):
    """A list that grows by one for each TraceRecord the simulator builds."""
    built = []

    class Counted(TraceRecord):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pqpan.sim, "TraceRecord", Counted)
    return built


def test_trace_outputs_build_no_records_until_read(built_records):
    r = run_handshake("ml-kem-1024", LinkConfig(att_mtu=23, ll_pdu=27), seed=17)
    delta, _ = send_secured_payload(r, bytes(5000))
    for trace in (r.trace, delta, r.trace + delta):
        trace.to_jsonl()
        trace.data_frame_count()
        trace.ack_count("Write_CT")
    assert built_records == []
    assert len(delta.records) == len(built_records) > 0
    assert delta.records is delta.records and len(built_records) == len(delta.records)


def test_simulate_command_builds_no_records(built_records, tmp_path):
    from pqpan.cli import main
    argv = ["simulate", "--scheme", "ml-kem-768", "--att-mtu", "65", "--ll-pdu", "27",
            "--payload", "1000", "--trace", str(tmp_path / "t.jsonl"),
            "--ledger", str(tmp_path / "l.json")]
    assert main(argv) == 0
    assert built_records == []


def test_joined_trace_is_the_concatenation():
    r = run_handshake("ml-kem-512", CFG_DEFAULT, seed=18)
    delta, _ = send_secured_payload(r, bytes(300))
    joined = r.trace + delta
    assert joined.records == r.trace.records + delta.records
    assert joined.clock_us == delta.clock_us
    assert joined.to_jsonl() == r.trace.to_jsonl() + delta.to_jsonl()
    assert joined.data_frame_count() == r.trace.data_frame_count() + delta.data_frame_count()
    assert joined.ack_count(OP_PAYLOAD) == delta.ack_count()
    # The same run joins to an equal trace, which hashes alike.
    again = run_handshake("ml-kem-512", CFG_DEFAULT, seed=18)
    rebuilt = again.trace + send_secured_payload(again, bytes(300))[0]
    assert rebuilt == joined and hash(rebuilt) == hash(joined)
    assert rebuilt != r.trace + send_secured_payload(r, bytes(301))[0]


def test_traces_of_different_links_compare_unequal():
    a = run_handshake("ml-kem-768", CFG_DEFAULT, seed=7).trace
    # Same frames under one-slot accounting, so only the times differ.
    b = run_handshake("ml-kem-768", LinkConfig(att_mtu=65, ll_pdu=27, ifs_slots=1), seed=7).trace
    c = run_handshake("ml-kem-768", CFG_DLE, seed=7).trace
    assert a != b and a != c and b != c
    assert a.replace(clock_us=a.clock_us + 1.0) != a


def test_send_secured_payload_energy_and_frames():
    r = run_handshake("ml-kem-512", CFG_DLE, seed=10)
    trace, energy = send_secured_payload(r, bytes(1024))
    # 1024 + 28 AEAD bytes under ATT 404 / LL 251: three 401/401/250 chunks,
    # each SDU spanning two frames.
    assert trace.data_frame_count("Payload") == 6
    assert energy > 0
    assert trace.records[0].time_us > r.trace.records[-1].time_us


@pytest.mark.parametrize("slots", [1, 2])
def test_gap_before_payload_equals_gap_before_ciphertext(slots):
    cfg = LinkConfig(att_mtu=65, ll_pdu=27, ifs_slots=slots)
    r = run_handshake("ml-kem-512", cfg, seed=15)
    delta, _ = send_secured_payload(r, bytes(100))
    records = r.trace.records
    first_ct = next(i for i, rec in enumerate(records) if rec.op == "Write_CT")
    gap_ct = records[first_ct].time_us - records[first_ct - 1].time_us
    gap_payload = delta.records[0].time_us - records[-1].time_us
    # The ack's 80 µs on air, plus the second 150 µs gap only under two-slot
    # accounting; on the default link every time is a whole µs, so both are exact.
    assert gap_ct == 80.0 + (slots - 1) * 150.0
    assert gap_payload == gap_ct
    assert delta.records[0].time_us == r.trace.clock_us


def test_send_secured_payload_empty_payload_still_sends_envelope():
    r = run_handshake("ml-kem-512", CFG_DLE, seed=11)
    trace, energy = send_secured_payload(r, b"")
    data = [rec for rec in trace.records if not rec.is_ack]
    assert len(data) == 1
    assert data[0].payload_bytes == 28 + 7  # AEAD envelope + SDU headers
    assert energy > 0


def test_send_secured_payload_dle_strictly_cheaper():
    r_dle = run_handshake("ml-kem-512", CFG_DLE, seed=12)
    r_base = run_handshake("ml-kem-512", LinkConfig(att_mtu=404, ll_pdu=27), seed=12)
    _, e_dle = send_secured_payload(r_dle, bytes(512))
    _, e_base = send_secured_payload(r_base, bytes(512))
    assert e_dle < e_base


def test_send_before_established_rejected():
    r = run_handshake("ml-kem-512", CFG_DLE, seed=13)
    for party in ("peripheral", "central"):
        idle = r.replace(**{party: getattr(r, party).replace(phase=Phase.IDLE)})
        with pytest.raises(NotEstablished):
            send_secured_payload(idle, b"hello")


@pytest.mark.parametrize("field,error", [
    ("peripheral", NotEstablished), ("central", NotEstablished), ("trace", NotEstablished),
    ("ledger", NotEstablished), ("cfg", InvalidConfig), ("profile", InvalidProfile),
    ("gamma", ConsistencyError)])
def test_session_field_of_the_wrong_type_is_refused_when_built(field, error):
    # Each field is checked where it is declared, so a session that
    # send_secured_payload could not use is never built; it was an AttributeError
    # there. A session's state, trace and ledger are NotEstablished.
    r = run_handshake("ml-kem-512", CFG_DLE, seed=13)
    with pytest.raises(error, match=f"^{field} must be a "):
        r.replace(**{field: None})
    with pytest.raises(error, match=f"^{field} must be a "):
        r.replace(**{field: r.ledger if field != "ledger" else r.trace})


def test_trace_added_to_a_non_trace_is_a_type_error():
    trace = run_handshake("ml-kem-512", CFG_DLE, seed=13).trace
    for other in (1, None, trace.records):
        with pytest.raises(TypeError, match="unsupported operand"):
            trace + other
        with pytest.raises(TypeError):
            other + trace


def test_send_secured_payload_plans_once(monkeypatch):
    r = run_handshake("ml-kem-512", CFG_DLE, seed=16)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return plan_transfer(*args, **kwargs)

    monkeypatch.setattr(pqpan.link, "plan_transfer", counted)  # the one caller is airtime
    send_secured_payload(r, bytes(100))
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [2 ** 63, -2 ** 63 - 1, 2 ** 70, 1.5, True, "7", bytearray(8)],
                         ids=["2^63", "-2^63-1", "2^70", "1.5", "True", "str", "bytearray"])
def test_run_handshake_rejects_bad_seed(seed):
    with pytest.raises(InvalidConfig, match="seed"):
        run_handshake("ml-kem-512", CFG_DLE, seed=seed)


@pytest.mark.parametrize("payload", [5, "abc", None, [1, 2, 3], memoryview(b"abc")],
                         ids=["int", "str", "None", "list", "memoryview"])
def test_send_secured_payload_rejects_a_payload_that_is_not_bytes(payload):
    session = run_handshake("ml-kem-512", CFG_DLE, seed=1)
    with pytest.raises(InvalidConfig, match="payload"):
        send_secured_payload(session, payload)


def test_send_secured_payload_takes_bytes_and_bytearray_alike():
    session = run_handshake("ml-kem-512", CFG_DLE, seed=1)
    frames, energy = send_secured_payload(session, b"abc")
    assert send_secured_payload(session, bytearray(b"abc")) == (frames, energy)


def test_run_handshake_scheme_that_is_not_a_str_is_unknown():
    with pytest.raises(UnknownScheme, match="unknown scheme"):
        run_handshake(123, CFG_DLE)


def test_backend_substitutability_frame_counts():
    try:
        real = run_handshake("ml-kem-768", CFG_DEFAULT, seed=14, backend="real")
    except UnsupportedScheme:
        pytest.skip("real backend unavailable")
    stub = run_handshake("ml-kem-768", CFG_DEFAULT, seed=14, backend="stub")
    assert stub.trace.data_frame_count() == real.trace.data_frame_count()
    assert stub.ledger.peripheral == real.ledger.peripheral
    assert real.peripheral.session_key.key == real.central.session_key.key
