"""Deterministic two-party handshake simulator.

A peripheral and a central execute the key-establishment protocol over an
in-memory, lossless, in-order link: the peripheral generates a key pair and
notifies the public key; the central encapsulates and writes the ciphertext
back; the peripheral decapsulates and both derive the session key, going
from Idle to Established (or raising). Every transfer, the secured payload
included, yields its timestamped frames and its ``airtime(size, cfg)``
budget; the energy ledger prices those budgets, so it reconciles exactly
with the analytical model (it introduces no cost terms of its own).

Virtual time advances by frame airtime plus inter-frame spacing only, by the
link's timing rules that the budget also sums; connection-interval idle gaps
are outside the analytical model's scope.

The trace stores each transfer run-length encoded from its link layout: its
start time, the steps of a full SDU and how often they repeat, then the steps
of the last SDU; a transfer has at most four distinct steps. Frame times are
recomputed from the start on every read, with the same two additions per
frame, so they are bit-identical. The JSONL export and the frame counts read
this form; per-frame :class:`TraceRecord` objects are built on the first read
of :attr:`FrameTrace.records` and kept. ``a + b`` joins two traces as they are.
"""

from __future__ import annotations

import enum
import hashlib
import json
from collections.abc import Mapping
from functools import cached_property
from itertools import chain, repeat
from math import isfinite
from types import MappingProxyType

from . import kem
from .energy import (AEAD_OVERHEAD_BYTES, CycleCounts, RadioProfile, handshake_breakdown,
                     handshake_inputs, transfer_energy)
from .errors import HandshakeFailure, InvalidConfig, NotEstablished, Value, int_in_range, set_field
from .link import LL_OVERHEAD, LinkConfig, airtime, sdu_layout
from .reference import CalibrationFactors, KemParamSet

OP_PAYLOAD = "Payload"
SEED_MIN, SEED_MAX = -2 ** 63, 2 ** 63 - 1  # an integer seed is packed in 8 bytes


class Role(enum.Enum):
    PERIPHERAL = "peripheral"
    CENTRAL = "central"


class Phase(enum.Enum):
    IDLE = "Idle"
    ESTABLISHED = "Established"


class PartyState(Value):
    """One party's protocol state; the simulator builds it once the handshake
    has derived every field."""

    __slots__ = ("role", "scheme", "phase", "keypair", "peer_pk", "session_key")
    _defaults = {"phase": Phase.IDLE, "keypair": None, "peer_pk": None, "session_key": None}


class TraceRecord(Value):
    """One frame on the air: start time, sender, link frame, carried op."""

    __slots__ = ("time_s", "sender", "payload_bytes", "overhead_bytes", "is_ack", "op")

    def as_dict(self) -> dict:
        return {"time_us": self.time_s * 1e6,
                "dir": "p->c" if self.sender is Role.PERIPHERAL else "c->p",
                "payload_B": self.payload_bytes, "overhead_B": self.overhead_bytes,
                "op": self.op, "is_ack": self.is_ack}


def _expand(full, n_full: int, last):
    """The items of ``full`` ``n_full`` times over, then those of ``last``."""
    return chain(chain.from_iterable(repeat(full, n_full)), last)


class _Transfer(Value):
    """One transfer's frames, run-length encoded: the steps of ``full`` repeat
    ``n_full`` times, then the steps of ``last`` follow. A step is one frame,
    (sender, payload B, overhead B, is_ack, airtime, gap), and frames that are
    alike share one step tuple. The first frame starts at ``start``, and
    ``clock`` is the time after the last frame and its gap."""

    __slots__ = ("op", "start", "full", "n_full", "last", "clock")

    def __init__(self, op: str, start: float, full: tuple[tuple, ...], n_full: int,
                 last: tuple[tuple, ...]):
        set_field(self, "op", op)
        set_field(self, "start", start)
        set_field(self, "full", full)
        set_field(self, "n_full", n_full)
        set_field(self, "last", last)
        for clock in self.times():
            pass
        set_field(self, "clock", clock)

    def __reduce__(self):  # clock is not an argument: __init__ computes it
        return _Transfer, (self.op, self.start, self.full, self.n_full, self.last)

    def steps(self):
        return _expand(self.full, self.n_full, self.last)

    def times(self):
        """Each frame's start time, then the clock after the last frame: each
        frame advances the clock by its airtime, then by its gap."""
        t = self.start
        for _, _, _, _, air, gap in self.steps():
            yield t
            t += air
            t += gap
        yield t

    def count(self, is_ack: bool) -> int:
        return sum(step[3] == is_ack for step in self.steps())

    def records(self) -> list[TraceRecord]:
        return [TraceRecord(t, *step[:4], self.op) for t, step in zip(self.times(), self.steps())]


class FrameTrace(Value):
    """Timestamped frames; ``clock`` is the virtual time after the last
    frame and its trailing gap, where the next transfer starts.

    The simulator builds each trace from its transfers, each stored once and
    compactly, so no per-frame object exists until :attr:`records` is read.
    ``a + b`` is ``a``'s frames then ``b``'s, ending at ``b``'s clock.
    """

    __slots__ = ("_parts", "clock", "__dict__")  # the dict holds the cached records

    def __init__(self, parts: tuple[_Transfer, ...] = (), clock: float = 0.0):
        set_field(self, "_parts", parts)
        set_field(self, "clock", clock)

    @cached_property
    def records(self) -> tuple[TraceRecord, ...]:
        """Every frame as a :class:`TraceRecord`, built on the first read."""
        return tuple(chain.from_iterable(part.records() for part in self._parts))

    def __add__(self, other: FrameTrace) -> FrameTrace:
        return FrameTrace(self._parts + other._parts, other.clock)

    def _count(self, is_ack: bool, op: str | None) -> int:
        return sum(part.count(is_ack) for part in self._parts if op is None or part.op == op)

    def data_frame_count(self, op: str | None = None) -> int:
        return self._count(False, op)

    def ack_count(self, op: str | None = None) -> int:
        return self._count(True, op)

    def to_jsonl(self) -> str:
        """One JSON object per record, in the form of :meth:`TraceRecord.as_dict`.

        Lines are formatted directly, byte for byte as ``json.dumps`` would:
        finite floats with ``repr``, ints as they are, and each distinct op
        string through ``json.dumps`` once. All of a line but its time is
        formatted once per step of a block.
        """
        ops: dict[str, str] = {}

        def tail(sender, payload_bytes, overhead_bytes, is_ack, op):
            op_json = ops.get(op)
            if op_json is None:
                op_json = ops[op] = json.dumps(op)
            direction = '"p->c"' if sender is Role.PERIPHERAL else '"c->p"'
            return (f', "dir": {direction}, "payload_B": {payload_bytes}, '
                    f'"overhead_B": {overhead_bytes}, "op": {op_json}, '
                    f'"is_ack": {"true" if is_ack else "false"}}}')

        lines = []
        for part in self._parts:
            full, last = ([tail(*step[:4], part.op) for step in steps]
                          for steps in (part.full, part.last))
            for t, line in zip(part.times(), _expand(full, part.n_full, last)):
                u = t * 1e6
                lines.append(f'{{"time_us": {repr(u) if isfinite(u) else json.dumps(u)}{line}')
        return "\n".join(lines) + "\n"


class EnergyLedger(Value):
    """Calibrated per-phase microjoules of each party, each table stored as a
    read-only copy. The peripheral's terms come from
    :func:`~pqpan.energy.handshake_breakdown`; the central's are the mirrored
    transfers and its uncalibrated encapsulation."""

    __slots__ = ("peripheral", "central")

    def __init__(self, peripheral: Mapping[str, float], central: Mapping[str, float]):
        set_field(self, "peripheral", MappingProxyType(dict(peripheral)))
        set_field(self, "central", MappingProxyType(dict(central)))

    def peripheral_pqke_total(self) -> float:
        return (self.peripheral["keygen"] + self.peripheral["decap"]
                + self.peripheral["notify_pk"] + self.peripheral["write_ct"])

    def as_dict(self) -> dict:
        return {"peripheral_uJ": dict(self.peripheral),
                "central_uJ": dict(self.central),
                "peripheral_pqke_total_uJ": self.peripheral_pqke_total()}


class HandshakeResult(Value):
    __slots__ = ("peripheral", "central", "trace", "ledger", "cfg", "profile", "gamma")


class Reassembler:
    """Collects value chunks with a hard size bound."""

    def __init__(self, expected_size: int, what: str):
        self.expected_size = expected_size
        self.what = what
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> None:
        if len(self._buf) + len(chunk) > self.expected_size:
            raise HandshakeFailure(
                f"{self.what}: reassembly overflow ({len(self._buf) + len(chunk)} "
                f"> {self.expected_size} bytes)")
        self._buf.extend(chunk)

    def finish(self) -> bytes:
        if len(self._buf) != self.expected_size:
            raise HandshakeFailure(
                f"{self.what}: reassembled {len(self._buf)} bytes, "
                f"expected {self.expected_size}")
        return bytes(self._buf)


def _seed32(seed: bytes, label: bytes) -> bytes:
    return hashlib.shake_256(b"pqpan-sim" + label + seed).digest(kem.SEED_BYTES)


def _transfer(t: float, transfer: tuple[str, int, bool], cfg: LinkConfig,
              artifact: bytes | None = None):
    """Send one (op, size, peripheral receives) row of :meth:`KemParamSet.transfers`
    from clock ``t``; the sender sends the data frames and the other party the
    acks. Returns the transfer's frames, its time budget and ``artifact``
    reassembled from the ATT chunks of the layout (None without one)."""
    op, size, peripheral_receives = transfer
    (chunk, full), n_full, (last_chunk, last) = sdu_layout(size, cfg)
    received = None
    if artifact is not None:
        rx = Reassembler(size, op)
        for offset in range(0, n_full * chunk, chunk):
            rx.feed(artifact[offset:offset + chunk])
        rx.feed(artifact[n_full * chunk:n_full * chunk + last_chunk])
        received = rx.finish()
    sender, receiver = ((Role.CENTRAL, Role.PERIPHERAL) if peripheral_receives
                        else (Role.PERIPHERAL, Role.CENTRAL))
    ack = (receiver, 0, LL_OVERHEAD, True, cfg.seconds_on_air(LL_OVERHEAD), cfg.gap_after(True))
    data = {payload: (sender, payload, LL_OVERHEAD, False,
                      cfg.seconds_on_air(payload + LL_OVERHEAD), cfg.gap_after(False))
            for payload in {*full, *last}}

    def steps(sizes: tuple[int, ...]) -> tuple[tuple, ...]:
        return tuple(step for payload in sizes for step in (data[payload], ack))

    frames = _Transfer(op, t, steps(full) if n_full else (), n_full, steps(last))
    return frames, airtime(size, cfg), received


def run_handshake(scheme: KemParamSet | str, cfg: LinkConfig,
                  profile: RadioProfile | None = None,
                  gamma: CalibrationFactors | None = None,
                  cycles: Mapping[str, CycleCounts] | None = None,
                  seed: int | bytes = 0, backend: str = "stub") -> HandshakeResult:
    """Run the full handshake; all randomness is fixed by ``seed``: ``bytes``,
    or an integer in [SEED_MIN, SEED_MAX].

    Returns both party states (Established), the timestamped frame trace, and
    the per-party energy ledger. The peripheral's ledger is
    :func:`~pqpan.energy.handshake_breakdown` of the two transfers' budgets, so
    it equals ``pqke_total`` for identical inputs.
    """
    if not isinstance(seed, bytes):
        seed = int_in_range("seed", seed, SEED_MIN, SEED_MAX).to_bytes(8, "big", signed=True)
    scheme, profile, gamma, counts = handshake_inputs(scheme, profile, gamma, cycles)
    kem_backend = kem.get_backend(backend)
    pk_transfer, ct_transfer = scheme.transfers()

    # Step 1: peripheral generates its key pair and notifies the public key.
    keypair = kem.keygen(scheme, _seed32(seed, b"keygen"), kem_backend)
    pk_frames, pk_budget, peer_pk = _transfer(0.0, pk_transfer, cfg, keypair.pk)

    # Step 2: central encapsulates against the received key and writes the
    # ciphertext back.
    enc = kem.encapsulate(peer_pk, scheme, _seed32(seed, b"encap"), kem_backend)
    ct_frames, ct_budget, ct = _transfer(pk_frames.clock, ct_transfer, cfg, enc.ct)

    # Step 3: peripheral decapsulates; both sides derive the session key.
    ss = kem.decapsulate(keypair.sk, ct, scheme, kem_backend)
    peripheral = PartyState(Role.PERIPHERAL, scheme, Phase.ESTABLISHED, keypair=keypair,
                            session_key=kem.derive_session_key(ss))
    central = PartyState(Role.CENTRAL, scheme, Phase.ESTABLISHED, peer_pk=peer_pk,
                         session_key=kem.derive_session_key(enc.ss))

    phases = handshake_breakdown(counts, pk_budget, ct_budget, profile, gamma,
                                 scheme.nist_level, include_encap=True)
    # The central sits on the other end of each transfer the peripheral makes.
    ledger = EnergyLedger(
        peripheral={"keygen": phases.adj_keygen, "notify_pk": phases.adj_notify_pk,
                    "write_ct": phases.adj_write_ct, "decap": phases.adj_decap},
        central={"notify_pk": transfer_energy(pk_budget, profile, gamma,
                                              as_receiver=not pk_transfer[2]),
                 "encap": phases.adj_encap,
                 "write_ct": transfer_energy(ct_budget, profile, gamma,
                                             as_receiver=not ct_transfer[2])})

    return HandshakeResult(peripheral=peripheral, central=central,
                           trace=FrameTrace((pk_frames, ct_frames), ct_frames.clock),
                           ledger=ledger, cfg=cfg, profile=profile, gamma=gamma)


def send_secured_payload(session: HandshakeResult, payload: bytes) -> tuple[FrameTrace, float]:
    """Notify one AEAD-protected payload over an established session, on the
    session's link, profile and calibration.

    The payload grows by the 28-byte AEAD envelope (tag + nonce); the cipher
    itself is modeled as a size transform only. Returns the frame-trace
    delta and its calibrated communication energy in microjoules. The delta
    starts at the handshake's clock, so the gap after the handshake's last
    ack follows the same rule as the gap between two handshake transfers.
    A payload that is not ``bytes`` or ``bytearray`` is InvalidConfig.
    """
    if (session.peripheral.phase is not Phase.ESTABLISHED
            or session.central.phase is not Phase.ESTABLISHED):
        raise NotEstablished("handshake has not completed")
    if not isinstance(payload, (bytes, bytearray)):
        raise InvalidConfig(f"payload must be bytes or bytearray, got {type(payload).__name__}")
    frames, budget, _ = _transfer(
        session.trace.clock, (OP_PAYLOAD, len(payload) + AEAD_OVERHEAD_BYTES, False),
        session.cfg)
    energy = transfer_energy(budget, session.profile, session.gamma)
    return FrameTrace((frames,), frames.clock), energy
