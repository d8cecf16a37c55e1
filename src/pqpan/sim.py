"""Deterministic two-party handshake simulator.

A peripheral and a central execute the key-establishment protocol over an
in-memory, lossless, in-order link: the peripheral generates a key pair and
notifies the public key; the central encapsulates and writes the ciphertext
back; the peripheral decapsulates and both derive the session key, going
from Idle to Established (or raising). Every transfer, the secured payload
included, is planned once and yields the full frame trace with virtual
timestamps and its time budget; the energy ledger prices those budgets, so
it reconciles exactly with the analytical model (it introduces no cost
terms of its own).

Virtual time advances by frame airtime plus inter-frame spacing only;
connection-interval idle gaps are outside the analytical model's scope.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from math import isfinite

from . import kem
from .energy import (AEAD_OVERHEAD_BYTES, CycleCounts, RadioProfile, handshake_breakdown,
                     handshake_inputs, transfer_energy)
from .errors import HandshakeFailure, NotEstablished, int_in_range
from .link import LinkConfig, airtime, plan_transfer
from .reference import CalibrationFactors, KemParamSet

OP_PAYLOAD = "Payload"
SEED_MIN, SEED_MAX = -2 ** 63, 2 ** 63 - 1  # an integer seed is packed in 8 bytes


class Role(enum.Enum):
    PERIPHERAL = "peripheral"
    CENTRAL = "central"


class Phase(enum.Enum):
    IDLE = "Idle"
    ESTABLISHED = "Established"


@dataclass
class PartyState:
    role: Role
    scheme: KemParamSet
    phase: Phase = Phase.IDLE
    keypair: kem.KemKeyPair | None = None
    peer_pk: bytes | None = None
    session_key: kem.SessionKey | None = None


@dataclass(frozen=True)
class TraceRecord:
    """One frame on the air: start time, sender, link frame, carried op."""

    time_s: float
    sender: Role
    payload_bytes: int
    overhead_bytes: int
    is_ack: bool
    op: str

    def as_dict(self) -> dict:
        return {"time_us": self.time_s * 1e6,
                "dir": "p->c" if self.sender is Role.PERIPHERAL else "c->p",
                "payload_B": self.payload_bytes, "overhead_B": self.overhead_bytes,
                "op": self.op, "is_ack": self.is_ack}


@dataclass(frozen=True)
class FrameTrace:
    """Timestamped frames; ``clock`` is the virtual time after the last
    frame and its trailing gap, where the next transfer starts."""

    records: tuple[TraceRecord, ...]
    clock: float = 0.0

    def data_frame_count(self, op: str | None = None) -> int:
        return sum(1 for r in self.records
                   if not r.is_ack and (op is None or r.op == op))

    def ack_count(self, op: str | None = None) -> int:
        return sum(1 for r in self.records
                   if r.is_ack and (op is None or r.op == op))

    def to_jsonl(self) -> str:
        """One JSON object per record, in the form of :meth:`TraceRecord.as_dict`.

        Lines are formatted directly, byte for byte as ``json.dumps`` would:
        finite floats with ``repr``, ints as they are, and each distinct op
        string through ``json.dumps`` once.
        """
        ops: dict[str, str] = {}
        lines = []
        for r in self.records:
            op = ops.get(r.op)
            if op is None:
                op = ops[r.op] = json.dumps(r.op)
            t = r.time_s * 1e6
            time_us = repr(t) if isfinite(t) else json.dumps(t)
            sender = '"p->c"' if r.sender is Role.PERIPHERAL else '"c->p"'
            is_ack = "true" if r.is_ack else "false"
            lines.append(f'{{"time_us": {time_us}, "dir": {sender}, '
                         f'"payload_B": {r.payload_bytes}, "overhead_B": {r.overhead_bytes}, '
                         f'"op": {op}, "is_ack": {is_ack}}}')
        return "\n".join(lines) + "\n"


@dataclass
class EnergyLedger:
    """Calibrated per-phase microjoules of each party. The peripheral's terms
    come from :func:`~pqpan.energy.handshake_breakdown`; the central's are the
    mirrored transfers and its uncalibrated encapsulation."""

    peripheral: dict[str, float] = field(default_factory=dict)
    central: dict[str, float] = field(default_factory=dict)

    def peripheral_pqke_total(self) -> float:
        return (self.peripheral["keygen"] + self.peripheral["decap"]
                + self.peripheral["notify_pk"] + self.peripheral["write_ct"])

    def as_dict(self) -> dict:
        return {"peripheral_uJ": dict(self.peripheral),
                "central_uJ": dict(self.central),
                "peripheral_pqke_total_uJ": self.peripheral_pqke_total()}


@dataclass(frozen=True)
class HandshakeResult:
    peripheral: PartyState
    central: PartyState
    trace: FrameTrace
    ledger: EnergyLedger
    cfg: LinkConfig
    profile: RadioProfile
    gamma: CalibrationFactors


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


def _transfer(records: list[TraceRecord], t: float, transfer: tuple[str, int, bool],
              cfg: LinkConfig, artifact: bytes | None = None):
    """Send one (op, size, peripheral receives) row of :meth:`KemParamSet.transfers`,
    appending its frames from clock ``t``; the sender sends the data frames and
    the other party the acks. Returns the advanced clock, the plan's time budget
    and ``artifact`` reassembled from the ATT chunks (None without one)."""
    op, size, peripheral_receives = transfer
    plan = plan_transfer(size, cfg)
    received = None
    if artifact is not None:
        rx = Reassembler(size, op)
        offset = 0
        for chunk in plan.att_chunks:
            rx.feed(artifact[offset:offset + chunk])
            offset += chunk
        received = rx.finish()
    sender, receiver = ((Role.CENTRAL, Role.PERIPHERAL) if peripheral_receives
                        else (Role.PERIPHERAL, Role.CENTRAL))
    # A plan shares one object per distinct frame, so (sender, airtime, gap)
    # is worked out once per object. Keyed by identity: hashing the frozen
    # frame would cost more than the work it saves.
    steps: dict[int, tuple[Role, float, float]] = {}
    for frame in plan.frames:
        step = steps.get(id(frame))
        if step is None:
            party = receiver if frame.is_ack else sender
            # One gap always follows a data frame; the second gap after the
            # ack is charged only under two-slot accounting.
            gap = cfg.ifs if (not frame.is_ack or cfg.ifs_slots == 2) else 0.0
            step = steps[id(frame)] = (party, 8.0 * frame.on_air_bytes / cfg.phy_rate, gap)
        party, air, gap = step
        records.append(TraceRecord(t, party, frame.payload_bytes, frame.overhead_bytes,
                                   frame.is_ack, op))
        t += air
        t += gap
    return t, airtime(plan, cfg), received


def run_handshake(scheme: KemParamSet | str, cfg: LinkConfig,
                  profile: RadioProfile | None = None,
                  gamma: CalibrationFactors | None = None,
                  cycles: dict[str, CycleCounts] | None = None,
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

    peripheral = PartyState(role=Role.PERIPHERAL, scheme=scheme)
    central = PartyState(role=Role.CENTRAL, scheme=scheme)
    records: list[TraceRecord] = []

    # Step 1: peripheral generates its key pair and notifies the public key.
    peripheral.keypair = kem.keygen(scheme, _seed32(seed, b"keygen"), kem_backend)
    t, pk_budget, central.peer_pk = _transfer(records, 0.0, pk_transfer, cfg,
                                              peripheral.keypair.pk)

    # Step 2: central encapsulates against the received key and writes the
    # ciphertext back.
    enc = kem.encapsulate(central.peer_pk, scheme, _seed32(seed, b"encap"), kem_backend)
    t, ct_budget, ct = _transfer(records, t, ct_transfer, cfg, enc.ct)

    # Step 3: peripheral decapsulates; both sides derive the session key.
    ss = kem.decapsulate(peripheral.keypair.sk, ct, scheme, kem_backend)
    peripheral.session_key = kem.derive_session_key(ss)
    central.session_key = kem.derive_session_key(enc.ss)
    peripheral.phase = Phase.ESTABLISHED
    central.phase = Phase.ESTABLISHED

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
                           trace=FrameTrace(records=tuple(records), clock=t),
                           ledger=ledger, cfg=cfg, profile=profile, gamma=gamma)


def send_secured_payload(session: HandshakeResult, payload: bytes) -> tuple[FrameTrace, float]:
    """Notify one AEAD-protected payload over an established session, on the
    session's link, profile and calibration.

    The payload grows by the 28-byte AEAD envelope (tag + nonce); the cipher
    itself is modeled as a size transform only. Returns the frame-trace
    delta and its calibrated communication energy in microjoules. The delta
    starts at the handshake's clock, so the gap after the handshake's last
    ack follows the same rule as the gap between two handshake transfers.
    """
    if (session.peripheral.phase is not Phase.ESTABLISHED
            or session.central.phase is not Phase.ESTABLISHED):
        raise NotEstablished("handshake has not completed")
    records: list[TraceRecord] = []
    clock, budget, _ = _transfer(
        records, session.trace.clock,
        (OP_PAYLOAD, len(payload) + AEAD_OVERHEAD_BYTES, False), session.cfg)
    energy = transfer_energy(budget, session.profile, session.gamma)
    return FrameTrace(records=tuple(records), clock=clock), energy
