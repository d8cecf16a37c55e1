"""Deterministic two-party handshake simulator.

A peripheral and a central execute the key-establishment protocol over an
in-memory, lossless, in-order link: the peripheral generates a key pair and
notifies the public key; the central encapsulates and writes the ciphertext
back; the peripheral decapsulates and both derive the session key. The
simulator produces the full frame trace with virtual timestamps, and an
energy ledger that must reconcile exactly with the analytical model (it
introduces no cost terms of its own).

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
from .energy import (AEAD_OVERHEAD_BYTES, CycleCounts, RadioProfile, comm_energy,
                     comp_energy, FITTED_RADIO_PROFILE, load_cycle_counts)
from .errors import HandshakeFailure, NotEstablished, UnsupportedScheme
from .link import Direction, FragmentationPlan, LinkConfig, airtime, plan_transfer
from .reference import (CalibrationFactors, KemParamSet, default_calibration,
                        lookup_scheme)

OP_NOTIFY_PK = "Notify_PK"
OP_WRITE_CT = "Write_CT"
OP_PAYLOAD = "Payload"


class Role(enum.Enum):
    PERIPHERAL = "peripheral"
    CENTRAL = "central"


class Phase(enum.Enum):
    IDLE = "Idle"
    KEYGEN_DONE = "KeyGenDone"
    PK_SENT = "PkSent"
    PK_RECEIVED = "PkReceived"
    CT_SENT = "CtSent"
    CT_RECEIVED = "CtReceived"
    ESTABLISHED = "Established"
    FAILED = "Failed"


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

    @property
    def end_time(self) -> float:
        """Start time of the last frame (0.0 for an empty trace)."""
        return self.records[-1].time_s if self.records else 0.0

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
    """Calibrated per-phase microjoules accumulated by each party."""

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
    pk_plan: FragmentationPlan
    ct_plan: FragmentationPlan
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


def _seed32(seed: int | bytes, label: bytes) -> bytes:
    raw = seed if isinstance(seed, bytes) else int(seed).to_bytes(8, "big", signed=True)
    return hashlib.shake_256(b"pqpan-sim" + label + raw).digest(kem.SEED_BYTES)


def _emit_transfer(records: list[TraceRecord], t: float, plan: FragmentationPlan,
                   initiator: Role, op: str, cfg: LinkConfig) -> float:
    """Append a plan's frames with timestamps; returns the advanced clock."""
    responder = Role.CENTRAL if initiator is Role.PERIPHERAL else Role.PERIPHERAL
    # A plan shares one object per distinct frame, so (sender, airtime, gap)
    # is worked out once per object. Keyed by identity: hashing the frozen
    # frame would cost more than the work it saves.
    steps: dict[int, tuple[Role, float, float]] = {}
    for frame in plan.frames:
        step = steps.get(id(frame))
        if step is None:
            sender = initiator if frame.direction is Direction.TO_RESPONDER else responder
            # One gap always follows a data frame; the second gap after the
            # ack is charged only under two-slot accounting.
            gap = cfg.ifs if (not frame.is_ack or cfg.ifs_slots == 2) else 0.0
            step = steps[id(frame)] = (sender, 8.0 * frame.on_air_bytes / cfg.phy_rate, gap)
        sender, air, gap = step
        records.append(TraceRecord(t, sender, frame.payload_bytes, frame.overhead_bytes,
                                   frame.is_ack, op))
        t += air
        t += gap
    return t


def run_handshake(scheme: KemParamSet | str, cfg: LinkConfig,
                  profile: RadioProfile | None = None,
                  gamma: CalibrationFactors | None = None,
                  cycles: dict[str, CycleCounts] | None = None,
                  seed: int | bytes = 0, backend: str = "stub") -> HandshakeResult:
    """Run the full handshake; all randomness is fixed by ``seed``.

    Returns both party states (Established on success), the timestamped
    frame trace, and the per-party energy ledger. The peripheral's four-term
    ledger equals the analytical total for identical inputs.
    """
    if isinstance(scheme, str):
        scheme = lookup_scheme(scheme)
    profile = profile or FITTED_RADIO_PROFILE
    gamma = gamma or default_calibration()
    cycles = cycles if cycles is not None else load_cycle_counts()
    counts = cycles.get(scheme.name.upper())
    if not scheme.is_kem or scheme.nist_level is None or counts is None:
        raise UnsupportedScheme(f"{scheme.name} has no handshake energy model")
    kem_backend = kem.get_backend(backend)

    peripheral = PartyState(role=Role.PERIPHERAL, scheme=scheme)
    central = PartyState(role=Role.CENTRAL, scheme=scheme)
    ledger = EnergyLedger()
    records: list[TraceRecord] = []
    t = 0.0

    # Step 1: peripheral generates its key pair and notifies the public key.
    peripheral.keypair = kem.keygen(scheme, _seed32(seed, b"keygen"), kem_backend)
    peripheral.phase = Phase.KEYGEN_DONE
    ledger.peripheral["keygen"] = (gamma.keygen_for(scheme.nist_level)
                                   * comp_energy(counts.keygen, profile))

    pk_plan = plan_transfer(scheme.pk_size, cfg)
    pk_rx = Reassembler(scheme.pk_size, "public key")
    offset = 0
    for chunk in pk_plan.att_chunks:
        pk_rx.feed(peripheral.keypair.pk[offset:offset + chunk])
        offset += chunk
    t = _emit_transfer(records, t, pk_plan, Role.PERIPHERAL, OP_NOTIFY_PK, cfg)
    peripheral.phase = Phase.PK_SENT
    central.peer_pk = pk_rx.finish()
    central.phase = Phase.PK_RECEIVED
    pk_budget = airtime(pk_plan, cfg)
    ledger.peripheral["notify_pk"] = gamma.gamma_comm * comm_energy(pk_budget, profile)
    ledger.central["notify_pk"] = gamma.gamma_comm * comm_energy(pk_budget, profile,
                                                                 as_receiver=True)

    # Step 2: central encapsulates against the received key and writes the
    # ciphertext back. Encapsulation energy is uncalibrated (no published
    # factor for the central).
    enc = kem.encapsulate(central.peer_pk, scheme, _seed32(seed, b"encap"), kem_backend)
    ledger.central["encap"] = comp_energy(counts.encap, profile)

    ct_plan = plan_transfer(scheme.ct_size, cfg)
    ct_rx = Reassembler(scheme.ct_size, "ciphertext")
    offset = 0
    for chunk in ct_plan.att_chunks:
        ct_rx.feed(enc.ct[offset:offset + chunk])
        offset += chunk
    t = _emit_transfer(records, t, ct_plan, Role.CENTRAL, OP_WRITE_CT, cfg)
    central.phase = Phase.CT_SENT
    ct = ct_rx.finish()
    peripheral.phase = Phase.CT_RECEIVED
    ct_budget = airtime(ct_plan, cfg)
    ledger.peripheral["write_ct"] = gamma.gamma_comm * comm_energy(ct_budget, profile,
                                                                   as_receiver=True)
    ledger.central["write_ct"] = gamma.gamma_comm * comm_energy(ct_budget, profile)

    # Step 3: peripheral decapsulates; both sides derive the session key.
    ss = kem.decapsulate(peripheral.keypair.sk, ct, scheme, kem_backend)
    ledger.peripheral["decap"] = (gamma.decap_for(scheme.nist_level)
                                  * comp_energy(counts.decap, profile))
    peripheral.session_key = kem.derive_session_key(ss)
    central.session_key = kem.derive_session_key(enc.ss)
    peripheral.phase = Phase.ESTABLISHED
    central.phase = Phase.ESTABLISHED

    return HandshakeResult(peripheral=peripheral, central=central,
                           trace=FrameTrace(records=tuple(records), clock=t),
                           ledger=ledger, pk_plan=pk_plan, ct_plan=ct_plan, cfg=cfg,
                           profile=profile, gamma=gamma)


def send_secured_payload(session: HandshakeResult, payload: bytes,
                         cfg: LinkConfig | None = None,
                         profile: RadioProfile | None = None,
                         gamma: CalibrationFactors | None = None) -> tuple[FrameTrace, float]:
    """Notify one AEAD-protected payload over an established session.

    The payload grows by the 28-byte AEAD envelope (tag + nonce); the cipher
    itself is modeled as a size transform only. Returns the frame-trace
    delta and its calibrated communication energy in microjoules. The delta
    starts at the handshake's clock, so the gap after the handshake's last
    ack follows the same rule as the gap between two handshake transfers.
    """
    if (session.peripheral.phase is not Phase.ESTABLISHED
            or session.central.phase is not Phase.ESTABLISHED):
        raise NotEstablished("handshake has not completed")
    cfg = cfg or session.cfg
    profile = profile or session.profile
    gamma = gamma or session.gamma

    plan = plan_transfer(len(payload) + AEAD_OVERHEAD_BYTES, cfg)
    records: list[TraceRecord] = []
    clock = _emit_transfer(records, session.trace.clock, plan, Role.PERIPHERAL,
                           OP_PAYLOAD, cfg)
    energy = gamma.gamma_comm * comm_energy(airtime(plan, cfg), profile)
    return FrameTrace(records=tuple(records), clock=clock), energy
