"""Deterministic two-party handshake simulator.

A peripheral and a central execute the key-establishment protocol over an
in-memory, lossless, in-order link: the peripheral generates a key pair and
notifies the public key; the central encapsulates and writes the ciphertext
back; the peripheral decapsulates and both derive the session key, going
from Idle to Established (or raising). Each party takes the other's artifact
as it was sent; its frames carry only the chunk sizes. Every transfer, the
secured payload included, yields its timestamped frames and its
``airtime(size, cfg)`` budget; the energy ledger prices those budgets, so it
reconciles exactly with the analytical model (no cost terms of its own).

Virtual time, in microseconds, advances by frame airtime plus inter-frame
spacing only, by the link's timing rule (``LinkConfig.air_us`` and
``gap_us``) that the budget also sums; connection-interval idle gaps are
outside the analytical model's scope.

The trace stores each transfer run-length encoded from its link layout: its
start time, the frames of a full SDU and how often they repeat, then the
frames of the last SDU; a transfer has at most four distinct frames. Each
SDU is timed once, when the transfer is sent. A frame's time is computed in
closed form, ``start + i * sdu_len + offset``: ``sdu_len`` is the length of
one full SDU, ``i`` the SDU's index and ``offset`` the air and gap of the
SDU's frames before it, so no error builds up over the frames. On the
default link every air time and gap is a whole number of µs, and every time
is exact. The JSONL export and the frame counts read this form.
"""

from __future__ import annotations

import enum
import json
import sys
from collections.abc import Mapping
from functools import cached_property, partial

from . import kem
from .energy import (AEAD_OVERHEAD_BYTES, CycleCounts, RadioProfile, handshake_breakdown,
                     handshake_inputs, transfer_energy)
from .errors import (ConsistencyError, InvalidConfig, InvalidProfile, NotEstablished, Value,
                     int_in_range, of_type, read_only, real_in_range)
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
    """One frame on the air: start time in µs, sender, link frame, carried op."""

    __slots__ = ("time_us", "sender", "payload_bytes", "overhead_bytes", "is_ack", "op")

    def as_dict(self) -> dict:
        return {"time_us": self.time_us,
                "dir": "p->c" if self.sender is Role.PERIPHERAL else "c->p",
                "payload_B": self.payload_bytes, "overhead_B": self.overhead_bytes,
                "op": self.op, "is_ack": self.is_ack}


class _Transfer(Value):
    """One transfer's frames, run-length encoded: the SDU ``full`` repeats
    ``n_full`` times, then the SDU ``last`` follows. An SDU is its frames as
    (offset, step) pairs: the offset is the µs from the SDU's start to the
    frame's, and a step is the frame, (sender, payload B, overhead B, is_ack);
    frames that are alike share one step tuple. The first frame starts at
    ``start`` µs, a full SDU lasts ``sdu_len`` µs, and ``clock`` is the time after
    the last frame and its gap."""

    __slots__ = ("op", "start", "full", "n_full", "last", "sdu_len", "clock")

    def count(self, is_ack: bool) -> int:
        return (self.n_full * sum(step[3] == is_ack for _, step in self.full)
                + sum(step[3] == is_ack for _, step in self.last))

    def sdus(self, full: list[tuple], last: list[tuple]) -> list[tuple[float, list[tuple]]]:
        """Each SDU as (its start in µs, ``full`` or ``last``), the last after every
        full one; a frame's time is its SDU's start plus its offset in the SDU."""
        start, sdu_len, n_full = self.start, self.sdu_len, self.n_full
        return [(start + i * sdu_len, full if i < n_full else last) for i in range(n_full + 1)]

    def records(self) -> list[TraceRecord]:
        op = self.op
        return [TraceRecord(base + offset, *step, op)
                for base, steps in self.sdus(self.full, self.last) for offset, step in steps]


def _transfers(name: str, parts) -> tuple:
    """``parts`` as a tuple of the simulator's transfers, else InvalidConfig."""
    return tuple(of_type(name, part, _Transfer) for part in of_type(name, parts, tuple))


class FrameTrace(Value):
    """Timestamped frames; ``clock_us`` is the virtual time after the last
    frame and its trailing gap, where the next transfer starts: a finite
    number >= 0, so each frame the simulator sends after it has a finite time.

    The simulator builds each trace from its transfers, each stored once and
    compactly, so no per-frame object exists until :attr:`records` is read.
    ``a + b`` is ``a``'s frames then ``b``'s, ending at ``b``'s clock.
    """

    __slots__ = ("parts", "clock_us", "__dict__")  # the dict holds the cached records
    _defaults = {"parts": (), "clock_us": 0.0}
    _checks = {"parts": _transfers,
               "clock_us": partial(real_in_range, lo=0.0, hi=sys.float_info.max)}

    @cached_property
    def records(self) -> tuple[TraceRecord, ...]:
        """Every frame as a :class:`TraceRecord`, built on the first read."""
        return tuple(record for part in self.parts for record in part.records())

    def __add__(self, other: FrameTrace) -> FrameTrace:
        if not isinstance(other, FrameTrace):
            return NotImplemented
        return FrameTrace(self.parts + other.parts, other.clock_us)

    def _count(self, is_ack: bool, op: str | None) -> int:
        return sum(part.count(is_ack) for part in self.parts if op is None or part.op == op)

    def data_frame_count(self, op: str | None = None) -> int:
        return self._count(False, op)

    def ack_count(self, op: str | None = None) -> int:
        return self._count(True, op)

    def to_jsonl(self) -> str:
        """One JSON object per record, in the form of :meth:`TraceRecord.as_dict`,
        each ended by a newline; an empty trace is the empty string.

        Lines are formatted directly, byte for byte as ``json.dumps`` would:
        times with ``repr``, as the simulator's are finite, ints as they are, and each
        transfer's op string through ``json.dumps`` once; the rest of a line
        once per step of an SDU.
        """
        def tail(sender, payload_bytes, overhead_bytes, is_ack, op_json):
            direction = '"p->c"' if sender is Role.PERIPHERAL else '"c->p"'
            return (f', "dir": {direction}, "payload_B": {payload_bytes}, '
                    f'"overhead_B": {overhead_bytes}, "op": {op_json}, '
                    f'"is_ack": {"true" if is_ack else "false"}}}\n')

        lines = []
        for part in self.parts:
            op_json = json.dumps(part.op)
            full, last = ([(offset, tail(*step, op_json)) for offset, step in sdu]
                          for sdu in (part.full, part.last))
            lines += [f'{{"time_us": {base + offset!r}{line}'
                      for base, steps in part.sdus(full, last) for offset, line in steps]
        return "".join(lines)


class EnergyLedger(Value):
    """Calibrated per-phase microjoules of each party, each table stored as a
    read-only copy. The peripheral's terms come from
    :func:`~pqpan.energy.handshake_breakdown`; the central's are the mirrored
    transfers and its uncalibrated encapsulation."""

    __slots__ = ("peripheral", "central")
    _checks = {"peripheral": read_only, "central": read_only}

    def peripheral_pqke_total(self) -> float:
        return (self.peripheral["keygen"] + self.peripheral["decap"]
                + self.peripheral["notify_pk"] + self.peripheral["write_ct"])

    def as_dict(self) -> dict:
        return {"peripheral_uJ": dict(self.peripheral),
                "central_uJ": dict(self.central),
                "peripheral_pqke_total_uJ": self.peripheral_pqke_total()}


class HandshakeResult(Value):
    """An established session: both parties' states, the trace and the ledger, each
    of its type or NotEstablished, and the link, profile and calibration it was run
    on, each of its type or its type's error."""

    __slots__ = ("peripheral", "central", "trace", "ledger", "cfg", "profile", "gamma")
    _checks = {**{field: partial(of_type, cls=cls, error=NotEstablished) for field, cls in (
                   ("peripheral", PartyState), ("central", PartyState), ("trace", FrameTrace),
                   ("ledger", EnergyLedger))},
               "cfg": partial(of_type, cls=LinkConfig),
               "profile": partial(of_type, cls=RadioProfile, error=InvalidProfile),
               "gamma": partial(of_type, cls=CalibrationFactors, error=ConsistencyError)}


def _seed32(seed: bytes, label: bytes) -> bytes:
    return kem._shake(b"pqpan-sim" + label, seed, kem.SEED_BYTES)


def _transfer(t: float, transfer: tuple[str, int, bool], cfg: LinkConfig):
    """Send one (op, size, peripheral receives) row of :meth:`KemParamSet.transfers`
    from clock ``t`` µs; the sender sends the data frames and the other party the
    acks. Returns the transfer's frames and its time budget."""
    op, size, peripheral_receives = transfer
    (_, full), n_full, (_, last) = sdu_layout(size, cfg)
    sender, receiver = ((Role.CENTRAL, Role.PERIPHERAL) if peripheral_receives
                        else (Role.PERIPHERAL, Role.CENTRAL))
    ack = (receiver, 0, LL_OVERHEAD, True), cfg.air_us(LL_OVERHEAD) + cfg.gap_us(True)
    data = {payload: ((sender, payload, LL_OVERHEAD, False),
                      cfg.air_us(payload + LL_OVERHEAD) + cfg.gap_us(False))
            for payload in {*full, *last}}

    def timed(sizes: tuple[int, ...]) -> tuple[tuple[tuple[float, tuple], ...], float]:
        """An SDU's frames as (offset, step) pairs, and its length in µs: each
        offset sums the air and gap of the frames before it."""
        offset, frames = 0.0, []
        for payload in sizes:
            for step, length in (data[payload], ack):
                frames.append((offset, step))
                offset += length
        return tuple(frames), offset

    (full, sdu_len), (last, last_len) = timed(full if n_full else ()), timed(last)
    frames = _Transfer(op, t, full, n_full, last, sdu_len, t + n_full * sdu_len + last_len)
    return frames, airtime(size, cfg)


def run_handshake(scheme: KemParamSet | str, cfg: LinkConfig,
                  profile: RadioProfile | None = None,
                  gamma: CalibrationFactors | None = None,
                  cycles: Mapping[str, CycleCounts] | None = None,
                  seed: int | bytes = 0, backend: str = "stub") -> HandshakeResult:
    """Run the full handshake; ``seed`` (``bytes``, or an integer in [SEED_MIN,
    SEED_MAX]) fixes the stub's key bytes, not the ``real`` backend's encapsulation.

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
    pk_frames, pk_budget = _transfer(0.0, pk_transfer, cfg)

    # Step 2: central encapsulates against the public key and writes the
    # ciphertext back.
    enc = kem.encapsulate(keypair.pk, scheme, _seed32(seed, b"encap"), kem_backend)
    ct_frames, ct_budget = _transfer(pk_frames.clock, ct_transfer, cfg)

    # Step 3: peripheral decapsulates; both sides derive the session key.
    ss = kem.decapsulate(keypair.sk, enc.ct, scheme, kem_backend)
    peripheral = PartyState(Role.PERIPHERAL, scheme, Phase.ESTABLISHED, keypair=keypair,
                            session_key=kem.derive_session_key(ss))
    central = PartyState(Role.CENTRAL, scheme, Phase.ESTABLISHED, peer_pk=keypair.pk,
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
    A payload that is not ``bytes`` or ``bytearray`` is InvalidConfig, and a
    session that is not a HandshakeResult is NotEstablished.
    """
    session = of_type("session", session, HandshakeResult, NotEstablished)
    if (session.peripheral.phase is not Phase.ESTABLISHED
            or session.central.phase is not Phase.ESTABLISHED):
        raise NotEstablished("handshake has not completed")
    if not isinstance(payload, (bytes, bytearray)):
        raise InvalidConfig(f"payload must be bytes or bytearray, got {type(payload).__name__}")
    frames, budget = _transfer(
        session.trace.clock_us, (OP_PAYLOAD, len(payload) + AEAD_OVERHEAD_BYTES, False),
        session.cfg)
    energy = transfer_energy(budget, session.profile, session.gamma)
    return FrameTrace((frames,), frames.clock), energy
