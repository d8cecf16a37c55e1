"""Byte-exact link-layer transfer model.

An application artifact of N bytes is cut into ATT PDUs (each carrying at
most ``att_mtu - 3`` value bytes under a 3 B ATT header), wrapped in a 4 B
L2CAP header, and segmented into link-layer data PDUs of at most ``ll_pdu``
payload bytes. Every data PDU costs a fixed 10 B of link-layer overhead on
air and is answered by an empty (overhead-only) acknowledgement frame;
consecutive frames are separated by the inter-frame spacing.

The model is analytical: frames are never lost, reordered, or retransmitted,
and connection-event scheduling is not represented. All functions here are
pure and operate on value types.
"""

from __future__ import annotations

from .errors import InvalidConfig, Value, int_in_range, real_in_range, set_field

ATT_HEADER = 3
L2CAP_HEADER = 4
LL_OVERHEAD = 10
SDU_HEADERS = ATT_HEADER + L2CAP_HEADER

#: Modeled ranges (bytes, bit/s, seconds). 517 B is the largest useful ATT_MTU
#: (512 B attribute value, Bluetooth Core Specification Vol 3 Part F).
ATT_MTU_MIN, ATT_MTU_MAX = 23, 517
LL_PDU_MIN, LL_PDU_MAX = 27, 251
PHY_RATE_MIN, PHY_RATE_MAX = 1e3, 1e9
IFS_MAX = 10e-3
#: Largest artifact one transfer carries (1 MiB), so its frames fit in memory.
ARTIFACT_MAX = 1 << 20


class LinkConfig(Value):
    """Link parameters for one transfer, each within its modeled range;
    ``att_mtu``, ``ll_pdu`` and ``ifs_slots`` are integers.

    The analytical model converts bytes to airtime directly and does not
    schedule connection events. ``ifs_slots`` is the number of inter-frame
    gaps charged per data/ack exchange (2 = data, gap, ack, gap).
    """

    __slots__ = ("att_mtu", "ll_pdu", "phy_rate", "ifs", "ifs_slots")

    def __init__(self, att_mtu: int, ll_pdu: int, phy_rate: float = 1_000_000.0,
                 ifs: float = 150e-6, ifs_slots: int = 2):
        set_field(self, "att_mtu", int_in_range("att_mtu", att_mtu, ATT_MTU_MIN, ATT_MTU_MAX))
        set_field(self, "ll_pdu", int_in_range("ll_pdu", ll_pdu, LL_PDU_MIN, LL_PDU_MAX))
        set_field(self, "phy_rate",
                  real_in_range("phy_rate", phy_rate, PHY_RATE_MIN, PHY_RATE_MAX))
        set_field(self, "ifs", real_in_range("ifs", ifs, 0.0, IFS_MAX))
        set_field(self, "ifs_slots", int_in_range("ifs_slots", ifs_slots, 1, 2))

    @property
    def att_chunk(self) -> int:
        """Value bytes carried per ATT PDU."""
        return self.att_mtu - ATT_HEADER


class LinkFrame(Value):
    """A link-layer frame: data comes from the transfer's sender, acks from its receiver."""

    __slots__ = ("payload_bytes", "overhead_bytes", "is_ack")

    def __init__(self, payload_bytes: int, overhead_bytes: int = LL_OVERHEAD,
                 is_ack: bool = False):
        if is_ack and payload_bytes != 0:
            raise InvalidConfig("ack frames carry no payload")
        if payload_bytes < 0:
            raise InvalidConfig("payload_bytes must be non-negative")
        set_field(self, "payload_bytes", payload_bytes)
        set_field(self, "overhead_bytes", overhead_bytes)
        set_field(self, "is_ack", is_ack)

    @property
    def on_air_bytes(self) -> int:
        return self.payload_bytes + self.overhead_bytes


class FragmentationPlan(Value):
    """Ordered frame sequence for one artifact transfer.

    ``att_chunks`` records the value bytes carried by each ATT PDU, in order,
    so the artifact can be reconstructed chunk by chunk.
    """

    __slots__ = ("frames", "att_pdu_count", "ll_data_pdu_count", "att_chunks")

    def __init__(self, frames: tuple[LinkFrame, ...], att_pdu_count: int,
                 ll_data_pdu_count: int, att_chunks: tuple[int, ...] = ()):
        set_field(self, "frames", frames)
        set_field(self, "att_pdu_count", att_pdu_count)
        set_field(self, "ll_data_pdu_count", ll_data_pdu_count)
        set_field(self, "att_chunks", att_chunks)

    @property
    def ack_count(self) -> int:
        return sum(1 for f in self.frames if f.is_ack)

    def data_frames(self) -> tuple[LinkFrame, ...]:
        return tuple(f for f in self.frames if not f.is_ack)


class TimeBudget(Value):
    """Sender-side radio-on times for one plan, in seconds.

    ``t_tx`` covers data frames, ``t_rx`` the returning acks, ``t_ifs`` the
    cumulative inter-frame spacing.
    """

    __slots__ = ("t_tx", "t_rx", "t_ifs")

    def __init__(self, t_tx: float, t_rx: float, t_ifs: float):
        set_field(self, "t_tx", t_tx)
        set_field(self, "t_rx", t_rx)
        set_field(self, "t_ifs", t_ifs)


def plan_counts(artifact_size: int, cfg: LinkConfig) -> tuple[int, int]:
    """Closed-form (att_pdu_count, ll_data_pdu_count) for an artifact.

    Chunking is greedy: every ATT PDU but the last carries the full
    ``att_mtu - 3`` value bytes, and each 7-byte-headed SDU splits into
    ceil(sdu / ll_pdu) maximal link-layer frames.
    """
    artifact_size = int_in_range("artifact_size", artifact_size, 1, ARTIFACT_MAX)
    chunk = cfg.att_chunk
    n_att = -(-artifact_size // chunk)
    last_chunk = artifact_size - (n_att - 1) * chunk
    frames_full = -(-(chunk + SDU_HEADERS) // cfg.ll_pdu)
    frames_last = -(-(last_chunk + SDU_HEADERS) // cfg.ll_pdu)
    return n_att, (n_att - 1) * frames_full + frames_last


def plan_transfer(artifact_size: int, cfg: LinkConfig) -> FragmentationPlan:
    """Build the full frame sequence for transferring one artifact.

    Each data frame is followed by an empty ack. Frames are immutable, so the
    plan shares one object per distinct frame: the ack and at most three data
    frames (a full ``ll_pdu`` frame, the tail of a full SDU, the tail of the
    last SDU).
    """
    artifact_size = int_in_range("artifact_size", artifact_size, 1, ARTIFACT_MAX)
    ack = LinkFrame(0, is_ack=True)
    data: dict[int, LinkFrame] = {}

    def sdu_frames(chunk: int) -> tuple[LinkFrame, ...]:
        n_full, tail = divmod(chunk + SDU_HEADERS, cfg.ll_pdu)
        sizes = [cfg.ll_pdu] * n_full + [tail] * (tail > 0)
        for size in sizes:
            if size not in data:
                data[size] = LinkFrame(size)
        return tuple(f for size in sizes for f in (data[size], ack))

    chunk = cfg.att_chunk
    n_att = -(-artifact_size // chunk)
    last = artifact_size - (n_att - 1) * chunk
    frames = sdu_frames(chunk) * (n_att - 1) + sdu_frames(last)
    return FragmentationPlan(frames=frames, att_pdu_count=n_att,
                             ll_data_pdu_count=len(frames) // 2,
                             att_chunks=(chunk,) * (n_att - 1) + (last,))


def bytes_on_air(plan: FragmentationPlan) -> tuple[int, int]:
    """(tx_bytes, rx_bytes) at the PHY layer, from the sender's viewpoint."""
    tx = sum(f.on_air_bytes for f in plan.frames if not f.is_ack)
    rx = sum(f.on_air_bytes for f in plan.frames if f.is_ack)
    return tx, rx


def airtime(plan: FragmentationPlan, cfg: LinkConfig) -> TimeBudget:
    """Convert a plan's PHY bytes into the sender-side time budget.

    On-air time is 8 * bytes / phy_rate per frame; every data/ack exchange
    additionally costs ``cfg.ifs_slots`` inter-frame gaps.
    """
    tx_bytes, rx_bytes = bytes_on_air(plan)
    return TimeBudget(
        t_tx=8.0 * tx_bytes / cfg.phy_rate,
        t_rx=8.0 * rx_bytes / cfg.phy_rate,
        t_ifs=cfg.ifs_slots * plan.ll_data_pdu_count * cfg.ifs,
    )
