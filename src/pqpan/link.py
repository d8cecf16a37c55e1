"""Byte-exact link-layer transfer model.

An application artifact of N bytes is cut into ATT PDUs (each carrying at
most ``att_mtu - 3`` value bytes under a 3 B ATT header), wrapped in a 4 B
L2CAP header, and segmented into link-layer data PDUs of at most ``ll_pdu``
payload bytes. Every data PDU costs a fixed 10 B of link-layer overhead on
air and is answered by an empty (overhead-only) acknowledgement frame;
consecutive frames are separated by the inter-frame spacing.

:func:`sdu_layout` is the only code that applies this rule. Chunking is
greedy, so a transfer is some number of identical full SDUs followed by one
last SDU; the layout gives the value bytes and data-frame payload sizes of
each, and the frame counts, the frame sequence, the simulator's steps and
its reassembly all derive from it.

The timing rules are :class:`LinkConfig` methods: N bytes are on air for
``8 * N / phy_rate`` seconds, and the IFS accounting sets the gaps after a
data frame and its ack. :func:`airtime` and the simulator both use them.

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

#: One SDU of a layout: (value bytes, payload sizes of its data frames).
Sdu = tuple[int, tuple[int, ...]]


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

    def seconds_on_air(self, n_bytes: int) -> float:
        """Seconds that ``n_bytes`` take on air at ``phy_rate``."""
        return 8.0 * n_bytes / self.phy_rate

    def gap_after(self, is_ack: bool) -> float:
        """One ``ifs`` follows a data frame; one follows its ack only under
        two-slot accounting."""
        return self.ifs if not is_ack or self.ifs_slots == 2 else 0.0


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
    """Ordered frame sequence for one artifact transfer."""

    __slots__ = ("frames", "ll_data_pdu_count")


class TimeBudget(Value):
    """Sender-side radio-on times for one transfer, in seconds.

    ``t_tx`` covers data frames, ``t_rx`` the returning acks, ``t_ifs`` the
    cumulative inter-frame spacing.
    """

    __slots__ = ("t_tx", "t_rx", "t_ifs")


def sdu_layout(artifact_size: int, cfg: LinkConfig) -> tuple[Sdu, int, Sdu]:
    """The SDUs of one artifact: ``((value B, frame payload sizes) of a full
    SDU, number of full SDUs, (value B, frame payload sizes) of the last SDU)``.

    Every SDU but the last carries the full ``att_mtu - 3`` value bytes; each
    gains the 7 B ATT + L2CAP headers and is split into maximal ``ll_pdu``
    frames, then its tail frame.
    """
    artifact_size = int_in_range("artifact_size", artifact_size, 1, ARTIFACT_MAX)
    chunk = cfg.att_mtu - ATT_HEADER
    n_full, last = divmod(artifact_size - 1, chunk)

    def frames(value: int) -> tuple[int, ...]:
        n, tail = divmod(value + SDU_HEADERS, cfg.ll_pdu)
        return (cfg.ll_pdu,) * n + (tail,) * (tail > 0)

    return (chunk, frames(chunk)), n_full, (last + 1, frames(last + 1))


def plan_counts(artifact_size: int, cfg: LinkConfig) -> tuple[int, int]:
    """(ATT PDUs, link-layer data PDUs) of an artifact, counted from its layout."""
    (_, full), n_full, (_, last) = sdu_layout(artifact_size, cfg)
    return n_full + 1, n_full * len(full) + len(last)


def plan_transfer(artifact_size: int, cfg: LinkConfig) -> FragmentationPlan:
    """The full frame sequence of one transfer: each data frame of the layout,
    in order, followed by an empty ack."""
    (_, full), n_full, (_, last) = sdu_layout(artifact_size, cfg)
    ack = LinkFrame(0, is_ack=True)
    data = {size: LinkFrame(size) for size in {*full, *last}}

    def sdu(sizes: tuple[int, ...]) -> tuple[LinkFrame, ...]:
        return tuple(f for size in sizes for f in (data[size], ack))

    frames = sdu(full) * n_full + sdu(last)
    return FragmentationPlan(frames=frames, ll_data_pdu_count=len(frames) // 2)


def airtime(artifact_size: int, cfg: LinkConfig) -> TimeBudget:
    """The sender-side time budget of one artifact: the data frames' and the
    acks' bytes on air, and both gaps of every data/ack exchange."""
    plan = plan_transfer(artifact_size, cfg)
    tx_bytes = sum(f.on_air_bytes for f in plan.frames if not f.is_ack)
    rx_bytes = sum(f.on_air_bytes for f in plan.frames if f.is_ack)
    return TimeBudget(cfg.seconds_on_air(tx_bytes), cfg.seconds_on_air(rx_bytes),
                      plan.ll_data_pdu_count * (cfg.gap_after(False) + cfg.gap_after(True)))
