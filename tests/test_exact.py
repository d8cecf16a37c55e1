"""The trace clock against exact rationals.

Each frame time the simulator reports is compared with the exact value of its
own formula: the sum, over every frame before it, of the frame's bytes on air
at ``phy_rate`` and the gap after it. The frames come from the byte-stream
oracle, not from ``pqpan.link``. The link's ``phy_rate`` and ``ifs`` are read
with :class:`fractions.Fraction` as the decimals they print as, so the default
link's 150 µs is exactly 150, and the sums run on integers over one common
denominator.

On the default link every frame's air time and gap are whole microseconds, and
every time must equal its exact value. On a link whose bit time and IFS are
not whole microseconds, the error is bounded in units in the last place (ulp)
of the reported time, and the bound holds for a few frames as for a hundred
thousand.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

from pqpan import (AEAD_OVERHEAD_BYTES, LinkConfig, lookup_scheme, run_handshake,
                   send_secured_payload)
from chunking_oracle import byte_stream_frames

LL_OVERHEAD = 10
#: The largest payload one transfer carries: 1 MiB once sealed.
PAYLOAD_MAX = (1 << 20) - AEAD_OVERHEAD_BYTES
#: 80/3 µs a byte and an IFS of 100/7 µs: neither is a whole number. A running
#: float sum of the same steps drifts by about 24,000 ulp over 1 MiB here.
ODD_LINK = dict(phy_rate=3e5, ifs=1e-4 / 7)
#: Bound on the error off whole microseconds, in ulp of the reported time. The
#: largest measured is 5.4 ulp, over 209 cells of this link and 80 cells each
#: of 12 random ones.
ODD_LINK_ULP = 8


def _cells(n, seed):
    rng = random.Random(seed)
    return [(rng.choice(["ml-kem-512", "ml-kem-768", "ml-kem-1024"]), rng.randint(23, 517),
             rng.randint(27, 251), rng.choice([1, 2]), rng.randint(0, 4096)) for _ in range(n)]


@functools.lru_cache(maxsize=None)
def _oracle_frames(size, att_mtu, ll_pdu):
    return tuple(byte_stream_frames(size, att_mtu, ll_pdu))


def exact_times(scheme, payload, cfg):
    """The exact start of every frame of a handshake and its payload, sent from
    time 0, and the clock after the last frame's gap: ``(numerators, clock
    numerator, unit)``, where each time is ``numerator / unit`` µs."""
    per_byte = Fraction(8 * 10 ** 6) / Fraction(repr(cfg.phy_rate))
    ifs = Fraction(repr(cfg.ifs)) * 10 ** 6
    unit = math.lcm(per_byte.denominator, ifs.denominator)

    def ticks(n_bytes, gaps):  # a frame's air time and the gaps after it, in 1/unit µs
        return int((per_byte * n_bytes + ifs * gaps) * unit)

    ack = ticks(LL_OVERHEAD, cfg.ifs_slots - 1)
    data = {}
    t, times = 0, []
    sizes = [size for _, size, _ in lookup_scheme(scheme).transfers()]
    for size in sizes + [payload + AEAD_OVERHEAD_BYTES]:
        for frame in _oracle_frames(size, cfg.att_mtu, cfg.ll_pdu):
            if frame not in data:
                data[frame] = ticks(frame + LL_OVERHEAD, 1)
            times.append(t)
            t += data[frame]
            times.append(t)
            t += ack
    return times, t, unit


def simulated(scheme, payload, cfg):
    """(every frame time, the clock after the payload, the payload's JSONL)."""
    session = run_handshake(scheme, cfg)
    delta, _ = send_secured_payload(session, bytes(payload))
    trace = session.trace + delta
    return [record.time_us for record in trace.records], trace.clock_us, delta.to_jsonl()


def ulps(got: float, numerator: int, unit: int) -> float:
    """|got - numerator / unit| in ulp of ``got``, from exact integer products."""
    num, den = got.as_integer_ratio()
    ulp_num, ulp_den = math.ulp(got).as_integer_ratio()
    return abs(num * unit - numerator * den) * ulp_den / (den * unit * ulp_num)


@pytest.mark.parametrize("cell", _cells(24, seed=1), ids=str)
def test_default_link_times_are_exact(cell):
    scheme, att, ll, slots, payload = cell
    cfg = LinkConfig(att_mtu=att, ll_pdu=ll, ifs_slots=slots)
    times, clock, _ = simulated(scheme, payload, cfg)
    want, want_clock, unit = exact_times(scheme, payload, cfg)
    assert unit == 1 and times == want and clock == want_clock


def test_largest_payload_times_are_exact():
    # 1 MiB in 20-byte SDUs on (23, 27): over 100,000 frames, where a running
    # float sum in seconds drifts by hundreds of ulp. The JSONL prints the
    # same times.
    cfg = LinkConfig(att_mtu=23, ll_pdu=27)
    times, clock, jsonl = simulated("ml-kem-512", PAYLOAD_MAX, cfg)
    want, want_clock, unit = exact_times("ml-kem-512", PAYLOAD_MAX, cfg)
    assert len(times) > 100_000
    assert unit == 1 and times == want and clock == want_clock
    lines = jsonl.splitlines()
    assert [float(line[len('{"time_us": '):line.index(",")]) for line in lines] \
        == times[-len(lines):]


@pytest.mark.parametrize("cell", _cells(8, seed=2) + [("ml-kem-512", 23, 27, 2, PAYLOAD_MAX)],
                         ids=str)
def test_times_off_whole_microseconds_stay_within_a_few_ulp(cell):
    scheme, att, ll, slots, payload = cell
    cfg = LinkConfig(att_mtu=att, ll_pdu=ll, ifs_slots=slots, **ODD_LINK)
    times, clock, _ = simulated(scheme, payload, cfg)
    want, want_clock, unit = exact_times(scheme, payload, cfg)
    assert len(times) == len(want) and times[0] == want[0] == 0
    assert max(ulps(t, n, unit) for t, n in zip(times[1:], want[1:])) <= ODD_LINK_ULP
    assert ulps(clock, want_clock, unit) <= ODD_LINK_ULP


@pytest.mark.parametrize("phy_rate", [1e6, 2e6, 3e5, 125e3, 1e3, 1e9, 7.77e5])
def test_microsecond_air_time_is_seconds_on_air_within_one_ulp(phy_rate):
    cfg = LinkConfig(att_mtu=23, ll_pdu=27, phy_rate=phy_rate)
    for n_bytes in range(LL_OVERHEAD, 251 + LL_OVERHEAD + 1):
        air_us, _ = cfg.frame_us(n_bytes, False)
        assert abs(air_us - cfg.seconds_on_air(n_bytes) * 1e6) <= math.ulp(air_us)
