#!/usr/bin/env python3
"""Check the link's closed-form counts and its time budget against the byte-stream
oracle on every ``(att_mtu, ll_pdu)`` pair that ``LinkConfig`` accepts.

For each pair and each artifact size N, two values are compared:

* the ATT PDUs and link-layer data frames, from ``plan_counts`` and from the
  oracle of ``tests/chunking_oracle.py``, which frames one byte at a time;
* the time budget in µs, from ``airtime`` and from the oracle's frames: its
  data bytes (the frame payloads plus 10 B of overhead per frame) and its ack
  bytes (10 B per frame) priced by ``LinkConfig.air_us``, and both gaps of
  every data/ack exchange by ``LinkConfig.gap_us``, the link's one timing rule.

Why sizes 1..2*c suffice, with ``c = att_mtu - 3`` the value bytes of a full
SDU. Write f(N) for the oracle's integers (ATT PDUs, frames, data bytes, ack
bytes) and g(N) for the model's.

1. g steps by one full SDU: ``sdu_layout`` reads the size only through
   ``divmod(N - 1, c)``, and N + c has the same remainder and one more full
   SDU. So g(N + c) = g(N) + g(c) for every N >= 1: the counts gain one ATT
   PDU and a full SDU's frames, and the byte totals gain what c bytes alone
   cost. ``airtime`` takes its byte totals and frame count from that layout.
2. f steps the same way: after every c value bytes the oracle's ATT PDU is
   full, so the next byte opens a new one in a fresh frame, and no later byte
   reaches an earlier frame. The bytes after the first c are framed as an
   artifact of their own, after the first SDU's frames: f(N + c) = f(N) + f(c).
   This script checks that step for N in 1..c as well, from the oracle's
   output, so it is observed and not only argued.
3. f = g on 1..2c is checked: the counts directly, the byte totals through
   the budget's µs, on the default link exactly 8 µs a byte, so equal µs mean
   equal bytes. For
   N > 2c, by induction on N, f(N) = f(N - c) + f(c) = g(N - c) + g(c) = g(N).

So a pair that passes agrees with the byte stream at every size, up to
``ARTIFACT_MAX`` and beyond, for as long as ``airtime`` reads the size only
through the layout or the counts, as step 1 needs. The whole domain is
495 x 225 = 111,375 pairs and about 59.5 million sizes, checked in one process.

Usage: python scripts/chunking_domain.py
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from chunking_oracle import stream  # noqa: E402
from pqpan.link import (ATT_MTU_MAX, ATT_MTU_MIN, LL_PDU_MAX, LL_PDU_MIN,  # noqa: E402
                        LinkConfig, TimeBudget, airtime, plan_counts)

#: Mismatches printed before the summary line.
SHOWN = 20


def pair_mismatches(att_mtu: int, ll_pdu: int) -> tuple[int, list[str]]:
    """(sizes checked, a line per mismatch) for one pair, over sizes 1..2*c and the
    oracle's one-full-SDU step."""
    cfg = LinkConfig(att_mtu=att_mtu, ll_pdu=ll_pdu)
    gaps = cfg.gap_us(False) + cfg.gap_us(True)
    chunk = att_mtu - 3
    oracle = [(0, 0, 0, 0)]  # oracle[n]: (ATT PDUs, frames, data B, ack B) for n bytes
    bad = []
    for size, (n_att, frames) in enumerate(stream(2 * chunk, att_mtu, ll_pdu), start=1):
        n_ll = len(frames)
        oracle.append((n_att, n_ll, sum(frames) + 10 * n_ll, 10 * n_ll))
        _, _, data, ack = oracle[size]
        stream_side = ((n_att, n_ll), TimeBudget(cfg.air_us(data), cfg.air_us(ack),
                                                 n_ll * gaps))
        model = (plan_counts(size, cfg), airtime(size, cfg))
        if model != stream_side:
            bad.append(f"att_mtu={att_mtu} ll_pdu={ll_pdu} size={size}: "
                       f"model {model}, byte stream {stream_side}")
    for size in range(1, chunk + 1):
        step = tuple(a + b for a, b in zip(oracle[size], oracle[chunk]))
        if oracle[size + chunk] != step:
            bad.append(f"att_mtu={att_mtu} ll_pdu={ll_pdu} size={size + chunk}: byte stream "
                       f"{oracle[size + chunk]}, not one full SDU past size {size}, {step}")
    return 2 * chunk, bad


def main() -> int:
    start = time.perf_counter()
    pairs = sizes = mismatches = 0
    for att_mtu in range(ATT_MTU_MIN, ATT_MTU_MAX + 1):
        for ll_pdu in range(LL_PDU_MIN, LL_PDU_MAX + 1):
            checked, bad = pair_mismatches(att_mtu, ll_pdu)
            for line in bad[:max(SHOWN - mismatches, 0)]:
                print(line)
            pairs, sizes, mismatches = pairs + 1, sizes + checked, mismatches + len(bad)
    print(f"{pairs} pairs, {sizes} sizes: {mismatches} mismatches "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
