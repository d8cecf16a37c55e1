#!/usr/bin/env python3
"""Check the alignment rule of ``pqke_total`` on every ``(att_mtu, ll_pdu)`` pair that
``LinkConfig`` accepts, for the three ML-KEM sets under both IFS slot counts.

Two facts are checked, each on the one-byte steps of one axis:

* no one-byte ``ll_pdu`` step raises ``e_total``: a larger frame cap never costs more;
* the worst one-byte ``att_mtu`` step is ML-KEM-512 at LL 27, ATT 23 -> 24: +33.39%
  under two slots and +27.87% under one. Each 27 B SDU fills one frame at ATT 23 and
  needs a second frame at ATT 24.

``tests/test_energy.py`` checks both on a sampled grid. This script checks all
111,375 pairs x 3 schemes x 2 slot counts, about 668,000 handshakes, in one process.
Its stdout ends quietly when its reader goes, as the ``pqpan`` commands' does.

Usage: python scripts/alignment_rule.py
"""

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pqpan.cli import _discard_stdout, _print, _StdoutClosed  # noqa: E402
from pqpan.energy import pqke_total  # noqa: E402
from pqpan.link import ATT_MTU_MAX, ATT_MTU_MIN, LL_PDU_MAX, LL_PDU_MIN, LinkConfig  # noqa: E402

SCHEMES = ("ML-KEM-512", "ML-KEM-768", "ML-KEM-1024")
#: The worst one-byte att_mtu step per slot count: (scheme, ll_pdu, att_mtu before the
#: step, rise of e_total in percent, to two places).
WORST_ATT_STEP = {2: ("ML-KEM-512", 27, 23, 33.39), 1: ("ML-KEM-512", 27, 23, 27.87)}


def grid_steps(ifs_slots: int, atts: range, lls: range) -> tuple[list[str], tuple]:
    """(a line per one-byte ll_pdu step that raises e_total, and the worst one-byte
    att_mtu step as (rise, scheme, ll_pdu, att_mtu before it)) over ``atts`` x ``lls``,
    each a range of consecutive values, for every scheme of SCHEMES."""
    rising, worst = [], (-math.inf,)
    for scheme in SCHEMES:
        below = None  # e_total at the previous att_mtu, by ll_pdu
        for att in atts:
            row = [pqke_total(scheme, LinkConfig(att_mtu=att, ll_pdu=ll,
                                                 ifs_slots=ifs_slots)).e_total for ll in lls]
            rising += [f"{scheme} ifs_slots={ifs_slots} att_mtu={att}: ll_pdu {ll} -> {ll + 1} "
                       f"raises e_total {before!r} -> {after!r}"
                       for ll, before, after in zip(lls, row, row[1:]) if after > before]
            if below is not None:
                worst = max(worst, *((after / before - 1, scheme, ll, att - 1)
                                     for ll, before, after in zip(lls, below, row)))
            below = row
    return rising, worst


def main() -> int:
    start = time.perf_counter()
    lines, failed = [], False
    for ifs_slots, expected in WORST_ATT_STEP.items():
        rising, (rise, scheme, ll, att) = grid_steps(
            ifs_slots, range(ATT_MTU_MIN, ATT_MTU_MAX + 1), range(LL_PDU_MIN, LL_PDU_MAX + 1))
        found = (scheme, ll, att, round(100 * rise, 2))
        failed |= bool(rising) or found != expected
        lines += rising[:20]
        lines.append(f"ifs_slots={ifs_slots}: {len(rising)} rising ll_pdu steps; worst att_mtu "
                     f"step {scheme} LL {ll}, ATT {att} -> {att + 1}, +{100 * rise:.2f}%"
                     + ("" if found == expected else f", expected {expected}"))
    lines.append(f"{len(SCHEMES) * len(WORST_ATT_STEP)} scheme grids in "
                 f"{time.perf_counter() - start:.1f} s")
    try:
        for line in lines:
            _print(line)
    except _StdoutClosed:  # the reader has gone: the rest goes to the null device
        _discard_stdout()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
