#!/usr/bin/env python3
"""Handshake energy landscape across the configuration grid.

Prints one CSV row per (scheme, att_mtu, ll_pdu) cell with the calibrated
total, the computation/communication split, and the savings of enabling DLE
at the same ATT MTU. This is the data behind the stacked-breakdown and
session-cost views.

Usage: python scripts/energy_landscape.py [--payload BYTES]
"""

import argparse
import csv
import sys

from pqpan import ECDH_PAIRING_UJ, LinkConfig, pqke_total, session_energy
from pqpan.cli import _discard_stdout

SCHEMES = ["ML-KEM-512", "ML-KEM-768", "ML-KEM-1024"]
GRID = [(65, 27), (65, 69), (104, 27), (104, 108),
        (204, 27), (204, 208), (404, 27), (404, 251)]
DLE_FOR_ATT = {65: 69, 104: 108, 204: 208, 404: 251}


def write_grid(out) -> None:
    """The grid CSV, one row per (scheme, att_mtu, ll_pdu) cell, to ``out``."""
    writer = csv.writer(out)
    writer.writerow(["scheme", "att_mtu", "ll_pdu", "total_uJ", "comp_uJ",
                     "comm_uJ", "comm_share", "dle_savings_pct", "vs_ecdh"])
    for scheme in SCHEMES:
        for att, ll in GRID:
            bd = pqke_total(scheme, LinkConfig(att_mtu=att, ll_pdu=ll))
            comm = bd.adj_notify_pk + bd.adj_write_ct
            comp = bd.adj_keygen + bd.adj_decap
            if ll == 27:
                dle = pqke_total(scheme, LinkConfig(att_mtu=att, ll_pdu=DLE_FOR_ATT[att]))
                savings = f"{(bd.e_total - dle.e_total) / bd.e_total * 100:.1f}"
            else:
                savings = ""
            writer.writerow([scheme, att, ll, f"{bd.e_total:.2f}", f"{comp:.2f}",
                             f"{comm:.2f}", f"{bd.comm_share:.3f}", savings,
                             f"{bd.e_total / ECDH_PAIRING_UJ:.2f}x"])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--payload", type=int, default=1024,
                        help="payload size for the session summary (bytes)")
    args = parser.parse_args()

    try:
        write_grid(sys.stdout)
        sys.stdout.flush()  # a reader that has gone shows here, not at interpreter exit
    except BrokenPipeError:
        # The reader of stdout has gone, as `head` does after its lines: end
        # quietly, as `pqpan` does.
        _discard_stdout()
        return 0

    print(file=sys.stderr)
    print(f"session totals for a {args.payload} B payload "
          f"(ATT 404 / LL 251):", file=sys.stderr)
    for sec in ("none", "ecdh", *SCHEMES):
        total = session_energy(sec, args.payload, LinkConfig(att_mtu=404, ll_pdu=251))
        print(f"  {sec:<12} {total:9.2f} uJ", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
