"""Wide-grid digest golden: every model and simulator output on a few hundred
link cells, each reduced to a short SHA-256 digest.

The 57 files under ``tests/golden/`` pin nine link cells in full. This test
pins the same outputs, as digests, over a seeded grid of the whole modeled
domain (every ML-KEM set, ``att_mtu`` 23..517, ``ll_pdu`` 27..251, both slot
counts, payloads up to the largest sealed artifact) plus hand-picked boundary
cells. A refactor that changes any of them must say why and refresh the
stored digests with

    PYTHONPATH=src python tests/test_grid_digest.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from pqpan import (AEAD_OVERHEAD_BYTES, LinkConfig, pqke_total, run_handshake,
                   send_secured_payload, session_energy)
from pqpan.link import ARTIFACT_MAX, ATT_MTU_MAX, ATT_MTU_MIN, LL_PDU_MAX, LL_PDU_MIN

DIGESTS = Path(__file__).resolve().parent / "grid_digests.txt"
SCHEMES = ("ML-KEM-512", "ML-KEM-768", "ML-KEM-1024")
PAYLOAD_MAX = ARTIFACT_MAX - AEAD_OVERHEAD_BYTES
RANDOM_CELLS = 240
#: Output kinds, in the order each cell's digests are stored and compared.
KINDS = ("pqke", "pqke_encap", "session_none", "session_ecdh", "session_kem",
         "trace", "ledger", "payload_trace", "payload_energy")


def _random_cells(rng: random.Random):
    for _ in range(RANDOM_CELLS):
        # Payload sizes are log-uniform so that every scale is drawn without
        # a typical cell sending hundreds of kilobytes.
        payload = min(PAYLOAD_MAX, int(2 ** rng.uniform(0, 17))) if rng.random() < 0.9 else 0
        yield (rng.choice(SCHEMES), rng.randint(ATT_MTU_MIN, ATT_MTU_MAX),
               rng.randint(LL_PDU_MIN, LL_PDU_MAX), rng.choice((1, 2)), payload)


def _boundary_cells():
    for att in (ATT_MTU_MIN, ATT_MTU_MIN + 1, ATT_MTU_MAX):
        for ll in (LL_PDU_MIN, LL_PDU_MAX):
            chunk = att - 3
            # A sealed payload of k chunks, and an unsealed one, each exactly
            # and one byte either side; plus the empty payload.
            sizes = {0}
            for k in (1, 2):
                for d in (-1, 0, 1):
                    sizes.add(k * chunk + d)
                    sizes.add(k * chunk - AEAD_OVERHEAD_BYTES + d)
            for payload in sorted(s for s in sizes if s >= 0):
                yield "ML-KEM-768", att, ll, 2, payload
    for scheme in SCHEMES:
        yield scheme, ATT_MTU_MIN, LL_PDU_MIN, 1, 1
    yield "ML-KEM-1024", ATT_MTU_MIN, LL_PDU_MIN, 2, PAYLOAD_MAX


def cells() -> list[tuple[str, int, int, int, int]]:
    return [*_random_cells(random.Random("pqpan-grid-digest")), *_boundary_cells()]


def cell_id(cell) -> str:
    scheme, att, ll, slots, payload = cell
    return f"{scheme.lower()}_{att}_{ll}_s{slots}_p{payload}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cell_digests(cell, seed: int) -> dict[str, str]:
    """Output kind -> digest of that output for one cell."""
    scheme, att, ll, slots, payload = cell
    cfg = LinkConfig(att_mtu=att, ll_pdu=ll, ifs_slots=slots)
    hs = run_handshake(scheme, cfg, seed=seed)
    delta, energy = send_secured_payload(hs, bytes(payload))
    outputs = {
        "pqke": repr(pqke_total(scheme, cfg)),
        "pqke_encap": repr(pqke_total(scheme, cfg, include_encap=True)),
        "session_none": repr(session_energy("none", payload, cfg)),
        "session_ecdh": repr(session_energy("ecdh", payload, cfg)),
        "session_kem": repr(session_energy(scheme, payload, cfg)),
        "trace": hs.trace.to_jsonl(),
        "ledger": json.dumps(hs.ledger.as_dict(), indent=2),
        "payload_trace": delta.to_jsonl(),
        "payload_energy": repr(energy),
    }
    return {kind: _digest(outputs[kind]) for kind in KINDS}


def compute() -> list[str]:
    """One line per cell: its id, then one digest per output kind."""
    return [" ".join((cell_id(cell), *cell_digests(cell, seed).values()))
            for seed, cell in enumerate(cells())]


def test_grid_outputs_match_stored_digests():
    stored = DIGESTS.read_text(encoding="utf-8").splitlines()
    got = compute()
    assert len(got) == len(stored), f"{len(got)} cells, {len(stored)} stored"
    for line, want in zip(got, stored):
        if line != want:
            cid, *digests = line.split()
            want_id, *want_digests = want.split()
            assert cid == want_id, f"cell {cid} stored as {want_id}"
            kind = next(k for k, a, b in zip(KINDS, digests, want_digests) if a != b)
            raise AssertionError(f"cell {cid}: {kind} differs from stored digest")


if __name__ == "__main__":
    DIGESTS.write_text("\n".join(compute()) + "\n", encoding="utf-8")
    print(f"wrote {len(cells())} cell digests to {DIGESTS}", file=sys.stderr)
