"""Independent output oracle for the benchmark.

Re-derives fragmentation counts, on-air bytes, radio-state times and
energies from the framing rules by integer arithmetic. It never calls
``pqpan.link`` or ``pqpan.energy`` formulas, so a check cannot pass merely
because both sides share code. Only calibration inputs (radio currents,
calibration factors, cycle counts) are read from the package, once, by
:func:`model_params`; run ``python bench/oracle.py`` to print them as JSON.

Framing rules: an N-byte artifact is cut into ATT PDUs of at most
``att_mtu - 3`` value bytes; each gets 3 B ATT + 4 B L2CAP headers and is
split into link-layer data PDUs of at most ``ll_pdu`` bytes; every data PDU
costs 10 B on air and is answered by a 10 B empty ack. So the sender sends
``N + 7*n_att + 10*n_ll`` bytes, receives ``10*n_ll`` bytes and waits
``ifs_slots * n_ll`` inter-frame spaces.
"""

from __future__ import annotations

import json

ATT_SDU_HEADERS = 3 + 4
LL_OVERHEAD = 10
AEAD_OVERHEAD = 16 + 12
ECDH_PAIRING_UJ = 328.0
#: Bluetooth LE 1M PHY bit rate and inter-frame space (Core spec, Vol 6 B 4.1).
PHY_RATE = 1_000_000.0
T_IFS = 150e-6

#: FIPS 203 artifact sizes: public key, ciphertext, NIST level.
KEMS = {
    "ML-KEM-512": (800, 768, 1),
    "ML-KEM-768": (1184, 1088, 3),
    "ML-KEM-1024": (1568, 1568, 5),
}

#: Relative tolerance for comparing an energy against the oracle.
REL_TOL = 1e-9


def frame_counts(size: int, att_mtu: int, ll_pdu: int) -> tuple[int, int]:
    """(ATT PDUs, link-layer data PDUs) for a ``size``-byte artifact."""
    value_cap = att_mtu - 3
    full, rest = divmod(size, value_cap)
    per_full = (value_cap + ATT_SDU_HEADERS + ll_pdu - 1) // ll_pdu
    n_att, n_ll = full, full * per_full
    if rest:
        n_att += 1
        n_ll += (rest + ATT_SDU_HEADERS + ll_pdu - 1) // ll_pdu
    return n_att, n_ll


def comm_uj(size: int, att_mtu: int, ll_pdu: int, ifs_slots: int, p: dict,
            receiver: bool = False) -> float:
    """Uncalibrated radio energy (uJ) of one transfer for sender or receiver."""
    n_att, n_ll = frame_counts(size, att_mtu, ll_pdu)
    t_data = 8.0 * (size + ATT_SDU_HEADERS * n_att + LL_OVERHEAD * n_ll) / PHY_RATE
    t_ack = 8.0 * (LL_OVERHEAD * n_ll) / PHY_RATE
    t_ifs = ifs_slots * n_ll * T_IFS
    i_data, i_ack = (p["i_rx"], p["i_tx"]) if receiver else (p["i_tx"], p["i_rx"])
    return p["voltage"] * (i_data * t_data + i_ack * t_ack + p["i_ifs"] * t_ifs) * 1e6


def comp_uj(cycles: int, p: dict) -> float:
    return p["i_mcu"] * p["voltage"] * cycles / p["f_mcu"] * 1e6


def handshake(scheme: str, att_mtu: int, ll_pdu: int, ifs_slots: int, p: dict,
              include_encap: bool = False) -> dict:
    """Raw per-phase energies and the calibrated total for the peripheral."""
    pk, ct, level = KEMS[scheme]
    keygen, encap, decap = p["cycles"][scheme]
    raw = {
        "keygen": comp_uj(keygen, p),
        "decap": comp_uj(decap, p),
        "notify_pk": comm_uj(pk, att_mtu, ll_pdu, ifs_slots, p),
        "write_ct": comm_uj(ct, att_mtu, ll_pdu, ifs_slots, p, receiver=True),
    }
    total = (p["gamma_keygen"][str(level)] * raw["keygen"]
             + p["gamma_decap"][str(level)] * raw["decap"]
             + p["gamma_comm"] * (raw["notify_pk"] + raw["write_ct"]))
    if include_encap:
        raw["encap"] = comp_uj(encap, p)
        total += raw["encap"]
    return {"raw": raw, "total": total}


def session(security: str, payload: int, att_mtu: int, ll_pdu: int, ifs_slots: int,
            p: dict) -> float:
    """Pairing plus one notified payload, calibrated, in uJ."""
    if security == "none":
        pairing, artifact = 0.0, payload
    elif security == "ecdh":
        pairing, artifact = ECDH_PAIRING_UJ, payload + AEAD_OVERHEAD
    else:
        pairing = handshake(security, att_mtu, ll_pdu, ifs_slots, p)["total"]
        artifact = payload + AEAD_OVERHEAD
    if payload == 0:
        return pairing
    return pairing + p["gamma_comm"] * comm_uj(artifact, att_mtu, ll_pdu, ifs_slots, p)


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def model_params() -> dict:
    """Calibration inputs of the installed package as plain JSON data."""
    import pqpan

    prof = pqpan.FITTED_RADIO_PROFILE
    gamma = pqpan.default_calibration()
    cycles = pqpan.load_cycle_counts()
    return {
        "voltage": prof.voltage, "i_tx": prof.i_tx, "i_rx": prof.i_rx,
        "i_ifs": prof.i_ifs, "i_mcu": prof.i_mcu, "f_mcu": prof.f_mcu,
        "gamma_comm": gamma.gamma_comm,
        "gamma_keygen": {str(k): v for k, v in gamma.gamma_keygen.items()},
        "gamma_decap": {str(k): v for k, v in gamma.gamma_decap.items()},
        "cycles": {name: [cycles[name].keygen, cycles[name].encap, cycles[name].decap]
                   for name in KEMS},
    }


if __name__ == "__main__":
    print(json.dumps(model_params()))
