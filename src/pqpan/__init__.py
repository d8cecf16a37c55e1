"""Energy model and deterministic handshake simulator for post-quantum key
establishment over BLE-class low-power links.

Importing the package loads no layer: each exported name, and each layer
module below, is imported on first use and then kept in the package
namespace, so later lookups never reach ``__getattr__``.
"""

import importlib

__version__ = "0.1.0"

#: Layer module -> the names the package exports from it.
_LAYERS = {
    "errors": ("ConsistencyError", "InvalidConfig", "InvalidProfile", "NotEstablished",
               "ParseError", "PqpanError", "SingularSystem", "SizeMismatch",
               "UnknownScheme", "UnsupportedScheme"),
    "reference": ("CalibrationFactors", "KemParamSet", "ReferenceEnergyRow",
                  "default_calibration", "load_reference_table", "load_schemes",
                  "lookup_scheme"),
    "link": ("FragmentationPlan", "LinkConfig", "LinkFrame", "TimeBudget", "airtime",
             "plan_counts", "plan_transfer"),
    "kem": ("Encapsulation", "KemKeyPair", "SessionKey", "decapsulate",
            "derive_session_key", "encapsulate", "get_backend", "keygen"),
    "energy": ("AEAD_OVERHEAD_BYTES", "CycleCounts", "ECDH_PAIRING_UJ", "EnergyBreakdown",
               "FITTED_RADIO_PROFILE", "FitResult", "RadioProfile", "fit_radio_currents",
               "load_cycle_counts", "pqke_total", "session_energy"),
    "sim": ("EnergyLedger", "FrameTrace", "HandshakeResult", "PartyState", "Phase", "Role",
            "run_handshake", "send_secured_payload"),
    "config": ("ModelConfig", "load_config", "resolve_config"),
}
_EXPORTS = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _LAYERS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_LAYERS))
