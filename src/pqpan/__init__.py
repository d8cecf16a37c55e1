"""Energy model and deterministic handshake simulator for post-quantum key
establishment over BLE-class low-power links."""

from .errors import (ConsistencyError, HandshakeFailure, InvalidConfig,
                     InvalidProfile, NotEstablished, ParseError, PqpanError,
                     SingularSystem, SizeMismatch, UnknownScheme,
                     UnsupportedScheme)
from .reference import (CalibrationFactors, KemParamSet, ReferenceEnergyRow,
                        default_calibration, identity_calibration, load_reference_table,
                        load_schemes, lookup_scheme, save_reference_table)
from .link import (FragmentationPlan, LinkConfig, LinkFrame, TimeBudget, airtime,
                   bytes_on_air, plan_counts, plan_transfer)
from .kem import (Encapsulation, KemKeyPair, SessionKey, decapsulate,
                  derive_session_key, encapsulate, get_backend, keygen)
from .energy import (AEAD_OVERHEAD_BYTES, CycleCounts, ECDH_PAIRING_UJ,
                     EnergyBreakdown, FITTED_RADIO_PROFILE, FitResult, RadioProfile,
                     comm_energy, comp_energy, fit_radio_currents, handshake_breakdown,
                     load_cycle_counts, pqke_total, session_energy, transfer_energy)
from .sim import (EnergyLedger, FrameTrace, HandshakeResult, PartyState, Phase,
                  Role, run_handshake, send_secured_payload)
from .config import ModelConfig, load_config, resolve_config

__version__ = "0.1.0"
