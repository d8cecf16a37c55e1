"""Model configuration files.

A config file is a JSON object that can override any modeling default:

.. code-block:: json

    {
      "voltage": 3.0, "i_tx": 6.44e-3, "i_rx": 6.08e-3, "i_ifs": 3.03e-3,
      "i_mcu": 3.0e-3, "f_mcu": 64e6,
      "phy_rate": 1e6, "ifs": 150e-6, "ifs_slots": 2,
      "gamma_comm": 1.15,
      "gamma_keygen": {"1": 1.27, "3": 1.38, "5": 1.62},
      "gamma_decap": {"1": 1.12, "3": 1.19, "5": 1.32},
      "cycles_file": "my_cycles.csv",
      "kem_backend": "stub"
    }

All keys are optional; currents are amperes, times seconds, frequencies Hz.
``cycles_file`` is resolved relative to the config file. The report written
by ``pqpan fit`` is itself a valid config (its nested ``profile`` object is
recognized), so a fitted profile can be fed straight back via ``--config``.
The ``PQPAN_PROFILE`` environment variable names a fallback config path used
when ``--config`` is absent.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

from .energy import CycleCounts, FITTED_RADIO_PROFILE, RadioProfile, load_cycle_counts
from .errors import InvalidConfig
from .reference import CalibrationFactors, default_calibration

ENV_PROFILE = "PQPAN_PROFILE"

_PROFILE_KEYS = ("voltage", "i_tx", "i_rx", "i_ifs", "i_mcu", "f_mcu")
_LINK_KEYS = ("phy_rate", "ifs", "ifs_slots")
_OTHER_KEYS = ("gamma_comm", "gamma_keygen", "gamma_decap", "cycles_file",
               "kem_backend")
#: Keys the fit report adds around its profile; ignored on load.
_REPORT_KEYS = ("profile", "provenance", "residuals", "max_abs_rel_err",
                "mean_abs_rel_err", "candidates_max_abs_rel_err")


@dataclass(frozen=True)
class ModelConfig:
    """Resolved modeling defaults shared by the CLI commands."""

    profile: RadioProfile
    gamma: CalibrationFactors
    cycles: dict[str, CycleCounts]
    phy_rate: float = 1_000_000.0
    ifs: float = 150e-6
    ifs_slots: int = 2
    kem_backend: str = "stub"


def default_config() -> ModelConfig:
    return ModelConfig(profile=FITTED_RADIO_PROFILE, gamma=default_calibration(),
                       cycles=load_cycle_counts())


def _gamma_table(data: dict, key: str, default: dict[int, float]) -> dict[int, float]:
    raw = data.get(key, default)
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{key} must map security levels to factors")
    try:
        return {int(level): _number(raw, level, None) for level in raw}
    except (InvalidConfig, ValueError):
        raise InvalidConfig(f"{key} has a non-numeric entry") from None


def _number(data: dict, key: str, default):
    """``data[key]`` as a float, or ``default`` when absent."""
    try:
        if type(value := data.get(key, default)) in (int, float):  # not bool, str or None
            return float(value)
    except OverflowError:
        pass
    raise InvalidConfig(f"{key} must be a number, got {value!r}")


def load_config(path: str | Path) -> ModelConfig:
    """Load a JSON config file on top of the package defaults."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise InvalidConfig(f"{path}: config must be a JSON object")

    if isinstance(data.get("profile"), dict):
        # Fit-report layout: hoist the nested profile, keep top-level knobs.
        nested = data["profile"]
        data = {k: v for k, v in data.items() if k not in _REPORT_KEYS}
        data.update(nested)

    known = set(_PROFILE_KEYS) | set(_LINK_KEYS) | set(_OTHER_KEYS)
    unknown = set(data) - known
    if unknown:
        raise InvalidConfig(f"{path}: unknown config keys {sorted(unknown)}")

    base = default_config()
    profile_overrides = {k: _number(data, k, None) for k in _PROFILE_KEYS if k in data}
    profile = replace(base.profile, **profile_overrides) if profile_overrides else base.profile

    gamma = CalibrationFactors(
        gamma_keygen=_gamma_table(data, "gamma_keygen", base.gamma.gamma_keygen),
        gamma_decap=_gamma_table(data, "gamma_decap", base.gamma.gamma_decap),
        gamma_comm=_number(data, "gamma_comm", base.gamma.gamma_comm))

    cycles = base.cycles
    if "cycles_file" in data:
        if not isinstance(data["cycles_file"], str) or "\0" in data["cycles_file"]:
            raise InvalidConfig(f"cycles_file must be a path string, got {data['cycles_file']!r}")
        cycles_path = Path(data["cycles_file"])
        if not cycles_path.is_absolute():
            cycles_path = path.parent / cycles_path
        cycles = load_cycle_counts(str(cycles_path))

    ifs_slots = data.get("ifs_slots", base.ifs_slots)
    if isinstance(ifs_slots, bool) or ifs_slots not in (1, 2):  # no truncation
        raise InvalidConfig(f"ifs_slots must be 1 or 2, got {ifs_slots!r}")

    return ModelConfig(
        profile=profile, gamma=gamma, cycles=cycles,
        phy_rate=_number(data, "phy_rate", base.phy_rate),
        ifs=_number(data, "ifs", base.ifs),
        ifs_slots=int(ifs_slots),
        kem_backend=str(data.get("kem_backend", base.kem_backend)),
    )


def resolve_config(explicit_path: str | None) -> ModelConfig:
    """Pick the active config: --config flag, then $PQPAN_PROFILE, then defaults."""
    path = explicit_path or os.environ.get(ENV_PROFILE)
    return load_config(path) if path else default_config()
