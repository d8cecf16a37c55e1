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
when ``--config`` is absent. Overrides, such as the CLI's ``--gamma-*`` and
``--ifs-slots`` flags, are config keys merged after the file. The loader only
parses: each value is checked by the type it configures, as a library argument is.
It reads a calibration table's decimal-string JSON keys as ints, and
``CalibrationFactors`` rules on every level key (ConsistencyError).
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from functools import partial

from .energy import FITTED_RADIO_PROFILE, RadioProfile, load_cycle_counts
from .errors import (ConsistencyError, InvalidConfig, InvalidProfile, Value, _shown, of_type,
                     one_of, path_str, read_only)
from .link import ATT_MTU_MIN, LL_PDU_MIN, LinkConfig
from .reference import CalibrationFactors, default_calibration, read_text

ENV_PROFILE = "PQPAN_PROFILE"
#: Names of the KEM backends ``kem.get_backend`` serves, for the ``kem_backend``
#: key and ``--backend``; defined here so that loading a config loads no KEM code.
BACKENDS = ("stub", "real")

_PROFILE_KEYS = ("voltage", "i_tx", "i_rx", "i_ifs", "i_mcu", "f_mcu")
_LINK_KEYS = ("phy_rate", "ifs", "ifs_slots")
_OTHER_KEYS = ("gamma_comm", "gamma_keygen", "gamma_decap", "cycles_file",
               "kem_backend")
#: Keys the fit report adds around its profile; ignored on load. Reports
#: written by earlier versions also carry ``candidates_max_abs_rel_err``, and
#: they must still load as ``--config``.
_REPORT_KEYS = ("profile", "provenance", "residuals", "max_abs_rel_err",
                "mean_abs_rel_err", "candidates_max_abs_rel_err")


class ModelConfig(Value):
    """Resolved modeling defaults for the CLI; each command sets ``link``'s att_mtu
    and ll_pdu. ``cycles`` is stored as a read-only copy."""

    __slots__ = ("profile", "gamma", "cycles", "link", "kem_backend")
    _defaults = {"kem_backend": "stub"}
    _checks = {"profile": partial(of_type, cls=RadioProfile, error=InvalidProfile),
               "gamma": partial(of_type, cls=CalibrationFactors, error=ConsistencyError),
               "cycles": read_only, "link": partial(of_type, cls=LinkConfig)}


def _level(level):
    """A calibration level key as a JSON object holds it, a decimal integer string,
    as an int; any other key is left for ``CalibrationFactors`` to check."""
    if isinstance(level, str) and level.isascii() and level.removeprefix("-").isdigit():
        return int(level)
    return level


def _once(pairs, name: str) -> dict:
    """``pairs`` as a dict, refusing a key given twice (``dict`` and ``json`` keep the last)."""
    table = {}
    for key, value in pairs:
        if key in table:
            raise InvalidConfig(f"{name} {_shown(key)} is given twice")
        table[key] = value
    return table


def _gamma_table(data: dict, key: str, default: Mapping[int, float]):
    raw = data.get(key, default)
    return (_once(((_level(level), g) for level, g in raw.items()), f"{key} level")
            if isinstance(raw, dict) else raw)


def load_config(path: str | os.PathLike | None = None,
                overrides: dict | None = None) -> ModelConfig:
    """The package defaults, then the JSON config file at ``path``, then
    ``overrides``: config keys that pass the same checks as the file's."""
    data = {}
    if path is not None:
        path = path_str("path", path)
        text = read_text(path)
        try:
            data = json.loads(text, object_pairs_hook=lambda pairs: _once(pairs, f"{path}: key"))
        except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
            raise InvalidConfig(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise InvalidConfig(f"{path}: config must be a JSON object")
        if isinstance(data.get("profile"), dict):
            # Fit-report layout: hoist the nested profile, keep top-level knobs.
            nested = data["profile"]
            data = {k: v for k, v in data.items() if k not in _REPORT_KEYS}
            data.update(nested)
    data.update({} if overrides is None else of_type("overrides", overrides, dict))
    known = set(_PROFILE_KEYS) | set(_LINK_KEYS) | set(_OTHER_KEYS)
    unknown = set(data) - known
    if unknown:
        raise InvalidConfig(f"{path or 'config'}: unknown config keys {sorted(unknown)}")

    profile = FITTED_RADIO_PROFILE.replace(**{k: data[k] for k in _PROFILE_KEYS if k in data})
    base = default_calibration()
    gamma = CalibrationFactors(
        gamma_keygen=_gamma_table(data, "gamma_keygen", base.gamma_keygen),
        gamma_decap=_gamma_table(data, "gamma_decap", base.gamma_decap),
        gamma_comm=data.get("gamma_comm", base.gamma_comm))
    link = LinkConfig(att_mtu=ATT_MTU_MIN, ll_pdu=LL_PDU_MIN,
                      **{k: data[k] for k in _LINK_KEYS if k in data})

    cycles = load_cycle_counts()
    if "cycles_file" in data:  # relative to the config file; an absolute path replaces it
        cycles_file = path_str("cycles_file", data["cycles_file"])
        cycles = load_cycle_counts(os.path.join(os.path.dirname(path or ""), cycles_file))

    kem_backend = one_of("kem_backend", data.get("kem_backend", "stub"), BACKENDS)
    return ModelConfig(profile=profile, gamma=gamma, cycles=cycles, link=link,
                       kem_backend=kem_backend)


def resolve_config(explicit_path: str | os.PathLike | None,
                   overrides: dict | None = None) -> ModelConfig:
    """Pick the active config file: --config flag, then $PQPAN_PROFILE, then
    none; ``overrides`` go on top, as in :func:`load_config`."""
    if explicit_path is not None:
        explicit_path = path_str("explicit_path", explicit_path)
    return load_config(explicit_path or os.environ.get(ENV_PROFILE) or None, overrides)
