"""One hand-written table of boundary cases for every numeric input.

Each case is (key, value, accepted), read off the documented ranges and not
computed by the checkers. A case runs through the value type the key sets,
through ``load_config(overrides=...)`` when the key is a config key, and,
for a numeric value, through the ``estimate`` flag when one exists. Every
path must agree with the table and refuse a value only with a PqpanError.

A second table gives each library entry point a model input of the wrong
type. ``None`` is the only default, so a falsy value such as ``profile=0``
is refused, not priced as the default, and each refusal is the error of the
type the argument should have been, never an ``AttributeError``.
"""

import contextlib
import io
import math

import pytest

from pqpan import (FITTED_RADIO_PROFILE, ConsistencyError, CycleCounts, InvalidConfig,
                   InvalidProfile, LinkConfig, ModelConfig, NotEstablished, PqpanError, airtime,
                   default_calibration, fit_radio_currents, load_config, pqke_total,
                   run_handshake, send_secured_payload, session_energy)
from pqpan.cli import main
from pqpan.energy import comp_energy
from pqpan.link import plan_counts

NAN, INF = math.nan, math.inf
BIG = 10 ** 400  # beyond every range and every float
HUGE = 10 ** 5000  # more digits than repr(int) allows by default

PROFILE = ("voltage", "i_tx", "i_rx", "i_ifs", "i_mcu", "f_mcu")
LINK = ("att_mtu", "ll_pdu", "phy_rate", "ifs", "ifs_slots")
GAMMA = ("gamma_comm", "gamma_keygen", "gamma_decap")
COUNTS = ("keygen", "encap", "decap")
INT_KEYS = ("att_mtu", "ll_pdu", "ifs_slots") + COUNTS
KEYS = PROFILE + LINK + GAMMA + COUNTS + ("cycles",)
CONFIG_KEYS = PROFILE + ("phy_rate", "ifs", "ifs_slots") + GAMMA
FLAGS = {"att_mtu": "--att-mtu", "ll_pdu": "--ll-pdu", "ifs_slots": "--ifs-slots",
         "gamma_comm": "--gamma-comm", "gamma_keygen": "--gamma-keygen",
         "gamma_decap": "--gamma-decap"}
INT_FLAGS = ("att_mtu", "ll_pdu", "ifs_slots")


def below(x):
    return math.nextafter(x, -INF)


def above(x):
    return math.nextafter(x, INF)


RANGE_CASES = [
    # Integers: each end, one step past each end, and an interior value.
    ("att_mtu", 23, True), ("att_mtu", 517, True), ("att_mtu", 22, False),
    ("att_mtu", 518, False), ("att_mtu", 65, True),
    ("ll_pdu", 27, True), ("ll_pdu", 251, True), ("ll_pdu", 26, False), ("ll_pdu", 252, False),
    ("ifs_slots", 1, True), ("ifs_slots", 2, True), ("ifs_slots", 0, False),
    ("ifs_slots", 3, False), ("ifs_slots", -1, False), ("ifs_slots", 2 ** 63, False),
    *[(key, v, ok) for key in COUNTS
      for v, ok in ((0, True), (10 ** 12, True), (-1, False), (10 ** 12 + 1, False))],
    # Reals: each end, the next float past each end, and an int in range.
    ("phy_rate", 1e3, True), ("phy_rate", 1e9, True), ("phy_rate", below(1e3), False),
    ("phy_rate", above(1e9), False), ("phy_rate", 1_000_000, True), ("phy_rate", "1e6", False),
    ("ifs", 0.0, True), ("ifs", 10e-3, True), ("ifs", below(0.0), False),
    ("ifs", above(10e-3), False), ("ifs", 0, True), ("ifs", -0.0, True),
    ("voltage", 1e-3, True), ("voltage", 10.0, True), ("voltage", below(1e-3), False),
    ("voltage", above(10.0), False), ("voltage", 3, True),
    *[(key, v, ok) for key in ("i_tx", "i_rx", "i_ifs", "i_mcu")
      for v, ok in ((1e-12, True), (1.0, True), (below(1e-12), False), (above(1.0), False),
                    (1, True), (0, False))],
    ("f_mcu", 1e3, True), ("f_mcu", 1e10, True), ("f_mcu", below(1e3), False),
    ("f_mcu", above(1e10), False), ("f_mcu", 64_000_000, True),
    *[(key, v, ok) for key in GAMMA
      for v, ok in ((1.0, True), (10.0, True), (below(1.0), False), (above(10.0), False),
                    (2, True), (1.5, True))],
    ("cycles", 0, True), ("cycles", 10 ** 12, True), ("cycles", 1.5, True),
    ("cycles", -1, False), ("cycles", 10 ** 12 + 1, False), ("cycles", above(1e12), False),
]
# Refused by every key: a bool (even where 0 or 1 is in range), text, None,
# a value that is not finite, and ints far past every range.
NOT_NUMBERS = [True, False, "3", None, NAN, INF, -INF, BIG, HUGE]
# Refused by every integer key, even where the value lies in range.
NOT_INTEGERS = [1.5, 2.0]
CASES = (RANGE_CASES + [(key, v, False) for key in KEYS for v in NOT_NUMBERS]
         + [(key, v, False) for key in INT_KEYS for v in NOT_INTEGERS])


def _label(value):
    return "10**5000" if value is HUGE else "10**400" if value is BIG else repr(value)


def _params(cases):
    return [pytest.param(key, value, ok, id=f"{key}={_label(value)}") for key, value, ok in cases]


def _through_type(key, value):
    """The value as stored by the value type that ``key`` sets."""
    if key in PROFILE:
        return getattr(FITTED_RADIO_PROFILE.replace(**{key: value}), key)
    if key in LINK:
        return getattr(LinkConfig(**{"att_mtu": 65, "ll_pdu": 27, key: value}), key)
    if key == "gamma_comm":
        return default_calibration().replace(gamma_comm=value).gamma_comm
    if key in GAMMA:
        return getattr(default_calibration().replace(**{key: dict.fromkeys((1, 3, 5), value)}),
                       key)[3]
    if key in COUNTS:
        return getattr(CycleCounts(**{**dict.fromkeys(COUNTS, 1), key: value}), key)
    comp_energy(value, FITTED_RADIO_PROFILE)
    return value


def _through_config(key, value):
    table = key in ("gamma_keygen", "gamma_decap")
    cfg = load_config(overrides={key: dict.fromkeys("135", value) if table else value})
    if key in PROFILE:
        return getattr(cfg.profile, key)
    if key in LINK:
        return getattr(cfg.link, key)
    return getattr(cfg.gamma, key)[3] if table else cfg.gamma.gamma_comm


@pytest.mark.parametrize("key,value,accepted", _params(CASES))
def test_value_type_boundary(key, value, accepted):
    if accepted:
        assert _through_type(key, value) == value
    else:
        with pytest.raises(PqpanError, match=key):
            _through_type(key, value)


@pytest.mark.parametrize("key,value,accepted",
                         _params(c for c in CASES if c[0] in CONFIG_KEYS))
def test_config_key_boundary(key, value, accepted):
    if accepted:
        assert _through_config(key, value) == value
    else:
        with pytest.raises(PqpanError, match=key):
            _through_config(key, value)


@pytest.mark.parametrize("key,value,accepted", _params(
    c for c in CASES if c[0] in FLAGS and type(c[1]) in (int, float)))
def test_flag_boundary(monkeypatch, key, value, accepted):
    monkeypatch.delenv("PQPAN_PROFILE", raising=False)
    text = "1" + "0" * 5000 if value is HUGE else repr(value)
    argv = ["estimate", "--scheme", "ml-kem-512", "--att-mtu", "65", "--ll-pdu", "27",
            f"{FLAGS[key]}={text}"]  # one token, so "-inf" is not read as a flag
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    # argparse refuses text its int() cannot parse (usage, exit 2); the
    # model refuses every parsed value outside its range (exit 3).
    unparsed = key in INT_FLAGS and (isinstance(value, float) or value is HUGE)
    assert code == (0 if accepted else 2 if unparsed else 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


CFG = LinkConfig(att_mtu=65, ll_pdu=27)
#: A model input of the wrong type for each entry point: (entry point, call, error).
WRONG_TYPES = [
    *[(f"{name}({arg}={value!r})", call, arg, value, error)
      for name, call in (("pqke_total", lambda **kw: pqke_total("ml-kem-512", CFG, **kw)),
                         ("session_energy",
                          lambda **kw: session_energy("ml-kem-512", 16, CFG, **kw)),
                         ("run_handshake", lambda **kw: run_handshake("ml-kem-512", CFG, **kw)))
      for arg, value, error in (
          ("profile", 0, InvalidProfile), ("profile", "x", InvalidProfile),
          ("gamma", 0, ConsistencyError), ("gamma", {}, ConsistencyError),
          ("cycles", {"ML-KEM-512": (1, 2, 3)}, InvalidProfile),
          ("cycles", [("ML-KEM-512", CycleCounts(1, 2, 3))], InvalidProfile))],
    # "none" and "ecdh" read no cycle counts, but take the argument on the same rule.
    *[(f"session_energy({kind!r}, cycles={value!r})",
       lambda cycles, kind=kind: session_energy(kind, 100, CFG, cycles=cycles), "cycles", value,
       InvalidProfile) for kind in ("none", "ecdh", "ml-kem-512") for value in ("junk", 7)],
    # Checked before the scheme is asked for a handshake model.
    ("pqke_total('ecdh-p256', cycles='junk')",
     lambda cycles: pqke_total("ecdh-p256", CFG, cycles=cycles), "cycles", "junk", InvalidProfile),
    *[(f"{name}(cfg={value!r})", call, "cfg", value, InvalidConfig)
      for name, call in (("pqke_total", lambda cfg: pqke_total("ml-kem-512", cfg)),
                         ("session_energy", lambda cfg: session_energy("ml-kem-512", 0, cfg)),
                         ("session_energy('none', 0)", lambda cfg: session_energy("none", 0, cfg)),
                         ("session_energy('ecdh', 0)", lambda cfg: session_energy("ecdh", 0, cfg)),
                         ("run_handshake", lambda cfg: run_handshake("ml-kem-512", cfg)),
                         ("airtime", lambda cfg: airtime(100, cfg)),
                         ("plan_counts", lambda cfg: plan_counts(100, cfg)))
      for value in ((65, 27), "junk", None)],
    ("send_secured_payload(session=None)", lambda session: send_secured_payload(session, b"x"),
     "session", None, NotEstablished),
    ("ModelConfig(None, None, {}, None)", lambda profile: ModelConfig(profile, None, {}, None),
     "profile", None, InvalidProfile),
    *[(f"ModelConfig({arg}=None)", lambda **kw: ModelConfig(
        **{"profile": FITTED_RADIO_PROFILE, "gamma": default_calibration(), "cycles": {},
           "link": CFG, **kw}), arg, None, error)
      for arg, error in (("gamma", ConsistencyError), ("link", InvalidConfig))],
    *[(f"fit_radio_currents(rows={value!r})", lambda rows: fit_radio_currents(rows), "rows",
       value, ConsistencyError) for value in ([1, 2, 3], 5)],
    *[(f"pqke_total(include_encap={value!r})",
       lambda include_encap: pqke_total("ml-kem-512", CFG, include_encap=include_encap),
       "include_encap", value, InvalidConfig) for value in ("no", 1, None)],
    *[(f"load_config(overrides={value!r})", lambda overrides: load_config(overrides=overrides),
       "overrides", value, InvalidConfig)
      for value in ("gamma_comm", [("gamma_comm", 1.2)])],
]


@pytest.mark.parametrize("call,arg,value,error", [pytest.param(*case[1:], id=case[0])
                                                  for case in WRONG_TYPES])
def test_model_input_of_the_wrong_type_is_refused_with_its_types_error(call, arg, value, error):
    with pytest.raises(error, match="must be a"):
        call(**{arg: value})
