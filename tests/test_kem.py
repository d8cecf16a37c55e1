import hashlib
import hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqpan import (SizeMismatch, UnknownScheme, UnsupportedScheme, decapsulate,
                   derive_session_key, encapsulate, get_backend, keygen, lookup_scheme)

MLKEM = ["ML-KEM-512", "ML-KEM-768", "ML-KEM-1024"]

seeds = st.binary(min_size=32, max_size=32)


def seed(n: int) -> bytes:
    return hashlib.shake_256(n.to_bytes(4, "big")).digest(32)


@pytest.mark.parametrize("name", MLKEM)
def test_stub_artifact_sizes(name):
    scheme = lookup_scheme(name)
    pair = keygen(scheme, seed(1))
    assert len(pair.pk) == scheme.pk_size
    assert len(pair.sk) == scheme.sk_size
    enc = encapsulate(pair.pk, scheme, seed(2))
    assert len(enc.ct) == scheme.ct_size
    assert len(enc.ss) == 32


def test_stub_keygen_deterministic():
    a = keygen("ml-kem-512", seed(3))
    b = keygen("ml-kem-512", seed(3))
    assert (a.pk, a.sk) == (b.pk, b.sk)
    c = keygen("ml-kem-512", seed(4))
    assert c.pk != a.pk


def test_stub_encapsulation_reproducible():
    pair = keygen("ml-kem-768", seed(5))
    e1 = encapsulate(pair.pk, "ml-kem-768", seed(6))
    e2 = encapsulate(pair.pk, "ml-kem-768", seed(6))
    assert (e1.ct, e1.ss) == (e2.ct, e2.ss)


@pytest.mark.parametrize("name", MLKEM)
def test_roundtrip(name):
    pair = keygen(name, seed(7))
    enc = encapsulate(pair.pk, name, seed(8))
    assert decapsulate(pair.sk, enc.ct, name) == enc.ss


@given(seeds, seeds)
def test_roundtrip_property(keygen_seed, encap_seed):
    pair = keygen("ml-kem-512", keygen_seed)
    enc = encapsulate(pair.pk, "ml-kem-512", encap_seed)
    assert decapsulate(pair.sk, enc.ct, "ml-kem-512") == enc.ss


def test_wrong_pk_length():
    with pytest.raises(SizeMismatch):
        encapsulate(b"\x00" * 799, "ml-kem-512", seed(9))


def test_wrong_ct_length():
    pair = keygen("ml-kem-512", seed(10))
    with pytest.raises(SizeMismatch):
        decapsulate(pair.sk, b"\x00" * 767, "ml-kem-512")


def test_wrong_seed_length():
    with pytest.raises(SizeMismatch):
        keygen("ml-kem-512", b"short")


def test_signature_scheme_rejected():
    # The scheme table holds KEMs only; a signature scheme is not a known name.
    with pytest.raises(UnknownScheme, match="unknown scheme"):
        keygen("ecdsa-p256", seed(11))


def test_scheme_that_is_neither_a_name_nor_a_param_set_is_unknown():
    with pytest.raises(UnknownScheme, match="unknown scheme"):
        keygen(512, seed(11))


def test_unknown_backend():
    with pytest.raises(UnsupportedScheme):
        get_backend("hardware")


@pytest.mark.parametrize("name", [10 ** 5000, ["stub"]], ids=["huge-int", "list"])
def test_unknown_backend_of_another_type(name):
    # The name reaches get_backend unchecked from a run_handshake caller.
    with pytest.raises(UnsupportedScheme, match="unknown kem backend"):
        get_backend(name)


def test_config_lists_exactly_the_backends_kem_serves():
    from pqpan import config, kem
    assert set(config.BACKENDS) == set(kem._BACKENDS)
    for name in config.BACKENDS:
        get_backend(name)


def test_session_key_derivation():
    ss = seed(12)
    k1 = derive_session_key(ss)
    k2 = derive_session_key(ss)
    assert k1 == k2
    assert len(k1.key) == 32
    assert derive_session_key(seed(13)) != k1


def test_session_key_known_answer():
    ss = seed(12)
    expected = hmac.new(ss, b"pqke-ble-v1", hashlib.sha256).digest()
    assert derive_session_key(ss).key == expected


# Real backend: exercised only when the provider ships ML-KEM support.

def _real_or_skip(name):
    backend = get_backend("real")
    try:
        keygen(lookup_scheme(name), seed(13), backend)
    except UnsupportedScheme:
        pytest.skip(f"real backend cannot serve {name} in this environment")
    return backend


@pytest.mark.parametrize("name", ["ML-KEM-768", "ML-KEM-1024"])
def test_real_backend_roundtrip(name):
    backend = _real_or_skip(name)
    scheme = lookup_scheme(name)
    pair = keygen(scheme, seed(14), backend)
    assert len(pair.pk) == scheme.pk_size
    enc = encapsulate(pair.pk, scheme, seed(15), backend)
    assert len(enc.ct) == scheme.ct_size
    assert decapsulate(pair.sk, enc.ct, scheme, backend) == enc.ss


def test_real_backend_keygen_deterministic():
    backend = _real_or_skip("ML-KEM-768")
    a = keygen("ml-kem-768", seed(16), backend)
    b = keygen("ml-kem-768", seed(16), backend)
    assert a.pk == b.pk


def test_real_backend_cross_check_with_stub_sizes():
    backend = _real_or_skip("ML-KEM-1024")
    scheme = lookup_scheme("ml-kem-1024")
    real_pair = keygen(scheme, seed(17), backend)
    stub_pair = keygen(scheme, seed(17))
    assert len(real_pair.pk) == len(stub_pair.pk) == scheme.pk_size
