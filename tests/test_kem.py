import hashlib
import hmac
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqpan import (KemKeyPair, KemParamSet, SizeMismatch, UnknownScheme, UnsupportedScheme,
                   decapsulate, derive_session_key, encapsulate, get_backend, keygen,
                   load_schemes, lookup_scheme)
from pqpan.kem import SHARED_SECRET_BYTES, StubBackend

#: Every bundled scheme, HQC's keys with a secret key shorter than the public key, and
#: param sets with keys shorter than the 32-byte heads that the stub absorbs.
SCHEMES = [*load_schemes().values(),
           KemParamSet("TINY", pk_size=1, sk_size=1, ct_size=1),
           KemParamSet("SHORT", pk_size=31, sk_size=17, ct_size=33),
           KemParamSet("HEAD", pk_size=32, sk_size=32, ct_size=32)]
NAMES = [scheme.name for scheme in SCHEMES]

seeds = st.binary(min_size=32, max_size=32)


def seed(n: int) -> bytes:
    return hashlib.shake_256(n.to_bytes(4, "big")).digest(32)


@pytest.mark.parametrize("scheme", SCHEMES, ids=NAMES)
def test_stub_artifact_sizes(scheme):
    pair = keygen(scheme, seed(1))
    assert len(pair.pk) == scheme.pk_size
    assert len(pair.sk) == scheme.sk_size
    enc = encapsulate(pair.pk, scheme, seed(2))
    assert len(enc.ct) == scheme.ct_size
    assert len(enc.ss) == 32


@pytest.mark.parametrize("scheme", SCHEMES, ids=NAMES)
def test_stub_keygen_deterministic(scheme):
    a = keygen(scheme, seed(3))
    b = keygen(scheme, seed(3))
    assert (a.pk, a.sk) == (b.pk, b.sk)
    c = keygen(scheme, seed(4))
    assert c.pk != a.pk


@pytest.mark.parametrize("scheme", SCHEMES, ids=NAMES)
def test_stub_encapsulation_reproducible(scheme):
    pair = keygen(scheme, seed(5))
    e1 = encapsulate(pair.pk, scheme, seed(6))
    e2 = encapsulate(pair.pk, scheme, seed(6))
    assert (e1.ct, e1.ss) == (e2.ct, e2.ss)
    assert encapsulate(pair.pk, scheme, seed(7)).ss != e1.ss


@pytest.mark.parametrize("scheme", SCHEMES, ids=NAMES)
def test_roundtrip(scheme):
    pair = keygen(scheme, seed(7))
    enc = encapsulate(pair.pk, scheme, seed(8))
    assert decapsulate(pair.sk, enc.ct, scheme) == enc.ss


def test_stub_known_answer():
    # The construction of StubBackend's docstring, written out with hashlib.
    def shake(label, data, n):
        return hashlib.shake_256(label + data).digest(n)

    pair = keygen("ml-kem-512", seed(20))
    enc = encapsulate(pair.pk, "ml-kem-512", seed(21))
    sk = shake(b"pqpan-stub-sk", seed(20), 1632)
    pk = shake(b"pqpan-stub-pk", sk[:32], 800)
    ct = shake(b"pqpan-stub-ct", pk[:32] + seed(21), 768)
    ss = shake(b"pqpan-stub-ss", pk[:32] + ct, 32)
    assert (pair.pk, pair.sk, enc.ct, enc.ss) == (pk, sk, ct, ss)
    assert hashlib.sha256(pk + sk + ct + ss).hexdigest() == (
        "5d8294c9ec041a5c700be4382a8499e2526a364056b0dd564a73d9e1e6795b72")


@pytest.mark.parametrize("scheme", SCHEMES, ids=NAMES)
def test_stub_secret_depends_on_the_last_ciphertext_byte(scheme):
    pair = keygen(scheme, seed(22))
    ct = bytearray(encapsulate(pair.pk, scheme, seed(23)).ct)
    before = decapsulate(pair.sk, ct, scheme)
    ct[-1] ^= 1
    assert decapsulate(pair.sk, ct, scheme) != before


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


#: A call with one byte argument that is not bytes or bytearray, given a key pair.
NOT_BYTES = {
    "str-seed": (lambda pair: keygen("ml-kem-512", "a" * 32), "seed"),
    "none-seed": (lambda pair: keygen("ml-kem-512", None), "seed"),
    "list-seed": (lambda pair: encapsulate(pair.pk, "ml-kem-512", list(seed(1))), "seed"),
    "str-pk": (lambda pair: encapsulate("a" * 800, "ml-kem-512", seed(1)), "pk"),
    "str-sk": (lambda pair: decapsulate("a" * 1632, bytes(768), "ml-kem-512"), "sk"),
    "memoryview-ct": (lambda pair: decapsulate(pair.sk, memoryview(bytes(768)), "ml-kem-512"),
                      "ct"),
    "str-shared-secret": (lambda pair: derive_session_key("a" * 32), "shared secret"),
}


@pytest.mark.parametrize("call,what", NOT_BYTES.values(), ids=list(NOT_BYTES))
def test_byte_argument_that_is_not_bytes_is_a_size_mismatch(call, what):
    pair = keygen("ml-kem-512", bytearray(seed(12)))
    assert pair == keygen("ml-kem-512", seed(12))
    with pytest.raises(SizeMismatch, match=f"{what} must be bytes or bytearray, got "):
        call(pair)


class _BadOutputBackend(StubBackend):
    """The stub, but its key pair's pk is a byte short and its decapsulated
    secret is text."""

    def keygen(self, scheme, seed):
        pair = super().keygen(scheme, seed)
        return KemKeyPair(pk=pair.pk[:-1], sk=pair.sk, scheme=scheme)

    def decapsulate(self, sk, ct, scheme):
        return super().decapsulate(sk, ct, scheme).hex()[:SHARED_SECRET_BYTES]


def test_backend_output_of_the_wrong_size_or_type_is_a_size_mismatch():
    with pytest.raises(SizeMismatch, match="^ML-KEM-512: the backend's pk is 799 B, expected 800$"):
        keygen("ml-kem-512", seed(13), _BadOutputBackend())
    pair = keygen("ml-kem-512", seed(13))
    ct = encapsulate(pair.pk, "ml-kem-512", seed(14)).ct
    with pytest.raises(SizeMismatch, match="the backend's shared secret must be bytes or "
                                           "bytearray, got str"):
        decapsulate(pair.sk, ct, "ml-kem-512", _BadOutputBackend())


#: Each KEM operation, given a key pair and its backend argument.
OPERATIONS = {
    "keygen": lambda pair, backend: keygen("ml-kem-512", seed(15), backend),
    "encapsulate": lambda pair, backend: encapsulate(pair.pk, "ml-kem-512", seed(16), backend),
    "decapsulate": lambda pair, backend: decapsulate(pair.sk, bytes(768), "ml-kem-512", backend),
}


@pytest.mark.parametrize("backend", ["stub", 0, object()], ids=["name", "zero", "object"])
@pytest.mark.parametrize("operation", OPERATIONS.values(), ids=list(OPERATIONS))
def test_backend_that_is_not_a_backend_is_unsupported(operation, backend):
    # None alone gives the stub; a backend name belongs to get_backend.
    pair = keygen("ml-kem-512", seed(15))
    with pytest.raises(UnsupportedScheme, match=re.escape(
            f"backend must be a StubBackend or RealBackend, got {backend!r}")):
        operation(pair, backend)
    assert operation(pair, None) == operation(pair, StubBackend())


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
