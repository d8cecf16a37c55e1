"""Pluggable key-encapsulation engine.

Two backends share one interface:

* ``stub`` (default) - a deterministic hash-based mock that produces
  artifacts of exactly the right sizes and satisfies the KEM roundtrip
  property without any lattice arithmetic. Adequate for every energy and
  protocol computation in this package, which depend only on byte counts.
  It provides NO security whatsoever.
* ``real`` - binds to the ML-KEM implementation in the ``cryptography``
  package when available (this build exposes ML-KEM-768/1024). Key
  generation is deterministic via the seed; encapsulation uses the
  library's RNG.
"""

from __future__ import annotations

import hashlib
import hmac

from .errors import SizeMismatch, UnsupportedScheme, Value, _shown
from .reference import KemParamSet, lookup_scheme

SEED_BYTES = 32
SHARED_SECRET_BYTES = 32

#: Context label mixed into session-key derivation.
SESSION_KEY_CONTEXT = b"pqke-ble-v1"


class KemKeyPair(Value):
    __slots__ = ("pk", "sk", "scheme")


class Encapsulation(Value):
    __slots__ = ("ct", "ss")


class SessionKey(Value):
    __slots__ = ("key",)


def _shake(label: bytes, data: bytes, n: int) -> bytes:
    return hashlib.shake_256(label + data).digest(n)


def _check_seed(seed: bytes) -> bytes:
    if len(seed) != SEED_BYTES:
        raise SizeMismatch(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
    return seed


def _resolve(scheme: KemParamSet | str) -> KemParamSet:
    return scheme if isinstance(scheme, KemParamSet) else lookup_scheme(scheme)


class StubBackend:
    """Deterministic size-exact mock KEM.

    Construction: sk expands from the seed, pk expands from sk, the
    ciphertext expands from (pk, encapsulation seed), and the shared secret
    hashes (pk, ct). Both parties can recompute the secret from public
    material plus their own keys, which gives the roundtrip property.
    """

    def sk_size(self, scheme: KemParamSet) -> int:
        return scheme.sk_size

    def keygen(self, scheme: KemParamSet, seed: bytes) -> KemKeyPair:
        sk = _shake(b"pqpan-stub-sk", seed, scheme.sk_size)
        pk = _shake(b"pqpan-stub-pk", sk, scheme.pk_size)
        return KemKeyPair(pk=pk, sk=sk, scheme=scheme)

    def encapsulate(self, pk: bytes, scheme: KemParamSet, seed: bytes) -> Encapsulation:
        ct = _shake(b"pqpan-stub-ct", pk + seed, scheme.ct_size)
        ss = _shake(b"pqpan-stub-ss", pk + ct, SHARED_SECRET_BYTES)
        return Encapsulation(ct=ct, ss=ss)

    def decapsulate(self, sk: bytes, ct: bytes, scheme: KemParamSet) -> bytes:
        pk = _shake(b"pqpan-stub-pk", sk, scheme.pk_size)
        return _shake(b"pqpan-stub-ss", pk + ct, SHARED_SECRET_BYTES)


class RealBackend:
    """Binding to a real ML-KEM implementation (``cryptography`` >= 45).

    The provider serializes private keys in the 64-byte seed form, so
    ``sk_size`` differs from the expanded sizes used by the stub. Public
    key, ciphertext, and shared-secret sizes are exact.
    """

    _CLASS_NAMES = {
        "ML-KEM-512": "MLKEM512PrivateKey",
        "ML-KEM-768": "MLKEM768PrivateKey",
        "ML-KEM-1024": "MLKEM1024PrivateKey",
    }

    def _classes(self, scheme: KemParamSet):
        try:
            from cryptography.hazmat.primitives.asymmetric import mlkem
        except ImportError:
            raise UnsupportedScheme(
                "real backend requires the 'cryptography' package with ML-KEM "
                "support") from None
        priv_name = self._CLASS_NAMES.get(scheme.name)
        if priv_name is None or not hasattr(mlkem, priv_name):
            raise UnsupportedScheme(
                f"real backend cannot serve {scheme.name} (provider exposes: "
                f"{[n for n in self._CLASS_NAMES.values() if hasattr(mlkem, n)]})")
        return getattr(mlkem, priv_name), getattr(mlkem, priv_name.replace("Private", "Public"))

    def sk_size(self, scheme: KemParamSet) -> int:
        return 64  # provider keeps the FIPS-203 (d, z) seed form

    def keygen(self, scheme: KemParamSet, seed: bytes) -> KemKeyPair:
        priv_cls, _ = self._classes(scheme)
        seed64 = _shake(b"pqpan-mlkem-seed", seed, 64)
        priv = priv_cls.from_seed_bytes(seed64)
        return KemKeyPair(pk=priv.public_key().public_bytes_raw(),
                          sk=priv.private_bytes_raw(), scheme=scheme)

    def encapsulate(self, pk: bytes, scheme: KemParamSet, seed: bytes) -> Encapsulation:
        # The provider has no seeded encapsulation API; ``seed`` is ignored
        # and the library RNG is used.
        _, pub_cls = self._classes(scheme)
        ss, ct = pub_cls.from_public_bytes(pk).encapsulate()
        return Encapsulation(ct=ct, ss=ss)

    def decapsulate(self, sk: bytes, ct: bytes, scheme: KemParamSet) -> bytes:
        priv_cls, _ = self._classes(scheme)
        return priv_cls.from_seed_bytes(sk).decapsulate(ct)


#: The backends by name; ``config.BACKENDS`` lists the same names.
_BACKENDS = {"stub": StubBackend, "real": RealBackend}


def get_backend(name: str):
    backend = _BACKENDS.get(name) if isinstance(name, str) else None
    if backend is None:
        raise UnsupportedScheme(
            f"unknown kem backend {_shown(name)} (choose from {sorted(_BACKENDS)})")
    return backend()


def keygen(scheme: KemParamSet | str, seed: bytes, backend=None) -> KemKeyPair:
    """Generate a key pair; deterministic for the stub backend."""
    scheme = _resolve(scheme)
    backend = backend or StubBackend()
    pair = backend.keygen(scheme, _check_seed(seed))
    if len(pair.pk) != scheme.pk_size:
        raise SizeMismatch(f"{scheme.name}: backend produced pk of {len(pair.pk)} B, "
                           f"expected {scheme.pk_size}")
    if len(pair.sk) != backend.sk_size(scheme):
        raise SizeMismatch(f"{scheme.name}: backend produced sk of {len(pair.sk)} B, "
                           f"expected {backend.sk_size(scheme)}")
    return pair


def encapsulate(pk: bytes, scheme: KemParamSet | str, seed: bytes,
                backend=None) -> Encapsulation:
    """Encapsulate a fresh shared secret against ``pk``."""
    scheme = _resolve(scheme)
    if len(pk) != scheme.pk_size:
        raise SizeMismatch(f"{scheme.name}: pk is {len(pk)} B, expected {scheme.pk_size}")
    backend = backend or StubBackend()
    enc = backend.encapsulate(pk, scheme, _check_seed(seed))
    if len(enc.ct) != scheme.ct_size:
        raise SizeMismatch(f"{scheme.name}: backend produced ct of {len(enc.ct)} B, "
                           f"expected {scheme.ct_size}")
    if len(enc.ss) != SHARED_SECRET_BYTES:
        raise SizeMismatch(f"{scheme.name}: shared secret is {len(enc.ss)} B")
    return enc


def decapsulate(sk: bytes, ct: bytes, scheme: KemParamSet | str, backend=None) -> bytes:
    """Recover the shared secret from ``ct`` with the secret key."""
    scheme = _resolve(scheme)
    backend = backend or StubBackend()
    if len(sk) != backend.sk_size(scheme):
        raise SizeMismatch(f"{scheme.name}: sk is {len(sk)} B, "
                           f"expected {backend.sk_size(scheme)}")
    if len(ct) != scheme.ct_size:
        raise SizeMismatch(f"{scheme.name}: ct is {len(ct)} B, expected {scheme.ct_size}")
    ss = backend.decapsulate(sk, ct, scheme)
    if len(ss) != SHARED_SECRET_BYTES:
        raise SizeMismatch(f"{scheme.name}: shared secret is {len(ss)} B")
    return ss


def derive_session_key(ss: bytes) -> SessionKey:
    """Derive the session key from a shared secret via a keyed hash."""
    if len(ss) != SHARED_SECRET_BYTES:
        raise SizeMismatch(f"shared secret must be {SHARED_SECRET_BYTES} bytes")
    return SessionKey(key=hmac.new(ss, SESSION_KEY_CONTEXT, hashlib.sha256).digest())
