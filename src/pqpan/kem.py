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
_HEAD = 32  # bytes of a key that the stub's later steps absorb

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


def _sized(value: bytes, what: str, size: int) -> bytes:
    """``value`` if it is ``bytes`` or ``bytearray`` of ``size`` bytes, else SizeMismatch."""
    if not isinstance(value, (bytes, bytearray)):
        raise SizeMismatch(f"{what} must be bytes or bytearray, got {type(value).__name__}")
    if len(value) != size:
        raise SizeMismatch(f"{what} is {len(value)} B, expected {size}")
    return value


class StubBackend:
    """Deterministic size-exact mock KEM. With ``H(x, n)`` the first ``n`` bytes
    of SHAKE-256 over ``x``: ``sk = H("pqpan-stub-sk" || seed, sk_size)``, ``pk =
    H("pqpan-stub-pk" || sk[:32], pk_size)``, ``ct = H("pqpan-stub-ct" || pk[:32]
    || seed, ct_size)`` and ``ss = H("pqpan-stub-ss" || pk[:32] || ct, 32)``. So
    each step absorbs a 32-byte head of a key, not the whole key, and ``ss`` all
    of ``ct``. Decapsulation squeezes ``H("pqpan-stub-pk" || sk[:32], min(32,
    pk_size))``: a SHAKE output is a prefix of every longer output of the same
    input, so that is ``pk[:32]``, for any ``pk_size``, and the roundtrip holds.
    """

    def sk_size(self, scheme: KemParamSet) -> int:
        return scheme.sk_size

    def keygen(self, scheme: KemParamSet, seed: bytes) -> KemKeyPair:
        sk = _shake(b"pqpan-stub-sk", seed, scheme.sk_size)
        pk = _shake(b"pqpan-stub-pk", sk[:_HEAD], scheme.pk_size)
        return KemKeyPair(pk=pk, sk=sk, scheme=scheme)

    def encapsulate(self, pk: bytes, scheme: KemParamSet, seed: bytes) -> Encapsulation:
        ct = _shake(b"pqpan-stub-ct", pk[:_HEAD] + seed, scheme.ct_size)
        ss = _shake(b"pqpan-stub-ss", pk[:_HEAD] + ct, SHARED_SECRET_BYTES)
        return Encapsulation(ct=ct, ss=ss)

    def decapsulate(self, sk: bytes, ct: bytes, scheme: KemParamSet) -> bytes:
        head = _shake(b"pqpan-stub-pk", sk[:_HEAD], min(_HEAD, scheme.pk_size))
        return _shake(b"pqpan-stub-ss", head + ct, SHARED_SECRET_BYTES)


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


def _backend(backend):
    """The stub for None, else ``backend`` if it is a StubBackend or RealBackend
    (a subclass too), else UnsupportedScheme."""
    if backend is None:
        return StubBackend()
    if isinstance(backend, (StubBackend, RealBackend)):
        return backend
    raise UnsupportedScheme(
        f"backend must be a StubBackend or RealBackend, got {_shown(backend)}")


def keygen(scheme: KemParamSet | str, seed: bytes, backend=None) -> KemKeyPair:
    """Generate a key pair; deterministic for the stub backend."""
    scheme = lookup_scheme(scheme)
    backend = _backend(backend)
    pair = backend.keygen(scheme, _sized(seed, "seed", SEED_BYTES))
    _sized(pair.pk, f"{scheme.name}: the backend's pk", scheme.pk_size)
    _sized(pair.sk, f"{scheme.name}: the backend's sk", backend.sk_size(scheme))
    return pair


def encapsulate(pk: bytes, scheme: KemParamSet | str, seed: bytes,
                backend=None) -> Encapsulation:
    """Encapsulate a fresh shared secret against ``pk``."""
    scheme = lookup_scheme(scheme)
    _sized(pk, f"{scheme.name}: pk", scheme.pk_size)
    backend = _backend(backend)
    enc = backend.encapsulate(pk, scheme, _sized(seed, "seed", SEED_BYTES))
    _sized(enc.ct, f"{scheme.name}: the backend's ct", scheme.ct_size)
    _sized(enc.ss, f"{scheme.name}: the backend's shared secret", SHARED_SECRET_BYTES)
    return enc


def decapsulate(sk: bytes, ct: bytes, scheme: KemParamSet | str, backend=None) -> bytes:
    """Recover the shared secret from ``ct`` with the secret key."""
    scheme = lookup_scheme(scheme)
    backend = _backend(backend)
    _sized(sk, f"{scheme.name}: sk", backend.sk_size(scheme))
    _sized(ct, f"{scheme.name}: ct", scheme.ct_size)
    return _sized(backend.decapsulate(sk, ct, scheme),
                  f"{scheme.name}: the backend's shared secret", SHARED_SECRET_BYTES)


def derive_session_key(ss: bytes) -> SessionKey:
    """Derive the session key from a shared secret via a keyed hash."""
    _sized(ss, "shared secret", SHARED_SECRET_BYTES)
    return SessionKey(key=hmac.digest(ss, SESSION_KEY_CONTEXT, "sha256"))
