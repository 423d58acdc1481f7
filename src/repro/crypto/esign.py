"""ESIGN: fast asymmetric signatures over n = p**2 * q.

The paper (footnote 3) points out that RSA can be used for the DSK/DVK data
signing keys, but schemes like ESIGN [Okamoto, Fujisaki, Morita -- TSH-ESIGN,
IEEE P1363] are over an order of magnitude faster and are what the SHAROES
prototype relies on for signing every data and metadata write.

Scheme (with public exponent ``e``, k-bit primes p and q, n = p^2 q):

* The message representative ``v`` is the digest of the message placed in
  the high bits of the modulus (multiple of 2^shift, shift = 2k + 2).
* Signing: pick random r in [1, pq); let R = r^e mod n,
  a = (v - R) mod n, w0 = ceil(a / pq),
  u = w0 * (e * r^(e-1))^(-1) mod p, s = r + u * p * q.
  Then s^e mod n lands in the window [v, v + pq).
* Verification: recompute v from the message and check
  0 <= (s^e mod n) - v < 2^(2k).

This works because (u p q)^2 = u^2 q * n ≡ 0 (mod n), so
s^e ≡ r^e + e r^(e-1) u p q (mod n), and u was chosen to make that second
term ≡ w0 * p q (mod n).

Signing costs one small exponentiation plus one modular inverse mod p;
verification costs one small exponentiation -- both far cheaper than an
RSA private-key operation, which matches the paper's performance claim
(validated by ``benchmarks/test_ablation_esign.py``).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from ..errors import CryptoError, IntegrityError
from ..serialize import Reader, Writer
from . import hashes
from .primes import random_prime

DEFAULT_PRIME_BITS = 256
DEFAULT_EXPONENT = 4

_MAX_SIGN_ATTEMPTS = 64


@dataclass(frozen=True)
class VerificationKey:
    """Public half: anyone holding it can verify but not sign."""

    n: int
    e: int
    prime_bits: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def to_bytes(self) -> bytes:
        writer = Writer()
        writer.put_int(self.n)
        writer.put_int(self.e)
        writer.put_int(self.prime_bits)
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "VerificationKey":
        reader = Reader(raw)
        n = reader.get_int()
        e = reader.get_int()
        prime_bits = reader.get_int()
        reader.expect_end()
        return cls(n=n, e=e, prime_bits=prime_bits)


@dataclass(frozen=True)
class SigningKey:
    """Private half: holds the factorization p, q of n = p^2 q."""

    p: int
    q: int
    e: int
    prime_bits: int

    @property
    def n(self) -> int:
        return self.p * self.p * self.q

    def verification_key(self) -> VerificationKey:
        return VerificationKey(n=self.n, e=self.e,
                               prime_bits=self.prime_bits)

    def to_bytes(self) -> bytes:
        writer = Writer()
        writer.put_int(self.p)
        writer.put_int(self.q)
        writer.put_int(self.e)
        writer.put_int(self.prime_bits)
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SigningKey":
        reader = Reader(raw)
        p = reader.get_int()
        q = reader.get_int()
        e = reader.get_int()
        prime_bits = reader.get_int()
        reader.expect_end()
        return cls(p=p, q=q, e=e, prime_bits=prime_bits)


@dataclass(frozen=True)
class SignatureKeyPair:
    """The (DSK, DVK) or (MSK, MVK) pair attached to a SHAROES object."""

    signing: SigningKey
    verification: VerificationKey


def generate_keypair(prime_bits: int = DEFAULT_PRIME_BITS,
                     e: int = DEFAULT_EXPONENT) -> SignatureKeyPair:
    """Generate an ESIGN key pair with k-bit primes (n has ~3k bits)."""
    if e < 4:
        raise CryptoError("ESIGN requires e >= 4")
    if prime_bits < 32:
        raise CryptoError("prime size too small to embed a digest window")
    p = random_prime(prime_bits)
    q = random_prime(prime_bits)
    while q == p:
        q = random_prime(prime_bits)
    signing = SigningKey(p=p, q=q, e=e, prime_bits=prime_bits)
    return SignatureKeyPair(signing=signing,
                            verification=signing.verification_key())


def _representative(message: bytes, n: int, prime_bits: int) -> int:
    """Message digest placed in the high bits of the modulus.

    Returns a multiple of 2^(2k+2) strictly below n - 2^(2k+2), so the
    signing window [v, v + pq) never wraps around n.
    """
    shift = 2 * prime_bits + 2
    top = n >> shift
    if top < 2:
        raise CryptoError("modulus too small for digest window")
    h = int.from_bytes(hashes.digest(message), "big")
    return (h % (top - 1)) << shift


def sign(key: SigningKey, message: bytes) -> bytes:
    """Sign ``message``; returns a modulus-sized signature."""
    n = key.n
    pq = key.p * key.q
    v = _representative(message, n, key.prime_bits)
    for _ in range(_MAX_SIGN_ATTEMPTS):
        r = secrets.randbelow(pq - 1) + 1
        if r % key.p == 0:
            continue
        big_r = pow(r, key.e, n)
        a = (v - big_r) % n
        w0 = -(-a // pq)  # ceil division
        denom = (key.e * pow(r, key.e - 1, key.p)) % key.p
        if denom == 0 or w0 % key.p == 0:
            continue
        u = (w0 * pow(denom, -1, key.p)) % key.p
        s = r + u * pq
        # Validate the window before returning (cheap; guards edge cases).
        check = pow(s, key.e, n) - v
        if 0 <= check < (1 << (2 * key.prime_bits + 2)):
            byte_length = (n.bit_length() + 7) // 8
            return s.to_bytes(byte_length, "big")
    raise CryptoError("ESIGN signing failed to converge; retry")


def verify(key: VerificationKey, message: bytes, signature: bytes) -> None:
    """Verify; raises :class:`IntegrityError` if the signature is invalid."""
    if len(signature) != key.byte_length:
        raise IntegrityError("ESIGN signature has wrong length")
    s = int.from_bytes(signature, "big")
    if not 0 < s < key.n:
        raise IntegrityError("ESIGN signature out of range")
    v = _representative(message, key.n, key.prime_bits)
    delta = pow(s, key.e, key.n) - v
    if not 0 <= delta < (1 << (2 * key.prime_bits + 2)):
        raise IntegrityError("ESIGN signature verification failed")
