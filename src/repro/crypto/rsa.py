"""RSA: key generation, encryption, decryption, signing, verification.

Implemented from scratch (Miller-Rabin keygen, CRT-accelerated private
operations, PKCS#1-v1.5-style randomized padding, hash-and-sign signatures)
because no crypto library is installed.  The paper uses 2048-bit RSA for all
public-key operations (NIST SP 800-78 parameters); tests use smaller moduli
to keep key generation fast, benchmarks charge simulated 2008-era costs via
:mod:`repro.sim.costmodel` regardless of host speed.

Large payloads are chunked into modulus-size blocks
(:func:`encrypt_blob` / :func:`decrypt_blob`) -- this is exactly what the
paper's PUBLIC comparator does to a whole metadata object, and what makes it
slow: every 256-byte block of a stat costs one private-key operation.
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass

from ..errors import CryptoError, IntegrityError
from ..serialize import Reader, Writer
from . import hashes
from .primes import random_prime

#: Payload bytes per block of a nominal 2048-bit modulus.  The simulated
#: cost model charges public-key work in these units so that benchmark
#: numbers reflect the paper's 2048-bit RSA even when tests generate
#: smaller keys for speed.
NOMINAL_BLOCK_PAYLOAD = 2048 // 8 - 11


def nominal_block_count(payload_len: int) -> int:
    """RSA blocks a 2048-bit key would need for ``payload_len`` bytes."""
    return max(1, -(-payload_len // NOMINAL_BLOCK_PAYLOAD))

DEFAULT_BITS = 2048
DEFAULT_EXPONENT = 65537

_PAD_OVERHEAD = 11  # PKCS#1 v1.5: 0x00 0x02 <8+ nonzero random> 0x00


@dataclass(frozen=True)
class PublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    @property
    def max_payload(self) -> int:
        return self.byte_length - _PAD_OVERHEAD

    def to_bytes(self) -> bytes:
        writer = Writer()
        writer.put_int(self.n)
        writer.put_int(self.e)
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PublicKey":
        reader = Reader(raw)
        n = reader.get_int()
        e = reader.get_int()
        reader.expect_end()
        return cls(n=n, e=e)


@dataclass(frozen=True)
class PrivateKey:
    """RSA private key with CRT components for fast private operations."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def public_key(self) -> PublicKey:
        return PublicKey(self.n, self.e)

    def to_bytes(self) -> bytes:
        writer = Writer()
        writer.put_int(self.n)
        writer.put_int(self.e)
        writer.put_int(self.d)
        writer.put_int(self.p)
        writer.put_int(self.q)
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PrivateKey":
        reader = Reader(raw)
        n = reader.get_int()
        e = reader.get_int()
        d = reader.get_int()
        p = reader.get_int()
        q = reader.get_int()
        reader.expect_end()
        return cls(n=n, e=e, d=d, p=p, q=q)

    def _private_op(self, value: int) -> int:
        """Compute ``value ** d mod n`` using the CRT."""
        dp = self.d % (self.p - 1)
        dq = self.d % (self.q - 1)
        q_inv = pow(self.q, -1, self.p)
        mp = pow(value % self.p, dp, self.p)
        mq = pow(value % self.q, dq, self.q)
        h = (q_inv * (mp - mq)) % self.p
        return mq + h * self.q


@dataclass(frozen=True)
class KeyPair:
    """A public/private key pair -- the identity of a SHAROES principal."""

    public: PublicKey
    private: PrivateKey


def generate_keypair(bits: int = DEFAULT_BITS,
                     e: int = DEFAULT_EXPONENT) -> KeyPair:
    """Generate an RSA key pair with a ``bits``-bit modulus."""
    if bits < 128:
        raise CryptoError("modulus below 128 bits is not RSA, it is a toy")
    half = bits // 2
    while True:
        p = random_prime(half)
        q = random_prime(bits - half)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if math.gcd(e, phi) != 1:
            continue
        d = pow(e, -1, phi)
        private = PrivateKey(n=n, e=e, d=d, p=p, q=q)
        return KeyPair(public=private.public_key(), private=private)


# -- padding ----------------------------------------------------------------

def _pad(message: bytes, target_len: int) -> bytes:
    """PKCS#1 v1.5 type-2 (encryption) padding."""
    if len(message) > target_len - _PAD_OVERHEAD:
        raise CryptoError("message too long for RSA modulus")
    pad_len = target_len - len(message) - 3
    padding = bytearray()
    while len(padding) < pad_len:
        chunk = secrets.token_bytes(pad_len - len(padding))
        padding.extend(b for b in chunk if b != 0)
    return b"\x00\x02" + bytes(padding) + b"\x00" + message


def _unpad(padded: bytes) -> bytes:
    """Strip PKCS#1 v1.5 type-2 padding."""
    if len(padded) < _PAD_OVERHEAD or padded[0] != 0 or padded[1] != 2:
        raise CryptoError("RSA decryption produced invalid padding")
    try:
        separator = padded.index(0, 2)
    except ValueError as exc:
        raise CryptoError("RSA padding separator missing") from exc
    if separator < 10:
        raise CryptoError("RSA padding too short")
    return padded[separator + 1:]


# -- single-block encryption -------------------------------------------------

def encrypt(public: PublicKey, message: bytes) -> bytes:
    """Encrypt one message that fits in a single modulus block."""
    padded = _pad(message, public.byte_length)
    value = int.from_bytes(padded, "big")
    cipher = pow(value, public.e, public.n)
    return cipher.to_bytes(public.byte_length, "big")


def decrypt(private: PrivateKey, ciphertext: bytes) -> bytes:
    """Decrypt one modulus-size block."""
    if len(ciphertext) != private.byte_length:
        raise CryptoError("ciphertext length does not match modulus")
    value = int.from_bytes(ciphertext, "big")
    if value >= private.n:
        raise CryptoError("ciphertext out of range")
    padded = private._private_op(value).to_bytes(private.byte_length, "big")
    return _unpad(padded)


# -- multi-block blobs --------------------------------------------------------

def encrypt_blob(public: PublicKey, payload: bytes) -> bytes:
    """Chunk ``payload`` into modulus-size blocks and encrypt each.

    This mirrors the paper's PUBLIC comparator, where whole metadata objects
    are public-key encrypted block by block.
    """
    chunk = public.max_payload
    blocks = [payload[i:i + chunk] for i in range(0, len(payload), chunk)]
    if not blocks:
        blocks = [b""]
    return b"".join(encrypt(public, block) for block in blocks)


def decrypt_blob(private: PrivateKey, blob: bytes) -> bytes:
    """Inverse of :func:`encrypt_blob`."""
    size = private.byte_length
    if len(blob) % size != 0 or not blob:
        raise CryptoError("RSA blob is not a whole number of blocks")
    pieces = [decrypt(private, blob[i:i + size])
              for i in range(0, len(blob), size)]
    return b"".join(pieces)


# -- signatures ---------------------------------------------------------------

def sign(private: PrivateKey, message: bytes) -> bytes:
    """Hash-and-sign: pad the digest and apply the private operation."""
    digest = hashes.digest(message)
    padded = (b"\x00\x01"
              + b"\xff" * (private.byte_length - len(digest) - 3)
              + b"\x00" + digest)
    value = int.from_bytes(padded, "big")
    signature = private._private_op(value)
    return signature.to_bytes(private.byte_length, "big")


def verify(public: PublicKey, message: bytes, signature: bytes) -> None:
    """Verify a signature; raises :class:`IntegrityError` on failure."""
    if len(signature) != public.byte_length:
        raise IntegrityError("signature length does not match modulus")
    value = int.from_bytes(signature, "big")
    if value >= public.n:
        raise IntegrityError("signature out of range")
    recovered = pow(value, public.e, public.n).to_bytes(
        public.byte_length, "big")
    digest = hashes.digest(message)
    expected = (b"\x00\x01"
                + b"\xff" * (public.byte_length - len(digest) - 3)
                + b"\x00" + digest)
    if recovered != expected:
        raise IntegrityError("RSA signature verification failed")
