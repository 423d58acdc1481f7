"""Fast symmetric stream cipher for bulk file data.

Pure-Python AES (:mod:`repro.crypto.aes`) runs at ~100 KB/s, which would
make megabyte-scale benchmark workloads take minutes of *host* time even
though the *simulated* cost model is what benchmarks report.  This module
is the repo's stand-in for the paper's AES-128: the keystream is one call
to hashlib's C-backed SHAKE-256 extendable-output function,
``SHAKE256("sharoes-stream" || key || nonce)`` squeezed to the payload's
length, XORed in with one big-integer operation, plus an HMAC-SHA256
integrity tag.  It is a real cipher (IND-CPA under the PRF assumption on
the keyed sponge), used behind the same seal/open interface as AES.

Why an XOF and not a hash in counter mode: keystream and XOR cost two C
calls whatever the payload's size.  A counter-mode keystream needs one
Python-level hash construction per 32 bytes -- 32,768 per MiB, measured
at a third of a bulk read's host time with the XOR already in C.

Every sealed payload -- metadata, directory tables, data blocks, the
journal -- goes through this cipher (``CryptoProvider.sym_encrypt``);
the journal's staged payloads, sealed already, ride its MAC as
associated data.
The simulated cost model charges it as "AES-128 on the paper's 2008
client", so the figures reproduce the paper's cipher, not this one.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets

from ..errors import CryptoError, IntegrityError
from .hashes import xor_bytes

NONCE_SIZE = 16
TAG_SIZE = 32


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """``length`` bytes of SHAKE-256 output keyed by ``key`` and ``nonce``."""
    return hashlib.shake_256(b"sharoes-stream" + key + nonce).digest(length)


def _tag(key: bytes, nonce, body, associated: bytes | None) -> bytes:
    """HMAC over the ciphertext ``nonce || body`` (and ``associated``)
    under a MAC key derived from ``key``, fed in parts: the ciphertext
    is never joined to be hashed.

    With associated data the MAC key is a separate derivation and the
    ciphertext's length leads the MAC input, so neither a tag of the
    other form nor a moved ciphertext/associated boundary verifies.
    """
    if associated is None:
        tag_key = hashlib.sha256(b"sharoes-mac" + key).digest()
        mac = hmac.new(tag_key, nonce, hashlib.sha256)
    else:
        tag_key = hashlib.sha256(b"sharoes-mac-ad" + key).digest()
        mac = hmac.new(tag_key, (len(nonce) + len(body)).to_bytes(8, "big")
                       + nonce, hashlib.sha256)
    mac.update(body)
    if associated is not None:
        mac.update(associated)
    return mac.digest()


def _encrypt(key: bytes, plaintext: bytes,
             nonce: bytes | None) -> tuple[bytes, bytes]:
    """``(nonce, body)``: the two parts of :func:`encrypt`'s result."""
    if not key:
        raise CryptoError("empty key")
    if nonce is None:
        nonce = secrets.token_bytes(NONCE_SIZE)
    if len(nonce) != NONCE_SIZE:
        raise CryptoError("nonce must be 16 bytes")
    return nonce, xor_bytes(plaintext, _keystream(key, nonce, len(plaintext)))


def encrypt(key: bytes, plaintext: bytes, nonce: bytes | None = None) -> bytes:
    """Encrypt ``plaintext``; random nonce prepended. Length = input + 16."""
    nonce, body = _encrypt(key, plaintext, nonce)
    return nonce + body


def decrypt(key: bytes, ciphertext) -> bytes:
    """Inverse of :func:`encrypt`; ``ciphertext`` is any byte buffer,
    read in place."""
    if not key:
        raise CryptoError("empty key")
    if len(ciphertext) < NONCE_SIZE:
        raise CryptoError("ciphertext shorter than nonce")
    view = memoryview(ciphertext)
    nonce, body = view[:NONCE_SIZE], view[NONCE_SIZE:]
    return xor_bytes(body, _keystream(key, nonce, len(body)))


def seal(key: bytes, plaintext: bytes,
         associated: bytes | None = None) -> bytes:
    """Encrypt-then-MAC: ``nonce || body || HMAC(tag_key, nonce || body)``,
    joined once.

    The MAC key is derived from the encryption key so callers manage a
    single symmetric key per object, as the paper's DEK/MEK do.
    ``associated`` bytes are authenticated, not encrypted, and not part
    of the result: the caller stores them and hands them to
    :func:`open_sealed` again.
    """
    nonce, body = _encrypt(key, plaintext, None)
    return b"".join((nonce, body, _tag(key, nonce, body, associated)))


def open_sealed(key: bytes, sealed,
                associated: bytes | None = None) -> bytes:
    """Verify the MAC then decrypt; raises :class:`IntegrityError` on
    tamper.  ``sealed`` is any byte buffer, read in place."""
    if not key:
        raise CryptoError("empty key")
    if len(sealed) < NONCE_SIZE + TAG_SIZE:
        raise CryptoError("sealed payload too short")
    view = memoryview(sealed)
    ciphertext, tag = view[:-TAG_SIZE], view[-TAG_SIZE:]
    if not hmac.compare_digest(_tag(key, ciphertext[:NONCE_SIZE],
                                    ciphertext[NONCE_SIZE:], associated),
                               tag):
        raise IntegrityError("sealed payload failed MAC verification")
    return decrypt(key, ciphertext)
