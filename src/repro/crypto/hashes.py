"""Hashing, HMAC and key-derivation helpers.

SHAROES uses keyed hashes in two places:

* exec-only directory CAPs derive a per-row key from the child's *name*
  keyed by the directory's DEK -- ``derive_row_key`` below;
* content hashes feed the DSK/MSK signatures so that signing covers the
  whole object cheaply.

The paper mentions MD5/SHA1 (2008-era); we default to SHA-256 but expose the
algorithm as a parameter so the historical choices remain constructible.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

DEFAULT_HASH = "sha256"


def digest(data: bytes, algorithm: str = DEFAULT_HASH) -> bytes:
    """Plain cryptographic hash of ``data``."""
    return hashlib.new(algorithm, data).digest()


def hexdigest(data: bytes, algorithm: str = DEFAULT_HASH) -> str:
    """Hex form of :func:`digest`, convenient for blob indexing."""
    return hashlib.new(algorithm, data).hexdigest()


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR of two equal-length byte strings.

    One big-integer XOR in C rather than a Python step per byte; every
    cipher mode in :mod:`repro.crypto` combines keystream and data here.
    """
    if len(a) != len(b):
        raise ValueError("xor_bytes needs operands of equal length")
    return (int.from_bytes(a, "little")
            ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def hmac(key: bytes, data: bytes, algorithm: str = DEFAULT_HASH) -> bytes:
    """HMAC of ``data`` under ``key``."""
    return _hmac.new(key, data, algorithm).digest()


def derive_key(secret: bytes, label: str, length: int = 16,
               algorithm: str = DEFAULT_HASH) -> bytes:
    """Derive a ``length``-byte subkey from ``secret`` for purpose ``label``.

    An HKDF-expand style construction: counter-mode HMAC over the label.
    Used wherever SHAROES needs several independent keys from one secret.
    """
    out = b""
    counter = 1
    info = label.encode("utf-8")
    while len(out) < length:
        out += _hmac.new(secret, bytes([counter]) + info, algorithm).digest()
        counter += 1
    return out[:length]


def derive_row_key(table_dek: bytes, name: str, length: int = 16,
                   algorithm: str = DEFAULT_HASH) -> bytes:
    """Row key for exec-only directory tables: ``H_DEK(name)``.

    Any user who knows the exact ``name`` of a child (and holds the table's
    DEK) can derive this key and decrypt that child's row -- the
    cryptographic realization of *nix --x directory semantics (paper
    section III-A).
    """
    return derive_key(table_dek, "sharoes-row:" + name, length, algorithm)
