"""The seal-and-sign envelope (fs/sealed.py): what the signature covers,
that every tampered blob is refused before a byte is decrypted, and
that a payload goes through SHA-256 once per seal and once per open."""

from __future__ import annotations

import hashlib
import secrets

import pytest

from repro.crypto import esign, stream
from repro.crypto.keys import new_signature_pair
from repro.crypto.provider import CryptoProvider
from repro.errors import IntegrityError
from repro.fs.sealed import bind_context, open_verified, seal_and_sign

KEY = bytes(range(16))
NONCE = bytes(range(0xA0, 0xB0))
CONTEXT = bind_context("data", 9, "b2")
PAYLOAD = b"block two of inode nine"
PAIR = new_signature_pair(64)
provider = CryptoProvider()


def _seal(payload: bytes = PAYLOAD) -> bytes:
    return seal_and_sign(provider, KEY, PAIR.signing, CONTEXT, payload)


def _regions(blob: bytes) -> dict[str, int]:
    """Offset of one byte inside each region of ``len | nonce | body |
    tag | len | sig``."""
    sealed = int.from_bytes(blob[:4], "big")
    sig_at = 4 + sealed + 4
    return {"sealed_length": 3, "nonce": 4, "body": 4 + stream.NONCE_SIZE,
            "tag": 4 + sealed - 1, "signature_length": sig_at - 1,
            "signature": sig_at + 5}


def test_the_signature_covers_exactly_context_and_tag(monkeypatch):
    monkeypatch.setattr(secrets, "token_bytes", lambda n: NONCE[:n])
    blob = _seal()
    sealed = stream.seal(KEY, PAYLOAD)          # the same nonce: same bytes
    tag = sealed[-stream.TAG_SIZE:]
    signature = blob[4 + len(sealed) + 4:]
    assert blob == (len(sealed).to_bytes(4, "big") + sealed
                    + len(signature).to_bytes(4, "big") + signature)
    assert len(sealed) == (stream.NONCE_SIZE + len(PAYLOAD)
                           + stream.TAG_SIZE)
    esign.verify(PAIR.verification, CONTEXT + tag, signature)
    with pytest.raises(IntegrityError):
        esign.verify(PAIR.verification, CONTEXT + sealed, signature)
    assert open_verified(provider, KEY, PAIR.verification, CONTEXT,
                         blob) == PAYLOAD


def _flip(region: str):
    def tamper(blob: bytes) -> bytes:
        at = _regions(blob)[region]
        return blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1:]
    return tamper


TAMPERS = {
    **{f"flip_{region}": (_flip(region), CONTEXT)
       for region in ("sealed_length", "nonce", "body", "tag",
                      "signature_length", "signature")},
    "swapped_context": (lambda blob: blob, bind_context("data", 9, "b3")),
    "truncated": (lambda blob: blob[:-1], CONTEXT),
    "appended": (lambda blob: blob + b"\0", CONTEXT),
}


@pytest.mark.parametrize("case", TAMPERS)
def test_a_tampered_blob_is_refused_before_decryption(case, monkeypatch):
    tamper, context = TAMPERS[case]
    blob = tamper(_seal())
    squeezed = []
    monkeypatch.setattr(stream, "_keystream",
                        lambda *args: squeezed.append(args))
    with pytest.raises(IntegrityError):
        open_verified(provider, KEY, PAIR.verification, context, blob)
    assert squeezed == []


class _CountedSha256:
    """hashlib's SHA-256 that adds the bytes it is fed to ``fed``."""

    digest_size, block_size = 32, 64

    def __init__(self, fed: list[int], data=b"", state=None):
        self._fed, self._state = fed, state or _SHA256()
        self.update(data)

    def update(self, data) -> None:
        self._fed.append(len(data))
        self._state.update(data)

    def digest(self) -> bytes:
        return self._state.digest()

    def copy(self) -> "_CountedSha256":
        return _CountedSha256(self._fed, state=self._state.copy())


_SHA256, _NEW = hashlib.sha256, hashlib.new


def _count_sha256(monkeypatch) -> list[int]:
    """Every byte handed to SHA-256 from here on: the HMAC (hmac falls
    back to calling ``hashlib.sha256``), key derivations and the
    signature digest (``hashlib.new("sha256", ...)``)."""
    fed: list[int] = []
    monkeypatch.setattr(hashlib, "sha256",
                        lambda data=b"": _CountedSha256(fed, data))
    monkeypatch.setattr(hashlib, "new", lambda name, data=b"", **kw: (
        _CountedSha256(fed, data) if name == "sha256"
        else _NEW(name, data, **kw)))
    return fed


BLOCK = bytes(range(256)) * 256   # 64 KiB
#: Key padding, nonce, MAC key derivation, the signed context and tag:
#: everything that is not the payload.  A second pass over the payload
#: (the signature digesting the ciphertext) adds 64 KiB.
OVERHEAD = 1024


def test_a_64k_seal_hashes_the_payload_once(monkeypatch):
    fed = _count_sha256(monkeypatch)
    blob = _seal(BLOCK)
    assert len(BLOCK) <= sum(fed) < len(BLOCK) + OVERHEAD
    assert len(blob) == (4 + stream.NONCE_SIZE + len(BLOCK)
                         + stream.TAG_SIZE + 4
                         + PAIR.verification.byte_length)


def test_a_64k_open_hashes_the_payload_once(monkeypatch):
    blob = _seal(BLOCK)
    fed = _count_sha256(monkeypatch)
    assert open_verified(provider, KEY, PAIR.verification, CONTEXT,
                         blob) == BLOCK
    assert len(BLOCK) <= sum(fed) < len(BLOCK) + OVERHEAD
