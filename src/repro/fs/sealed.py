"""Seal-and-sign envelope for everything stored at the SSP.

Every SHAROES blob -- metadata replica, directory-table view, file data
block -- is stored as::

    Writer(sealed, signature)  =  len | nonce | body | tag | len | sig

where ``sealed = SymEnc(key, payload)`` is the stream cipher's
encrypt-then-MAC form (``tag = HMAC-SHA256(nonce || body)``, see
crypto/stream.py) and ``signature`` covers a *context-bound* message
``context || tag``.  The context string (blob kind + inode +
selector/index) prevents an untrusted SSP from swapping validly-signed
blobs between locations -- e.g. serving file A's (correctly signed) data
for file B, or block 3 in place of block 0.

The signature covers the MAC tag, which already commits to the whole
ciphertext, so each payload byte is hashed once (in the HMAC) on a seal
and once on an open.  A reader holding the DEK who wants a different
body under a writer's signed tag must find an HMAC-SHA256 collision
under a key it knows: a SHA-256 collision, the assumption hash-then-sign
already rests on (docs/THREAT_MODEL.md, "Primitive choices").  Readers
check the signature, then the MAC, and only then decrypt; writers never
reveal plaintext to the signature path.  This realizes the paper's
reader/writer distinction: DEK holders can decrypt, but only DSK holders
can produce blobs that verify under the DVK.  (The intent journal has no
readers who are not also writers, so it is MAC-sealed only:
fs/journal.py.)
"""

from __future__ import annotations

from ..crypto.provider import CryptoProvider
from ..crypto.stream import NONCE_SIZE, TAG_SIZE
from ..errors import IntegrityError
from ..serialize import Reader, SerializationError, Writer


def bind_context(kind: str, inode: int, qualifier: str = "") -> bytes:
    """Context string binding a blob to its logical location."""
    return f"sharoes/{kind}/{inode}/{qualifier}".encode("utf-8")


def seal_and_sign(provider: CryptoProvider, sym_key: bytes, signing_key,
                  context: bytes, payload: bytes) -> bytes:
    """Encrypt-then-MAC ``payload``, then sign ``context || tag``."""
    sealed = provider.sym_encrypt(sym_key, payload)
    signature = provider.sign(signing_key, context + sealed[-TAG_SIZE:])
    writer = Writer()
    writer.put_bytes(sealed)
    writer.put_bytes(signature)
    return writer.getvalue()


def _fields(blob) -> tuple[memoryview, memoryview]:
    """``(sealed, signature)``: views into ``blob``, nothing copied."""
    try:
        reader = Reader(memoryview(blob))
        sealed = reader.get_bytes()
        signature = reader.get_bytes()
        reader.expect_end()
    except SerializationError as exc:
        raise IntegrityError(f"malformed sealed blob: {exc}") from exc
    if len(sealed) < NONCE_SIZE + TAG_SIZE:
        raise IntegrityError("malformed sealed blob: no room for a tag")
    return sealed, signature


def open_verified(provider: CryptoProvider, sym_key: bytes,
                  verification_key, context: bytes, blob: bytes) -> bytes:
    """Verify the signature over ``context || tag``, then the MAC over
    the ciphertext, then decrypt.

    Raises :class:`IntegrityError` on any tampering (bit flips, blob
    swaps, structural corruption, or forged writes by DEK-only readers)
    before a byte is decrypted.
    """
    sealed, signature = _fields(blob)
    provider.verify(verification_key, context + sealed[-TAG_SIZE:],
                    signature)
    return provider.sym_decrypt(sym_key, sealed)


def open_unverified(provider: CryptoProvider, sym_key: bytes,
                    blob: bytes) -> bytes:
    """Decrypt without verifying the signature (used by tests to model
    lazy readers)."""
    return provider.sym_decrypt(sym_key, _fields(blob)[0])


def replace_ciphertext(blob: bytes, new_ciphertext: bytes) -> bytes:
    """Re-wrap a blob with different ciphertext, keeping the signature.

    Only used by attack-simulation tests (a malicious writer splicing
    content under someone else's signature must be caught by verifiers).
    """
    reader = Reader(blob)
    reader.get_bytes()
    signature = reader.get_bytes()
    writer = Writer()
    writer.put_bytes(new_ciphertext)
    writer.put_bytes(signature)
    return writer.getvalue()
