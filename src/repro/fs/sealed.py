"""Seal-and-sign envelope for everything stored at the SSP.

Every SHAROES blob -- metadata replica, directory-table view, file data
block -- is stored as::

    Writer(ciphertext, signature)

where ``ciphertext = SymEnc(key, payload)`` and ``signature`` covers a
*context-bound* message ``context || ciphertext``.  The context string
(blob kind + inode + selector/index) prevents an untrusted SSP from
swapping validly-signed blobs between locations -- e.g. serving file A's
(correctly signed) data for file B, or block 3 in place of block 0.

Signing covers the ciphertext, so readers verify *before* decrypting and
writers never reveal plaintext to the signature path.  This realizes the
paper's reader/writer distinction: DEK holders can decrypt, but only DSK
holders can produce blobs that verify under the DVK.  (The intent
journal has no readers who are not also writers, so it is MAC-sealed
only: fs/journal.py.)
"""

from __future__ import annotations

from ..crypto.provider import CryptoProvider
from ..errors import IntegrityError
from ..serialize import Reader, SerializationError, Writer


def bind_context(kind: str, inode: int, qualifier: str = "") -> bytes:
    """Context string binding a blob to its logical location."""
    return f"sharoes/{kind}/{inode}/{qualifier}".encode("utf-8")


def seal_and_sign(provider: CryptoProvider, sym_key: bytes, signing_key,
                  context: bytes, payload: bytes) -> bytes:
    """Encrypt ``payload`` then sign ``context || ciphertext``."""
    ciphertext = provider.sym_encrypt(sym_key, payload)
    signature = provider.sign(signing_key, context + ciphertext)
    writer = Writer()
    writer.put_bytes(ciphertext)
    writer.put_bytes(signature)
    return writer.getvalue()


def open_verified(provider: CryptoProvider, sym_key: bytes,
                  verification_key, context: bytes, blob: bytes) -> bytes:
    """Verify the signature, then decrypt.

    Raises :class:`IntegrityError` on any tampering (bit flips, blob
    swaps, structural corruption, or forged writes by DEK-only readers).
    """
    try:
        reader = Reader(blob)
        ciphertext = reader.get_bytes()
        signature = reader.get_bytes()
        reader.expect_end()
    except SerializationError as exc:
        raise IntegrityError(f"malformed sealed blob: {exc}") from exc
    provider.verify(verification_key, context + ciphertext, signature)
    return provider.sym_decrypt(sym_key, ciphertext)


def open_unverified(provider: CryptoProvider, sym_key: bytes,
                    blob: bytes) -> bytes:
    """Decrypt without verifying (used by tests to model lazy readers)."""
    reader = Reader(blob)
    ciphertext = reader.get_bytes()
    reader.get_bytes()  # discard signature
    reader.expect_end()
    return provider.sym_decrypt(sym_key, ciphertext)


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
