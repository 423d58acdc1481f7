"""Filesystem superblock (paper section III-C).

The superblock bootstraps in-band key distribution: it carries the inode
number of the namespace root plus the MEK/MVK that decrypt and verify the
root's metadata replica.  One copy per authorized user is stored at the
SSP, encrypted with that user's public key, so mounting costs exactly one
public-key operation and needs no out-of-band channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..crypto import esign, rsa
from ..crypto.provider import CryptoProvider
from ..serialize import Reader, Writer


@dataclass(frozen=True)
class Superblock:
    """Decrypted superblock contents for one user."""

    root_inode: int
    root_selector: str
    root_mek: bytes
    root_mvk: bytes  # serialized VerificationKey
    scheme_name: str
    block_size: int

    @cached_property
    def root_verification_key(self) -> esign.VerificationKey:
        """``root_mvk`` parsed, once per mount (the superblock is
        unwrapped once per mount)."""
        return esign.VerificationKey.from_bytes(self.root_mvk)

    def to_bytes(self) -> bytes:
        writer = Writer()
        writer.put_int(self.root_inode)
        writer.put_str(self.root_selector)
        writer.put_bytes(self.root_mek)
        writer.put_bytes(self.root_mvk)
        writer.put_str(self.scheme_name)
        writer.put_int(self.block_size)
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Superblock":
        reader = Reader(raw)
        root_inode = reader.get_int()
        root_selector = reader.get_str()
        root_mek = reader.get_bytes()
        root_mvk = reader.get_bytes()
        scheme_name = reader.get_str()
        block_size = reader.get_int()
        reader.expect_end()
        return cls(root_inode=root_inode, root_selector=root_selector,
                   root_mek=root_mek, root_mvk=root_mvk,
                   scheme_name=scheme_name, block_size=block_size)

    def wrap(self, provider: CryptoProvider,
             user_public: rsa.PublicKey) -> bytes:
        """Encrypt for one user (``E_pub(superblock)``, stored at the SSP)."""
        return provider.pk_encrypt(user_public, self.to_bytes())

    @classmethod
    def unwrap(cls, provider: CryptoProvider, user_private: rsa.PrivateKey,
               blob: bytes) -> "Superblock":
        """The one-time public-key operation performed at mount."""
        return cls.from_bytes(provider.pk_decrypt(user_private, blob))
