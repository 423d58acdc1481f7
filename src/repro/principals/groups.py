"""Group key distribution and the per-user key wallet.

Paper section II-A: group key pairs are distributed by storing the group's
private key encrypted with the public key of each member (individually) at
the SSP.  When a user mounts the filesystem they fetch their encrypted
group key blocks and unwrap them with their private key -- entirely
in-band, no out-of-channel key exchange.

:class:`UserAgent` is the client-side wallet: it holds the user's private
key plus whatever group private keys were unwrapped at mount time, and it
is the single place that can open principal-addressed lockboxes (used for
superblocks and Scheme-2 split points).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto import rsa
from ..crypto.provider import CryptoProvider
from ..errors import KeyAccessError
from ..storage.blobs import group_key_blob
from ..storage.server import StorageServer
from .registry import PrincipalRegistry
from .users import Group, User


class GroupKeyService:
    """Publishes and rotates group keys at the SSP."""

    def __init__(self, registry: PrincipalRegistry, server: StorageServer,
                 provider: CryptoProvider):
        self._registry = registry
        self._server = server
        self._provider = provider

    def publish(self, group: Group) -> int:
        """Wrap the group private key for every member; returns blob count."""
        payload = group.keypair.private.to_bytes()
        for member_id in sorted(group.members):
            member_key = self._registry.directory.user_key(member_id)
            wrapped = self._provider.pk_encrypt(member_key, payload)
            self._server.put(group_key_blob(group.group_id, member_id),
                             wrapped)
        return len(group.members)

    def publish_all(self) -> int:
        return sum(self.publish(g) for g in self._registry.groups())

    def revoke_member(self, group_id: str, user_id: str) -> Group:
        """Remove a member and rotate the group key pair.

        Rotation is mandatory: the departing member still *knows* the old
        group private key, so every remaining member gets a fresh key and
        the departed member's blob is deleted.  Objects whose CAPs were
        wrapped under the old group key must be re-wrapped by their owners
        (the filesystem's revocation path does this).
        """
        group = self._registry.group(group_id)
        self._server.delete(group_key_blob(group_id, user_id))
        self._registry.remove_member(group_id, user_id)
        group.keypair = rsa.generate_keypair(group.keypair.public.n.bit_length())
        self.publish(group)
        return group


@dataclass
class UserAgent:
    """Client-side wallet: the only holder of a user's private keys."""

    user: User
    provider: CryptoProvider
    group_keys: dict[str, rsa.PrivateKey] = field(default_factory=dict)

    @property
    def user_id(self) -> str:
        return self.user.user_id

    def principal_ids(self) -> list[str]:
        """Identities this agent can decrypt for: the user, then groups."""
        return [self.user.user_id] + sorted(self.group_keys)

    def install_group_key(self, group_id: str, wrapped: bytes) -> None:
        """Unwrap one group key block fetched by the client at mount."""
        raw = self.provider.pk_decrypt(self.user.private_key, wrapped)
        self.group_keys[group_id] = rsa.PrivateKey.from_bytes(raw)

    def private_key_for(self, principal_id: str) -> rsa.PrivateKey:
        """Private key for one of this agent's identities."""
        if principal_id == self.user.user_id:
            return self.user.private_key
        try:
            return self.group_keys[principal_id]
        except KeyError:
            raise KeyAccessError(
                f"{self.user.user_id} holds no key for {principal_id!r}"
            ) from None

    def unwrap(self, principal_id: str, blob: bytes) -> bytes:
        """Decrypt a lockbox addressed to one of this agent's identities."""
        return self.provider.pk_decrypt(
            self.private_key_for(principal_id), blob)
