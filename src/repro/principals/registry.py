"""Public-key directory and principal registry.

Models the paper's PKI assumption: "we assume that each user knows the
public keys for all other users" (section II-A).  The directory holds only
*public* material; private keys stay with their owners (the
:class:`~repro.principals.groups.UserAgent` wallet).
"""

from __future__ import annotations

from ..crypto import esign, rsa
from ..errors import SharoesError
from .users import Group, User


class UnknownPrincipal(SharoesError):
    """Lookup of a user or group the registry has never seen."""


class PublicKeyDirectory:
    """Maps user ids to their public keys: the RSA key others encrypt
    to and the ESIGN verification key (UVK) their signatures check
    against."""

    def __init__(self) -> None:
        self._user_keys: dict[str, rsa.PublicKey] = {}
        self._signature_keys: dict[str, esign.VerificationKey] = {}

    def register_user(self, user: User) -> None:
        self._user_keys[user.user_id] = user.public_key
        self._signature_keys[user.user_id] = user.signing.verification

    def user_key(self, user_id: str) -> rsa.PublicKey:
        try:
            return self._user_keys[user_id]
        except KeyError:
            raise UnknownPrincipal(f"user {user_id!r}") from None

    def signature_key(self, user_id: str) -> esign.VerificationKey:
        try:
            return self._signature_keys[user_id]
        except KeyError:
            raise UnknownPrincipal(f"user {user_id!r}") from None


class PrincipalRegistry:
    """Enterprise-side roster of users and groups.

    This is *enterprise* infrastructure (it exists before outsourcing and
    stays inside the trust domain); the SSP never sees it.  It answers the
    membership questions the filesystem needs: which class (owner, group,
    other) does user U fall into for an object owned by O with group G?
    """

    def __init__(self) -> None:
        self.directory = PublicKeyDirectory()
        self._users: dict[str, User] = {}
        self._groups: dict[str, Group] = {}

    # -- enrolment ------------------------------------------------------------

    def add_user(self, user: User) -> User:
        if user.user_id in self._users:
            raise SharoesError(f"duplicate user {user.user_id!r}")
        self._users[user.user_id] = user
        self.directory.register_user(user)
        return user

    def add_group(self, group: Group) -> Group:
        if group.group_id in self._groups:
            raise SharoesError(f"duplicate group {group.group_id!r}")
        unknown = group.members - set(self._users)
        if unknown:
            raise UnknownPrincipal(f"group members {sorted(unknown)}")
        self._groups[group.group_id] = group
        for member in group.members:
            self._users[member].groups.add(group.group_id)
        return group

    def create_user(self, user_id: str, **kwargs) -> User:
        return self.add_user(User.create(user_id, **kwargs))

    def create_group(self, group_id: str, members: set[str] | None = None,
                     **kwargs) -> Group:
        return self.add_group(Group.create(group_id, members, **kwargs))

    # -- membership -----------------------------------------------------------

    def user(self, user_id: str) -> User:
        try:
            return self._users[user_id]
        except KeyError:
            raise UnknownPrincipal(f"user {user_id!r}") from None

    def group(self, group_id: str) -> Group:
        try:
            return self._groups[group_id]
        except KeyError:
            raise UnknownPrincipal(f"group {group_id!r}") from None

    def add_member(self, group_id: str, user_id: str) -> None:
        self.group(group_id).members.add(self.user(user_id).user_id)
        self._users[user_id].groups.add(group_id)

    def remove_member(self, group_id: str, user_id: str) -> None:
        """Membership revocation; the caller must re-wrap group keys."""
        self.group(group_id).members.discard(user_id)
        if user_id in self._users:
            self._users[user_id].groups.discard(group_id)

    def users(self) -> list[User]:
        return [self._users[uid] for uid in sorted(self._users)]

    def groups(self) -> list[Group]:
        return [self._groups[gid] for gid in sorted(self._groups)]
