"""Metadata replication schemes (paper section III-D).

Different users hold different CAPs for the same object, so the encrypted
metadata (and directory-table) structures must be replicated.  The paper
proposes two schemes:

* **Scheme-1** -- replicate per *user*: every user has their own metadata
  tree, CAP-filtered to their permissions.  No split points ever, but
  storage and update costs scale with the user population (the paper
  estimates ~$0.60/user/month for a million-file tree at 2008 S3 prices).

* **Scheme-2** -- replicate per *CAP chain*: users with the same
  permission class share replicas.  In the classic owner/group/other
  model that is at most three chains per object (plus one per POSIX-ACL
  entry), each mapping to one of the <=5 directory / <=4 file CAP
  designs.  Where chains diverge along the tree (ownership or group
  changes, ACL grants -- the paper's *split points*), resolution falls
  back to public-key lockboxes, one per affected user.

Both schemes answer the same questions: which replicas exist for an
object (``selectors``), which replica a given user reads
(``selector_for_user``), what CAP each replica embodies
(``cap_for_selector``), and how a parent directory row should point at a
child (``child_pointer``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..errors import SharoesError
from ..fs.dirtable import DIRECT, SPLIT, ZERO
from ..fs.metadata import MetadataAttrs
from ..fs.permissions import GROUP, OTHER, OWNER
from ..principals.registry import PrincipalRegistry, UnknownPrincipal
from ..storage.blobs import principal_hash
from .model import Cap, cap_for_bits

#: Scheme-2 selector names for the classic permission classes.
SEL_OWNER = "o"
SEL_GROUP = "g"
SEL_WORLD = "w"


class ReplicationScheme(ABC):
    """Strategy for mapping principals to metadata replicas."""

    name: str

    def __init__(self, registry: PrincipalRegistry):
        self.registry = registry

    # -- principal helpers ---------------------------------------------------

    def _groups_of(self, user_id: str) -> set[str]:
        try:
            return self.registry.user(user_id).groups
        except UnknownPrincipal:
            return set()

    def _class_of(self, attrs: MetadataAttrs, user_id: str) -> str:
        return attrs.perms().class_of(user_id, self._groups_of(user_id))

    def _cap_of_class(self, attrs: MetadataAttrs, perm_class: str) -> Cap:
        bits = attrs.perms().bits_for_class(perm_class)
        return cap_for_bits(bits, attrs.ftype)

    # -- the scheme interface ---------------------------------------------------

    @abstractmethod
    def selector_for_user(self, attrs: MetadataAttrs,
                          user_id: str) -> str:
        """Which replica selector this user should read for this object."""

    @abstractmethod
    def owner_selector(self, attrs: MetadataAttrs) -> str:
        """The owner's (management) replica selector."""

    @abstractmethod
    def selectors(self, attrs: MetadataAttrs) -> list[str]:
        """Replicas to materialize, owner's first.

        Zero-permission chains still get a replica: per the paper's
        Figure 4/5, the zero CAP is a metadata object with every key
        field inaccessible -- holders can stat (see owner/perms/size,
        as in *nix) but can neither read, write nor traverse.
        """

    @abstractmethod
    def cap_for_selector(self, attrs: MetadataAttrs, selector: str) -> Cap:
        """The CAP design a replica embodies."""

    @abstractmethod
    def users_of_selector(self, attrs: MetadataAttrs,
                          selector: str) -> set[str]:
        """All registry users whose class maps to this selector."""

    @abstractmethod
    def supports_splits(self) -> bool:
        """Whether rows can require lockbox resolution."""

    def cap_for_user(self, attrs: MetadataAttrs, user_id: str) -> Cap:
        """Effective CAP of a user on an object (for honest-client checks)."""
        return self._cap_of_class(attrs, self._class_of(attrs, user_id))

    def child_pointer(self, parent_attrs: MetadataAttrs,
                      child_attrs: MetadataAttrs,
                      parent_selector: str) -> tuple[str, str | None]:
        """How the parent's ``parent_selector`` view should point at a child.

        Returns ``(kind, child_selector)`` where kind is DIRECT (all users
        of the parent view share one child replica), SPLIT (they diverge:
        resolve through lockboxes), or ZERO (no access for this chain).
        """
        users = self.users_of_selector(parent_attrs, parent_selector)
        materialized = set(self.selectors(child_attrs))
        if not users:
            # Vacuous chain (e.g. an empty group): point where the chain
            # would lead if it had users.  That keeps the row well
            # formed; it does not make a later member resolve -- a user
            # added to the group afterwards is denied the listing in
            # both schemes until the parent's rows are rewritten
            # (ROADMAP 14(a)).
            candidate = self._structural_child_selector(
                parent_attrs, child_attrs, parent_selector)
            if candidate is None:
                return SPLIT if self.supports_splits() else ZERO, None
            if candidate not in materialized:
                return ZERO, None
            return DIRECT, candidate
        child_selectors = {self.selector_for_user(child_attrs, u)
                           for u in users}
        if len(child_selectors) > 1:
            if not self.supports_splits():
                raise SharoesError(
                    f"scheme {self.name} cannot split, yet users of "
                    f"{parent_selector!r} diverge on inode "
                    f"{child_attrs.inode}")
            return SPLIT, None
        selector = child_selectors.pop()
        if selector not in materialized:
            return ZERO, None
        return DIRECT, selector

    def _structural_child_selector(self, parent_attrs: MetadataAttrs,
                                   child_attrs: MetadataAttrs,
                                   parent_selector: str) -> str | None:
        """Default child selector for a chain with no current users."""
        return None

    def lockbox_map(self, attrs: MetadataAttrs) -> dict[str, str]:
        """user -> selector for everyone needing a lockbox on this object."""
        return {}


class Scheme2(ReplicationScheme):
    """Per-CAP-chain replication with split-point lockboxes (the default)."""

    name = "scheme2"

    def selector_for_user(self, attrs: MetadataAttrs, user_id: str) -> str:
        perm_class = self._class_of(attrs, user_id)
        if perm_class == OWNER:
            return SEL_OWNER
        if perm_class == GROUP:
            return SEL_GROUP
        if perm_class == OTHER:
            return SEL_WORLD
        # acl:<uid>
        return "a:" + principal_hash(perm_class[4:])

    def owner_selector(self, attrs: MetadataAttrs) -> str:
        return SEL_OWNER

    def selectors(self, attrs: MetadataAttrs) -> list[str]:
        out = [SEL_OWNER, SEL_GROUP, SEL_WORLD]
        for entry in attrs.perms().acl:
            cap_for_bits(entry.bits, attrs.ftype)  # validate
            out.append("a:" + principal_hash(entry.user_id))
        return out

    def cap_for_selector(self, attrs: MetadataAttrs, selector: str) -> Cap:
        if selector == SEL_OWNER:
            return self._cap_of_class(attrs, OWNER)
        if selector == SEL_GROUP:
            return self._cap_of_class(attrs, GROUP)
        if selector == SEL_WORLD:
            return self._cap_of_class(attrs, OTHER)
        if selector.startswith("a:"):
            for entry in attrs.acl:
                if "a:" + principal_hash(entry.user_id) == selector:
                    return cap_for_bits(entry.bits, attrs.ftype)
        raise SharoesError(f"no CAP for selector {selector!r} on inode "
                           f"{attrs.inode}")

    def users_of_selector(self, attrs: MetadataAttrs,
                          selector: str) -> set[str]:
        return {user.user_id for user in self.registry.users()
                if self.selector_for_user(attrs, user.user_id) == selector}

    def supports_splits(self) -> bool:
        return True

    def _structural_child_selector(self, parent_attrs: MetadataAttrs,
                                   child_attrs: MetadataAttrs,
                                   parent_selector: str) -> str | None:
        if parent_selector == SEL_OWNER:
            return (SEL_OWNER
                    if parent_attrs.owner == child_attrs.owner else None)
        if parent_selector == SEL_GROUP:
            return (SEL_GROUP
                    if parent_attrs.group == child_attrs.group else None)
        if parent_selector == SEL_WORLD:
            return SEL_WORLD
        return None

    def lockbox_map(self, attrs: MetadataAttrs) -> dict[str, str]:
        materialized = set(self.selectors(attrs))
        out = {}
        for user in self.registry.users():
            selector = self.selector_for_user(attrs, user.user_id)
            if selector in materialized:
                out[user.user_id] = selector
        return out


class Scheme1(ReplicationScheme):
    """Per-user replication: a private CAP-filtered tree for every user."""

    name = "scheme1"

    def _user_selector(self, user_id: str) -> str:
        return "u:" + principal_hash(user_id)

    def selector_for_user(self, attrs: MetadataAttrs, user_id: str) -> str:
        return self._user_selector(user_id)

    def owner_selector(self, attrs: MetadataAttrs) -> str:
        return self._user_selector(attrs.owner)

    def selectors(self, attrs: MetadataAttrs) -> list[str]:
        out = [self.owner_selector(attrs)]
        for user in self.registry.users():
            if user.user_id != attrs.owner:
                out.append(self._user_selector(user.user_id))
        return out

    def cap_for_selector(self, attrs: MetadataAttrs, selector: str) -> Cap:
        for user in self.registry.users():
            if self._user_selector(user.user_id) == selector:
                return self.cap_for_user(attrs, user.user_id)
        raise SharoesError(f"selector {selector!r} matches no known user")

    def users_of_selector(self, attrs: MetadataAttrs,
                          selector: str) -> set[str]:
        return {user.user_id for user in self.registry.users()
                if self._user_selector(user.user_id) == selector}

    def supports_splits(self) -> bool:
        return False


def make_scheme(name: str, registry: PrincipalRegistry) -> ReplicationScheme:
    """Factory by name ('scheme1' or 'scheme2')."""
    if name == Scheme1.name:
        return Scheme1(registry)
    if name == Scheme2.name:
        return Scheme2(registry)
    raise SharoesError(f"unknown replication scheme {name!r}")
