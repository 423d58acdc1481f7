"""The *nix permission model: modes, classes and a reference evaluator.

SHAROES's goal is to replicate these semantics cryptographically.  This
module is the *ground truth*: a plain (non-cryptographic) implementation of
the original UNIX owner/group/other model plus minimal POSIX ACL user
entries.  Property-based tests check that what the cryptographic CAP layer
allows/denies matches what this evaluator says, which is the central
correctness claim of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

READ = 4
WRITE = 2
EXEC = 1

OWNER = "owner"
GROUP = "group"
OTHER = "other"

FILE = "file"
DIRECTORY = "dir"
#: Symbolic links carry their target as (encrypted) file content and are
#: CAP-wise identical to files; their mode bits are conventional.
SYMLINK = "symlink"


def triple(mode: int, which: str) -> int:
    """Extract one rwx triple from a 9-bit mode (e.g. 0o754)."""
    shift = {OWNER: 6, GROUP: 3, OTHER: 0}[which]
    return (mode >> shift) & 0o7


def format_mode(mode: int) -> str:
    """Render a 9-bit mode as ``rwxr-x---``."""
    out = []
    for shift in (6, 3, 0):
        bits = (mode >> shift) & 0o7
        out.append("r" if bits & READ else "-")
        out.append("w" if bits & WRITE else "-")
        out.append("x" if bits & EXEC else "-")
    return "".join(out)


@dataclass(frozen=True)
class AclEntry:
    """A POSIX-ACL style per-user permission grant."""

    user_id: str
    bits: int  # rwx bits, 0..7


@dataclass
class ObjectPerms:
    """Ownership + mode + ACL of one filesystem object."""

    owner: str
    group: str
    mode: int  # 9-bit rwx triple set
    ftype: str = FILE
    acl: tuple[AclEntry, ...] = field(default_factory=tuple)

    def class_of(self, user_id: str, user_groups: set[str]) -> str:
        """Which permission class applies to ``user_id`` for this object.

        ACL entries take precedence (returned as a pseudo-class
        ``acl:<uid>``), then the classic owner -> group -> other cascade.
        """
        for entry in self.acl:
            if entry.user_id == user_id:
                return f"acl:{user_id}"
        if user_id == self.owner:
            return OWNER
        if self.group in user_groups:
            return GROUP
        return OTHER

    def bits_for_class(self, perm_class: str) -> int:
        if perm_class.startswith("acl:"):
            uid = perm_class[4:]
            for entry in self.acl:
                if entry.user_id == uid:
                    return entry.bits
            raise ValueError(f"no ACL entry for {uid!r}")
        return triple(self.mode, perm_class)

    def bits_for(self, user_id: str, user_groups: set[str]) -> int:
        return self.bits_for_class(self.class_of(user_id, user_groups))


class ReferenceEvaluator:
    """Plain *nix semantics over :class:`ObjectPerms`.

    ``user_groups_of(user_id)`` names a user's groups; the evaluator then
    answers the questions the paper's CAPs encode (section III): can this
    user list / traverse / read / write / create-in / delete-from each
    object?  ``tests/test_property_semantics.py`` checks the
    cryptographic client against it.

    Path-level operations require EXEC on every ancestor directory
    (traversal), exactly as in UNIX.
    """

    def __init__(self, user_groups_of):
        self._groups = user_groups_of

    def _bits(self, path_perms: ObjectPerms, user_id: str) -> int:
        return path_perms.bits_for(user_id, self._groups(user_id))

    def can_traverse_to(self, ancestors: list[ObjectPerms],
                        user_id: str) -> bool:
        """EXEC on every ancestor directory."""
        return all(self._bits(p, user_id) & EXEC for p in ancestors)

    def can_list(self, perms: ObjectPerms, user_id: str) -> bool:
        """``ls`` on a directory needs READ on it."""
        return perms.ftype == DIRECTORY and bool(
            self._bits(perms, user_id) & READ)

    def can_modify_dir(self, perms: ObjectPerms, user_id: str) -> bool:
        """Creating/deleting entries needs WRITE *and* EXEC on the dir."""
        bits = self._bits(perms, user_id)
        return (perms.ftype == DIRECTORY
                and bool(bits & WRITE) and bool(bits & EXEC))

    def can_read_file(self, perms: ObjectPerms, user_id: str) -> bool:
        return perms.ftype == FILE and bool(self._bits(perms, user_id) & READ)

    def can_write_file(self, perms: ObjectPerms, user_id: str) -> bool:
        return perms.ftype == FILE and bool(
            self._bits(perms, user_id) & WRITE)
