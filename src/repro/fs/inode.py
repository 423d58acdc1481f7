"""Inode number allocation.

A single monotonically increasing allocator per volume.  Multi-client
allocation coordination (leases, ranges) is orthogonal to the paper's
contribution; clients of one volume share the allocator object.
"""

from __future__ import annotations


class InodeAllocator:
    """Hands out unique inode numbers, starting at the ext2-style root 2."""

    ROOT_INODE = 2

    def __init__(self, next_inode: int | None = None):
        self._next = next_inode if next_inode is not None else self.ROOT_INODE

    def allocate(self) -> int:
        inode = self._next
        self._next += 1
        return inode
