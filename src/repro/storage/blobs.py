"""Blob identifiers for the SSP's flat store.

The paper's SSP "simply maintains a large hashtable for encrypted metadata
objects and encrypted data blocks, both indexed by the inode numbers and
either hash of user/group ID (for Scheme-1) or CAP ID (Scheme-2)"
(section IV).  This module defines that index space:

* ``meta/<inode>/<selector>``  -- encrypted metadata replicas
* ``data/<inode>/<selector>``  -- encrypted data blocks (selector
  ``b<index>``, :func:`block_blob`) / directory tables
* ``super/<user-hash>``        -- per-user encrypted superblocks
* ``groupkey/<group>/<user-hash>`` -- group keys wrapped per member
* ``lockbox/<inode>/<user-hash>``  -- Scheme-2 split-point lockboxes
* ``journal/<user-hash>``      -- per-user write-ahead intent journals
  (sealed client-side under a key derived from the user's private key;
  see :mod:`repro.fs.journal`)
* ``lease/<inode>``            -- per-inode signed lease blobs with a
  plaintext fencing-epoch prefix (see :mod:`repro.fs.lease`);
  ``lease/<inode>/check`` is never stored: a mutation frame's fenced
  no-op delete of it checks the lease
* ``plan/0/-``                 -- the signed shard-rebalance plan with a
  plaintext plan-epoch prefix (see :mod:`repro.storage.rebalance`)

``selector`` is a CAP id under Scheme-2 or a hashed principal id under
Scheme-1; baselines that keep a single copy use the selector ``"-"``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import hashes

META = "meta"
DATA = "data"
SUPERBLOCK = "super"
GROUP_KEY = "groupkey"
LOCKBOX = "lockbox"
JOURNAL = "journal"
LEASE = "lease"
PLAN = "plan"

#: Selector for single-copy objects (baselines, shared structures).
SHARED = "-"


def principal_hash(principal_id: str) -> str:
    """Hash of a user/group id: the SSP indexes by this, never the raw id."""
    return hashes.hexdigest(principal_id.encode("utf-8"))[:16]


@dataclass(frozen=True, order=True)
class BlobId:
    """A fully-qualified key into the SSP hashtable."""

    kind: str
    inode: int
    selector: str

    def __str__(self) -> str:
        return f"{self.kind}/{self.inode}/{self.selector}"


def meta_blob(inode: int, selector: str = SHARED) -> BlobId:
    return BlobId(META, inode, selector)


def data_blob(inode: int, selector: str = SHARED) -> BlobId:
    return BlobId(DATA, inode, selector)


def block_blob(inode: int, index: int) -> BlobId:
    """Blob id of block ``index`` of a file's data."""
    return BlobId(DATA, inode, f"b{index}")


def block_index(blob_id: BlobId) -> int | None:
    """The index a :func:`block_blob` id names (None: not a block id)."""
    digits = blob_id.selector[1:]
    if (blob_id.kind != DATA or blob_id.selector[:1] != "b"
            or not (digits.isascii() and digits.isdigit())
            or str(int(digits)) != digits):
        return None
    return int(digits)


def in_tail(tail: BlobId, blob_id: BlobId) -> bool:
    """Does a ``delete_tail`` from block ``tail`` cover ``blob_id``: a
    block of the same inode at or past it?"""
    index = block_index(blob_id)
    return (index is not None and blob_id.inode == tail.inode
            and index >= block_index(tail))


def superblock_blob(user_id: str) -> BlobId:
    return BlobId(SUPERBLOCK, 0, principal_hash(user_id))


def group_key_blob(group_id: str, user_id: str) -> BlobId:
    return BlobId(GROUP_KEY, 0,
                  f"{principal_hash(group_id)}/{principal_hash(user_id)}")


def lockbox_blob(inode: int, user_id: str) -> BlobId:
    return BlobId(LOCKBOX, inode, principal_hash(user_id))


def journal_blob(user_id: str) -> BlobId:
    """One write-ahead intent journal per user (inode slot 0)."""
    return BlobId(JOURNAL, 0, principal_hash(user_id))


def lease_blob(inode: int) -> BlobId:
    """The per-inode lease blob every writer of that inode contends on."""
    return BlobId(LEASE, inode, SHARED)


def plan_blob() -> BlobId:
    """The single rebalance-plan slot every rebalancer contends on."""
    return BlobId(PLAN, 0, SHARED)


def parse_blob_id(name: str) -> BlobId:
    """Inverse of ``str(blob_id)`` (``kind/inode/selector``)."""
    kind, inode, selector = name.split("/", 2)
    return BlobId(kind, int(inode), selector)
