"""Client-side freshness monitoring (the paper's integrity future work).

Section VIII: "First, we plan to implement integrity mechanisms for
SHAROES, leveraging some of the related work [SUNDR]."  Signatures
already stop the SSP from *fabricating* state, but nothing stops it from
serving an older, validly-signed version (a rollback).  Full
fork-consistency is SUNDR's contribution; the practical client-side slice
implemented here is **version monotonicity**:

* every metadata replica carries a version counter (bumped on each
  owner update);
* the monitor remembers, per inode, the highest version this client has
  ever verified, plus a digest of that replica;
* a fetch that returns a *lower* version than previously seen -- or the
  same version with different bytes (equivocation) -- raises
  :class:`StaleObjectError`.

This detects rollback of any object the client has visited before.  It
cannot detect a rollback on first contact or cross-client forks -- that
is exactly the gap SUNDR's vector clocks close, and why the paper calls
the two systems complementary.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import hashes
from ..errors import IntegrityError


class StaleObjectError(IntegrityError):
    """The SSP served an object older than one this client verified."""


@dataclass(frozen=True)
class _Observation:
    version: int
    digest: bytes


class FreshnessMonitor:
    """Per-client memory of the newest verified version of each object.

    The monitor is deliberately local state (not stored at the SSP --
    the SSP is the adversary here).  A long-lived client accumulates
    coverage; a fresh client starts blind, mirroring SUNDR's observation
    that freshness is a property of a *view*, not of the data.
    """

    def __init__(self) -> None:
        self._seen: dict[int, _Observation] = {}
        #: bumped when a watermark rises (fs/resolve.py's walk memo).
        self.generation = 0

    def observe_metadata(self, inode: int, version: int,
                         payload: bytes) -> None:
        """Record (and check) one verified metadata replica.

        Raises :class:`StaleObjectError` if the SSP served a version
        older than previously verified, or different bytes under an
        already-seen version (equivocation between replicas is fine --
        each selector has its own bytes -- so the digest covers the
        attributes, not the whole replica).
        """
        digest = hashes.digest(payload)
        previous = self._seen.get(inode)
        if previous is not None:
            if version < previous.version:
                raise StaleObjectError(
                    f"inode {inode}: SSP served version {version} after "
                    f"version {previous.version} was verified (rollback)")
            if version == previous.version and digest != previous.digest:
                raise StaleObjectError(
                    f"inode {inode}: two different contents claim "
                    f"version {version} (equivocation)")
        if previous is None or version > previous.version:
            if previous is not None:
                self.generation += 1
            self._seen[inode] = _Observation(version=version,
                                             digest=digest)

    def forget(self, inode: int) -> None:
        """Drop tracking (after unlink: inode numbers are not reused,
        but a deliberate reset hook keeps the monitor bounded)."""
        self._seen.pop(inode, None)

    def high_watermark(self, inode: int) -> int | None:
        obs = self._seen.get(inode)
        return obs.version if obs is not None else None
