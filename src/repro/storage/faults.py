"""Fault-injecting SSP variants.

The paper's threat model (section VII) trusts the SSP to faithfully
store/retrieve data but not with confidentiality or access control; a
malicious SSP can still tamper, roll back, or fail requests.  These
injectors simulate those behaviours so the test suite can assert that
every one is *detected* by client-side verification (the deterrent the
paper pairs with SLA penalties).

Both are delegating :class:`~repro.storage.resilient.ServerWrapper`
decorators, so they compose with any backend -- a plain in-memory
server, a disk store, a remote proxy, or one shard of a
:class:`~repro.storage.shards.ShardedServer` -- and with each other,
unambiguously.  Constructed without an ``inner`` they own a fresh
:class:`~repro.storage.server.StorageServer`, which preserves the old
standalone usage (``TamperingServer()`` is a complete malicious SSP).
The wrapper base routes ``batch()`` through the instance's own
single-op methods, so a malicious SSP tampers, rolls back, or fails
*inside* an ``OP_BATCH`` frame with no extra code, and the batched-read
paths inherit the same detection guarantees (asserted by the batch
fuzz/chaos suites).  The transient-fault injector is
:class:`repro.storage.resilient.FlakyServer`.
"""

from __future__ import annotations

from typing import Callable

from .blobs import BlobId
from .resilient import ServerWrapper
from .server import StorageServer


class TamperingServer(ServerWrapper):
    """Flips a bit of selected blobs on the way out.

    ``should_tamper`` picks victim blobs; by default every get is
    tampered.
    """

    def __init__(self, name: str = "evil-ssp",
                 should_tamper: Callable[[BlobId], bool] | None = None,
                 bit_index: int = 0,
                 inner: StorageServer | None = None):
        super().__init__(inner if inner is not None
                         else StorageServer(name), name)
        self._should_tamper = should_tamper or (lambda blob_id: True)
        self._bit_index = bit_index
        self.tamper_count = 0

    def get(self, blob_id: BlobId) -> bytes:
        payload = self.inner.get(blob_id)
        if not self._should_tamper(blob_id) or not payload:
            return payload
        self.tamper_count += 1
        corrupted = bytearray(payload)
        byte_index = (self._bit_index // 8) % len(corrupted)
        corrupted[byte_index] ^= 1 << (self._bit_index % 8)
        return bytes(corrupted)


class RollbackServer(ServerWrapper):
    """Serves the *first* version ever written for selected blobs.

    Models a rollback attack: the SSP pretends later updates never
    happened.  Full fork-consistency defences are SUNDR's contribution
    (the paper cites it as complementary); SHAROES detects rollback of
    *individual* objects when their keys were rotated in the meantime.
    """

    def __init__(self, name: str = "rollback-ssp",
                 should_rollback: Callable[[BlobId], bool] | None = None,
                 inner: StorageServer | None = None):
        super().__init__(inner if inner is not None
                         else StorageServer(name), name)
        self._should_rollback = should_rollback or (lambda blob_id: True)
        self._first_version: dict[BlobId, bytes] = {}

    def _remember_first(self, blob_id: BlobId, payload: bytes) -> None:
        self._first_version.setdefault(blob_id, bytes(payload))

    def put(self, blob_id: BlobId, payload: bytes) -> None:
        self._remember_first(blob_id, payload)
        self.inner.put(blob_id, payload)

    def put_if(self, blob_id: BlobId, payload: bytes,
               expected: bytes | None) -> None:
        self.inner.put_if(blob_id, payload, expected)
        self._remember_first(blob_id, payload)

    def put_fenced(self, blob_id: BlobId, payload: bytes,
                   fence: BlobId, epoch: int) -> None:
        self.inner.put_fenced(blob_id, payload, fence, epoch)
        self._remember_first(blob_id, payload)

    def get(self, blob_id: BlobId) -> bytes:
        payload = self.inner.get(blob_id)
        if self._should_rollback(blob_id):
            return self._first_version.get(blob_id, payload)
        return payload


class CrashingRebalancer:
    """Hook for :class:`~repro.storage.rebalance.Rebalancer`: kills the
    rebalance process at its k-th pipeline action.

    The rebalance analogue of a
    :class:`~repro.storage.resilient.MutationTrigger` armed with
    :func:`~repro.storage.resilient.crash`: each hook firing
    is one pipeline action (a per-blob copy/verify/drop/rollback step
    or a flip/finish/abort transition), and with ``crash_after=k`` the
    k-th action raises :class:`~repro.errors.ClientCrashed` *before*
    the action runs -- everything between two hook calls is atomic in
    the single-threaded testbed, so sweeping k covers every partial
    pipeline state exhaustively.  With ``crash_after=None`` it only
    counts (the matrix's calibration run).  ``log`` records the
    ``(step, detail)`` sequence for debugging a failed cell.
    """

    def __init__(self, crash_after: int | None = None):
        self.crash_after = crash_after
        self.actions = 0
        self.log: list[tuple[str, str]] = []

    def __call__(self, step: str, detail: str) -> None:
        self.actions += 1
        self.log.append((step, detail))
        if self.crash_after is not None and \
                self.actions >= self.crash_after:
            from ..errors import ClientCrashed
            raise ClientCrashed(
                f"rebalancer crashed at action {self.actions} "
                f"({step} {detail})")
