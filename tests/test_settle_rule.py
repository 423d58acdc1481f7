"""The settle rule: a mutation frame whose outcome is unknown.

Two things leave a leased, journaled client not knowing where its
frame stopped: the transport sent the frame again after the first
copy's reply was lost (the copy stops at the frame's own fences), or
the transport raised a transient error.  Either way the client reads
its journal once and classifies what it holds -- the frame's commit,
its intent, anything else (an older journal, nothing), or no answer --
and each trigger maps each class to one outcome:

* re-sent, commit: the first copy landed -- the op returns, nothing is
  owed and the released links are booked;
* re-sent, intent / other: the copy's stop is taken at face value -- a
  lost head CAS, so the op runs again (and finds its own create);
* raised, intent: the redo is kept and the error surfaces;
* raised, commit / other: nothing is owed, the error surfaces;
* either, unreadable: the redo is kept (its replay is fenced and
  idempotent) and a transient error surfaces.

One table drives every cell: the frame always lands whole, and the
journal read that settles it answers with the class under test.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.crypto.provider import CryptoProvider
from repro.errors import TransientStorageError
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.sim.clock import SimClock
from repro.storage.resilient import RetryPolicy, ServerWrapper
from repro.storage.server import BatchReply, StorageServer, apply_batch

CONFIG = ClientConfig(journal=True, lease=True, lease_duration_s=5.0,
                      data_cache=False, concurrency=8)


class Unsettled(ServerWrapper):
    """Lands the next mutation frame whole and loses its reply, then
    answers every journal read as ``holds`` says: ``commit`` (the
    truth), ``intent`` (the frame's intent), ``older`` (the journal
    before the frame), ``nothing`` or ``unreadable``."""

    def __init__(self, inner, holds: str):
        super().__init__(inner)
        self.holds = holds
        self.armed = False
        self.frame = None
        self.older = None

    def batch(self, ops):
        journal_ops = [op for op in ops if op.blob_id.kind == "journal"]
        if self.armed and self.frame is None and any(
                op.kind != "get" for op in journal_ops):
            self.frame = ops
            self.older = self.inner.raw_blobs().get(journal_ops[0].blob_id)
            apply_batch(self, ops)
            raise TransientStorageError("reply lost")
        if (self.armed and self.frame is not None
                and [op.kind for op in journal_ops] == ["get"] == [
                    op.kind for op in ops]):
            return [self._answer(ops[0])]
        return super().batch(ops)

    def _answer(self, op) -> BatchReply:
        if self.holds == "commit":
            return apply_batch(self, [op])[0]
        if self.holds == "intent":
            intent = next(sent for sent in self.frame
                          if sent.blob_id.kind == "journal")
            return BatchReply("ok", payload=intent.payload)
        if self.holds == "older":
            return BatchReply("ok", payload=self.older)
        if self.holds == "nothing":
            return BatchReply("missing")
        return BatchReply("error", message="journal replica down",
                          transient=True)


@pytest.fixture
def stack(registry):
    server = StorageServer()
    clock = SimClock()
    volume = SharoesVolume(server, registry, clock=clock)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    admin = SharoesFilesystem(volume, registry.user("alice"))
    admin.mount()
    admin.mkdir("/d", mode=0o775)
    return server, volume


#: trigger x what the journal holds -> the op's result, the redos owed
#: after it, the leases it left held, the leases counted lost, and
#: whether the next op on the new file CASes over the released link the
#: frame's tail wrote (booked only when the frame is known to have
#: landed).
SETTLE = {
    ("resent", "commit"): ("returned", 0, [], 0, True),
    ("resent", "intent"): ("FileExists", 0, [], 0, False),
    ("resent", "older"): ("FileExists", 0, [], 0, False),
    ("resent", "nothing"): ("FileExists", 0, [], 0, False),
    ("resent", "unreadable"): ("TransientStorageError", 1, [], 0, False),
    ("raised", "commit"): ("TransientStorageError", 0, [], 0, False),
    ("raised", "intent"): ("TransientStorageError", 1, [], 0, False),
    ("raised", "older"): ("TransientStorageError", 0, [], 0, False),
    ("raised", "nothing"): ("TransientStorageError", 0, [], 0, False),
    ("raised", "unreadable"): ("TransientStorageError", 1, [], 0, False),
}


@pytest.mark.parametrize("trigger, holds", sorted(SETTLE))
def test_an_unknown_outcome_is_settled_by_one_journal_read(
        stack, registry, trigger, holds):
    server, volume = stack
    lossy = Unsettled(server, holds)
    config = (replace(CONFIG, retry_policy=RetryPolicy(jitter=False))
              if trigger == "resent" else CONFIG)
    alice = SharoesFilesystem(volume, registry.user("alice"),
                              config=config, server=lossy)
    alice.mount()
    alice.create_file("/d/f", b"x" * 300, mode=0o664)
    lossy.armed = True
    try:
        alice.create_file("/d/new", b"y" * 300, mode=0o664)
        result = "returned"
    except Exception as exc:  # the cell names what surfaced
        result = type(exc).__name__
    lossy.armed = False
    owed, held = len(alice.mutation.pending), alice.lease.held_inodes()
    lost = alice.metrics.snapshot().get("lease.lost", 0)
    # The first copy landed whole: whatever was owed, the next op (past
    # any breaker the unreadable journal opened) finds the new file,
    # created once.
    volume.clock.advance(10.0)
    alice.append_file("/d/new", b"+")
    assert (result, owed, held, lost,
            alice.lease.unbroken) == SETTLE[trigger, holds]
    assert alice.mutation.pending == []
    assert alice.readdir("/d") == ["f", "new"]
    assert alice.read_file("/d/new") == b"y" * 300 + b"+"
