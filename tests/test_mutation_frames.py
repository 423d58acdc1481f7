"""The leased, journaled mutation protocol, frame by frame.

One mutation of a ``journal=True, lease=True`` client is one frame: a
head (one lease CAS per inode, then a fence check per link another
writer could have taken), the intent, the fenced apply, the commit, the
released links (docs/CONCURRENCY.md).  A warm inode's CAS -- over this
client's own released link -- rides the op's first frame instead of a
frame of its own: the head of its read frame, with a fence check behind
it, or of the mutation frame when the op reads nothing; a cold one is
acquired first.  This file pins

* the exact frame script -- kind and blob ids of every frame -- of the
  ops the repo benchmark's ``duo_wire`` is made of;
* that a lost head CAS stops the frame before anything is written and
  hands out no block it read, that the re-run's takeover of the link it
  met rides the re-run's flight (discarding its reads if a third writer
  beat it), and that a lease taken over under a pre-acquired client
  stops the frame too;
* the one cache-coherence rule of ``_touch``: the cache for an inode
  stays warm exactly when the CAS goes over this client's own last
  chain link, and a second client's write between two of our mutations
  is always seen;
* that the ``batching=False`` reference execution leaves the SSP byte
  for byte where the batched one does;
* that each payload crosses the link once -- the apply names its bytes
  inside the intent -- and that a reference never escapes its frame: a
  live socket, a frame split at the wire's sub-op cap and a suffix the
  transport sends again all land the in-process state byte for byte;
* that an apply fenced out part-way still surfaces ``LeaseLostError``
  and invalidates what the op touched;
* that a frame whose reply is lost lands exactly once: a copy the
  transport sends again is recognised by the journal, and without
  retries the journal decides whether the redo is kept;
* that on a sharded SSP an intent no journal replica took stops the
  frame before any of its apply;
* that every pending intent is replayed the same way -- in session, at
  mount, at lease takeover and by ``fsck --repair`` -- as one fenced
  frame per record through the caller's channel, counted by a client.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.provider import CryptoProvider
from repro.errors import (ClientCrashed, FileExists, FileNotFound,
                          LeaseLostError, PartialWriteError, StorageError,
                          TransientStorageError)
from repro.fs import blobio, journal
from repro.fs import client as fs_client
from repro.fs.blobio import BlobIO
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.lease import LeaseManager, LeaseRecord, break_record
from repro.fs.volume import DEFAULT_BLOCK_SIZE, SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.sim.clock import SimClock
from repro.storage.blobs import journal_blob, lease_blob
from repro.storage.resilient import (MutationTrigger, RetryPolicy,
                                     ServerWrapper, crash)
from repro.storage.server import BatchReply, StorageServer, apply_batch
from repro.storage.shards import ShardedServer
from repro.storage.wire import RemoteStorageClient, SspServer
from repro.tools.fsck import VolumeAuditor
from repro.tools.twin import pinned_entropy

_LEASE_S = 5.0

#: the shape of ``duo_wire``'s clients: warm metadata cache, no block
#: cache, a scheduler (whose write-behind the journal turns off).
CONFIG = ClientConfig(journal=True, lease=True, lease_duration_s=_LEASE_S,
                      data_cache=False, concurrency=8)


class FrameTap(ServerWrapper):
    """Records every wire frame as a tuple of ``"<kind> <blob id>"``.

    A single op is a one-element frame; ``names`` maps inode numbers to
    the letters the expected scripts use, and the journal slot reads
    ``journal``.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.frames: list[tuple[str, ...]] = []
        self.names: dict[int, str] = {}
        self._in_batch = False

    def _render(self, op) -> str:
        blob_id = op.blob_id
        if blob_id.kind == "journal":
            return f"{op.kind} journal"
        inode = self.names.get(blob_id.inode, blob_id.inode)
        return f"{op.kind} {blob_id.kind}/{inode}/{blob_id.selector}"

    def _forward(self, op):
        if not self._in_batch:
            self.frames.append((self._render(op),))
        return op.call(self.inner)

    def batch(self, ops):
        self.frames.append(tuple(self._render(op) for op in ops))
        self._in_batch = True
        try:
            return apply_batch(self, ops)
        finally:
            self._in_batch = False

    def take(self) -> list[tuple[str, ...]]:
        frames, self.frames = self.frames, []
        return frames


@pytest.fixture
def stack(registry):
    """(server, volume, clock) with a group-writable ``/d``."""
    server = StorageServer()
    clock = SimClock()
    volume = SharoesVolume(server, registry, clock=clock)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    admin = SharoesFilesystem(volume, registry.user("alice"))
    admin.mount()
    admin.mkdir("/d", mode=0o775)
    return server, volume, clock


def mount(stack, registry, user_id: str, config: ClientConfig = CONFIG):
    server, volume, _ = stack
    tap = FrameTap(server)
    fs = SharoesFilesystem(volume, registry.user(user_id), config=config,
                           server=tap)
    fs.mount()
    return fs, tap


#: a file of three blocks: an append reads block 0 and block 2.
LONG = 2 * DEFAULT_BLOCK_SIZE + 300


def steady(stack, registry, user_id: str = "alice", size: int = 300,
           mode: int = 0o664):
    """A client past its first mutation in ``/d`` (it has listed the
    directory and remembers its own released link on it), holding one
    file ``/d/f`` (inode F) of ``size`` bytes of its own."""
    fs, tap = mount(stack, registry, user_id)
    inode = fs.create_file(f"/d/f-{user_id}", b"x" * size,
                           mode=mode).inode
    tap.names = {fs.getattr("/d").inode: "D", inode: "F"}
    tap.take()
    return fs, tap


def _views(prefix: str, kind: str = "put_fenced") -> tuple[str, ...]:
    return tuple(f"{kind} {prefix}{who}" for who in "ogw")


INTENT = "put_fenced journal"      # fenced on the head's first link
COMMIT = "put journal"


def _check(inode: str) -> str:
    return f"delete_fenced lease/{inode}/check"


# -- the frame scripts ----------------------------------------------------------


def test_create_file_is_one_frame(stack, registry):
    fs, tap = steady(stack, registry)
    tap.names[fs.volume.allocator._next] = "N"
    fs.create_file("/d/new", b"y" * 300, mode=0o664)
    assert tap.take() == [
        ("put_if lease/D/-",            # over our own released link
         "put_if lease/N/-",            # a new inode: expected absent
         INTENT)
        + _views("meta/N/") + _views("data/D/t:") + ("put_fenced data/N/b0",)
        + (COMMIT, "put_if lease/D/-", "put_if lease/N/-"),
    ]


def test_unlink_is_one_frame(stack, registry):
    fs, tap = steady(stack, registry)
    fs.unlink("/d/f-alice")
    [frame] = tap.take()
    assert frame[:8] == ("put_if lease/D/-", "put_if lease/F/-",
                         _check("F"), INTENT, _check("F")) + _views(
                             "data/D/t:")
    deletes = frame[8:-3]
    # The stored count is the create's 0: the tail from block 0 takes
    # the block the close wrote.
    assert deletes[:4] == _views("meta/F/", "delete_fenced") + (
        "delete_tail_fenced data/F/b0",)
    assert all(op.startswith("delete_fenced lockbox/F/")
               for op in deletes[4:])
    assert frame[-3:] == (COMMIT, "put_if lease/D/-", "put_if lease/F/-")


def test_own_append_is_one_frame(stack, registry):
    """The CAS over this client's own released link rides the append's
    one read flight, its fence check behind it; the mutation frame
    compares the link the CAS won."""
    fs, tap = steady(stack, registry, size=LONG)
    fs.append_file("/d/f-alice", b"+" * 40)
    assert tap.take() == [
        ("put_if lease/F/-", _check("F"),   # no block cache: the base
         "get data/F/b0", "get data/F/b2"),
        ("put_if lease/F/-", INTENT, "put_fenced data/F/b2", COMMIT,
         "put_if lease/F/-"),
    ]


def test_contended_shared_append_pays_one_lost_cas(stack, registry):
    """Bob appended in between: alice's read flight loses its CAS and
    stops at the check behind it.  She runs the append once more: the
    file's metadata, then the takeover of the link the lost CAS handed
    back -- no read of the lease blob -- riding the base's flight at the
    block count she remembered, then the apply."""
    alice, tap = steady(stack, registry, size=LONG)
    bob, bob_tap = mount(stack, registry, "bob")
    bob_tap.names = tap.names
    alice.append_file("/d/f-alice", b"a" * 40)
    bob.append_file("/d/f-alice", b"b" * 40)
    tap.take()
    alice.append_file("/d/f-alice", b"a" * 40)
    assert tap.take() == [
        ("put_if lease/F/-", _check("F"),   # lost: stopped at the check
         "get data/F/b0", "get data/F/b2"),
        ("get meta/F/o",),
        ("put_if lease/F/-",                # takeover of bob's release
         "get data/F/b0", "get data/F/b2"),
        ("put_if lease/F/-", INTENT, "put_fenced data/F/b2", COMMIT,
         "put_if lease/F/-"),           # head: the held link, compared
    ]
    reader = SharoesFilesystem(stack[1], registry.user("bob"))
    reader.mount()
    assert reader.read_file("/d/f-alice") == (b"x" * LONG + b"a" * 40
                                              + b"b" * 40 + b"a" * 40)


def test_rename_within_a_directory_is_one_frame(stack, registry):
    fs, tap = steady(stack, registry)
    fs.rename("/d/f-alice", "/d/g")
    assert tap.take() == [
        ("put_if lease/D/-", INTENT)
        + _views("data/D/t:") + _views("data/D/t:")  # add row, drop row
        + (COMMIT, "put_if lease/D/-"),
    ]


def test_every_protocol_frame_is_counted_and_charged(stack, registry):
    """The mutation frame -- the create's one frame -- enters
    ``request_count``, and is charged each payload once: every apply put
    is a 12-byte reference into the intent."""
    fs, tap = steady(stack, registry)
    sent, charged = [], []
    tap.batch = lambda ops, batch=tap.batch: (sent.append(ops),
                                              batch(ops))[1]
    fs.blobs.charge = lambda up=0, down=0, charge=fs.blobs.charge: (
        charged.append(up), charge(up, down))
    before = fs.request_count
    fs.create_file("/d/new", b"y" * 300, mode=0o664)
    frames = tap.take()
    assert fs.request_count - before == len(frames) == 1
    [ops] = sent
    intent = next(op for op in ops if op.blob_id.kind == "journal")
    applied = [op for op in ops if op.ref is not None]
    assert len(applied) == 7  # three views, three table views, a block
    assert all(op.payload in intent.payload for op in applied)
    every_byte = sum(len(op.payload or b"") + len(op.expected or b"")
                     for op in ops)
    assert charged == [every_byte
                       - sum(len(op.payload) - 12 for op in applied)]


# -- a head that loses writes nothing ----------------------------------------------


class MutationFrames(FrameTap):
    """A frame spy that also keeps the SSP's blobs before and after
    every frame carrying a journal put or a lease CAS; ``hook``, if set,
    runs once before the first frame ``when(rendered frame)`` picks."""

    def __init__(self, inner):
        super().__init__(inner)
        self.states: list[tuple[dict, dict]] = []
        self.when, self.hook = None, None

    def batch(self, ops):
        if self.hook is not None and self.when(
                tuple(self._render(op) for op in ops)):
            hook, self.hook = self.hook, None
            hook()
        if not any(op.blob_id.kind == "journal" or op.kind == "put_if"
                   for op in ops):
            return super().batch(ops)
        before = self.inner.raw_blobs()
        try:
            return super().batch(ops)
        finally:
            self.states.append((before, self.inner.raw_blobs()))


def _changed(state) -> set:
    before, after = state
    return {blob_id.kind for blob_id in set(before) | set(after)
            if before.get(blob_id) != after.get(blob_id)}


def _contended(stack, registry, size: int = LONG, mode: int = 0o664):
    """Alice appended to her file, then bob did: alice's next CAS over
    her own released link loses.  -> (alice, her spy, bob), the spy's
    states and frames emptied, the blocks alice's client parks logged in
    ``spy.parked``."""
    server = stack[0]
    alice, tap = steady(stack, registry, size=size, mode=mode)
    spy = MutationFrames(server)
    spy.names = tap.names
    alice.blobs.server = alice.lease.server = spy
    bob, _ = mount(stack, registry, "bob")
    alice.append_file("/d/f-alice", b"a" * 40)
    bob.append_file("/d/f-alice", b"b" * 40)
    del spy.states[:]
    spy.take()
    spy.parked = []
    park = alice.blobs._park
    alice.blobs._park = lambda blob_id, payload: (
        spy.parked.append((len(spy.frames), blob_id.selector)),
        park(blob_id, payload))
    return alice, spy, bob


def _audit_clean(volume) -> None:
    report = VolumeAuditor(volume).audit()
    assert report.clean and not report.orphaned_blobs, report.summary()


def test_a_lost_head_cas_writes_nothing_then_the_op_lands(stack, registry):
    """The read frame whose CAS lost leaves the SSP as it found it; the
    retry lands the append on the other writer's, as a sequential run
    of the three appends would."""
    alice, spy, _ = _contended(stack, registry, size=300)
    alice.append_file("/d/f-alice", b"c" * 40)
    lost, taken, landed = spy.states
    assert _changed(lost) == set()
    assert _changed(taken) == {"lease"}
    assert _changed(landed) == {"lease", "journal", "data"}
    assert alice.read_file("/d/f-alice") == (b"x" * 300 + b"a" * 40
                                             + b"b" * 40 + b"c" * 40)
    _audit_clean(stack[1])


def test_a_read_frame_whose_cas_lost_hands_out_no_block(stack, registry):
    """The lost CAS's check stops the flight before its gets: the SSP is
    byte-identical, no block reaches the client, and the re-run's flight
    -- the block count kept -- is the only one that parks any."""
    alice, spy, _ = _contended(stack, registry)
    alice.append_file("/d/f-alice", b"c" * 40)
    lost = spy.states[0]
    assert lost[0] == lost[1]
    assert spy.frames[0] == ("put_if lease/F/-", _check("F"),
                             "get data/F/b0", "get data/F/b2")
    assert spy.parked == [(3, "b0"), (3, "b2")]
    assert alice.read_file("/d/f-alice") == (b"x" * LONG + b"a" * 40
                                             + b"b" * 40 + b"c" * 40)
    _audit_clean(stack[1])


def test_a_seeded_takeover_a_third_writer_beat_reads_nothing(stack,
                                                            registry):
    """Carol takes bob's released link over between alice's lost CAS and
    her re-run: the re-run's CAS over that seed loses too, unchecked, so
    its flight's blocks come back -- and are discarded unread.  The next
    run takes carol's link over, and the file ends as the sequential
    run of the four appends would leave it."""
    volume = stack[1]
    alice, spy, _ = _contended(stack, registry, mode=0o666)
    carol, _ = mount(stack, registry, "carol")
    spy.when = lambda frame: frame[:2] == ("put_if lease/F/-",
                                           "get data/F/b0")
    spy.hook = lambda: carol.append_file("/d/f-alice", b"k" * 40)
    alice.append_file("/d/f-alice", b"c" * 40)
    flight = ("get data/F/b0", "get data/F/b2")
    assert [frame for frame in spy.frames
            if not frame[0].startswith("get meta/")] == [
        ("put_if lease/F/-", _check("F")) + flight,     # lost: stopped
        ("put_if lease/F/-",) + flight,                 # lost: unread
        ("put_if lease/F/-",) + flight,                 # carol's link
        ("put_if lease/F/-", INTENT, "put_fenced data/F/b2", COMMIT,
         "put_if lease/F/-"),
    ]
    assert [frame for frame, _ in spy.parked] == [5, 5]
    assert alice.read_file("/d/f-alice") == (
        b"x" * LONG + b"a" * 40 + b"b" * 40 + b"k" * 40 + b"c" * 40)
    _audit_clean(volume)


def test_a_seeded_takeover_no_read_carried_goes_alone(stack, registry):
    """A "w" handle reads nothing: its CAS rides the mutation frame and
    loses there, and the re-run's takeover of the seed -- which no fence
    could stop on its loss -- goes in a frame of its own just before the
    mutation frame."""
    alice, spy, _ = _contended(stack, registry, size=300)
    alice.write_file("/d/f-alice", b"w" * 40)
    protocol = [frame for frame in spy.frames
                if not frame[0].startswith("get meta/")]
    assert [frame[:2] for frame in protocol] == [
        ("put_if lease/F/-", INTENT),       # lost: stopped at the intent
        ("put_if lease/F/-",),              # the takeover, alone
        ("put_if lease/F/-", INTENT),       # head: the held link, compared
    ]
    assert alice.read_file("/d/f-alice") == b"w" * 40
    _audit_clean(stack[1])


def test_a_kept_count_a_peer_shrank_past_is_dropped_unread(stack,
                                                          registry):
    """Bob cut the file to one block after alice last saw three: the
    re-run's flight still names block 2 at the count she kept, block 0
    says it is gone, and nothing of it is used."""
    alice, spy, bob = _contended(stack, registry)
    bob.write_file("/d/f-alice", b"s" * 100)
    alice.append_file("/d/f-alice", b"c" * 40)
    assert [frame for frame in spy.frames
            if not frame[0].startswith("get meta/")][1] == (
        "put_if lease/F/-", "get data/F/b0", "get data/F/b2")
    assert [selector for _, selector in spy.parked] == ["b0"]
    assert alice.read_file("/d/f-alice") == b"s" * 100 + b"c" * 40
    _audit_clean(stack[1])


class HeadRefused(FrameTap):
    """Fails the first frame whose head is a lease CAS with reads behind
    it: before the SSP sees it, or (``landed``) after it applied, as a
    lost reply."""

    def __init__(self, inner, landed: bool):
        super().__init__(inner)
        self.landed, self.armed = landed, True

    def batch(self, ops):
        if not (self.armed and ops[0].kind == "put_if"
                and ops[-1].kind == "get"):
            return super().batch(ops)
        self.armed = False
        if self.landed:
            super().batch(ops)
        else:
            self.frames.append(tuple(self._render(op) for op in ops))
        raise TransientStorageError("frame failed whole")


@pytest.mark.parametrize("landed", [False, True],
                         ids=["refused", "reply_lost"])
def test_a_head_whose_frame_failed_rides_the_next(stack, registry, landed):
    """The read flight carrying the CAS fails whole: the speculation
    gives up, and the CAS rides the next frame, block 0's get.  It wins
    there -- when the first copy had landed, by meeting its own link --
    and the append lands once."""
    alice, tap = steady(stack, registry, size=LONG)
    spy = HeadRefused(stack[0], landed)
    spy.names = tap.names
    alice.blobs.server = alice.lease.server = spy
    alice.append_file("/d/f-alice", b"+" * 40)
    assert spy.take() == [
        ("put_if lease/F/-", _check("F"),   # failed whole
         "get data/F/b0", "get data/F/b2"),
        ("put_if lease/F/-", _check("F"), "get data/F/b0"),
        ("get data/F/b2",),
        ("put_if lease/F/-", INTENT, "put_fenced data/F/b2", COMMIT,
         "put_if lease/F/-"),
    ]
    assert alice.read_file("/d/f-alice") == b"x" * LONG + b"+" * 40
    _audit_clean(stack[1])


def test_a_taken_over_pre_acquired_lease_stops_the_frame(stack, registry):
    """Alice acquired ``/d`` first (no link of her own), then paused
    before her frame's head; her lease expired and bob took it over.
    The compared head loses, the SSP fences the intent out, and the op raises ``LeaseLostError``: nothing of hers but
    the new inode's own lease reaches the SSP."""
    server, volume, clock = stack
    bob, _ = mount(stack, registry, "bob")
    seen = {}

    def hook() -> None:
        clock.advance(_LEASE_S + 1.0)
        bob.create_file("/d/from-bob", b"bob")
        seen.update(server.raw_blobs())

    # mutations: the acquire of /d, then the frame's head.
    pauser = MutationTrigger(server, {2: hook})
    alice = SharoesFilesystem(volume, registry.user("alice"),
                              config=CONFIG, server=pauser)
    alice.mount()
    with pytest.raises(LeaseLostError):
        alice.create_file("/d/from-alice", b"alice")
    after = server.raw_blobs()
    changed = {blob_id for blob_id in set(seen) | set(after)
               if seen.get(blob_id) != after.get(blob_id)}
    assert {blob_id.kind for blob_id in changed} == {"lease"}
    assert alice.readdir("/d") == ["from-bob"]
    assert alice.metrics.snapshot()["lease.lost"] == 1
    report = VolumeAuditor(volume).audit()
    assert report.clean and not report.orphaned_blobs, report.summary()


# -- rule 2: one coherence rule for acquire and renew ----------------------------


def _reads_table(frames) -> bool:
    return any(op.startswith("get data/D/t:")
               for frame in frames for op in frame)


def test_own_released_link_keeps_the_cache(stack, registry):
    fs, tap = steady(stack, registry)
    fs.mknod("/d/second", mode=0o664)
    fs.rename("/d/second", "/d/third")
    assert fs.lease.unbroken
    assert not _reads_table(tap.take())


def test_first_touch_invalidates(stack, registry):
    """No link of ours yet: the blob is read, the cache is dropped."""
    fs, tap = mount(stack, registry, "alice")
    assert fs.readdir("/d") == []  # warm
    tap.names = {fs.getattr("/d").inode: "D"}
    tap.take()
    fs.mknod("/d/first", mode=0o664)
    frames = tap.take()
    assert ("get lease/D/-",) in frames and _reads_table(frames)


def test_another_holders_link_invalidates(stack, registry):
    alice, tap = steady(stack, registry)
    bob, _ = mount(stack, registry, "bob")
    bob.mknod("/d/from-bob", mode=0o664)
    alice.mknod("/d/from-alice", mode=0o664)
    assert _reads_table(tap.take())
    assert alice.readdir("/d") == ["f-alice", "from-alice", "from-bob"]


def test_a_break_record_successor_invalidates(stack, registry):
    """fsck's released successor carries our own name: the CAS over the
    link we remember still loses, so the cache still goes."""
    server, _, _ = stack
    alice, tap = steady(stack, registry)
    blob_id = lease_blob(alice.getattr("/d").inode)
    prior = LeaseRecord.from_bytes(server.get(blob_id), blob_id.inode)
    server.put(blob_id,
               break_record(prior, registry.user("alice")).to_bytes())
    alice.mknod("/d/after-fsck", mode=0o664)
    assert not alice.lease.unbroken
    assert _reads_table(tap.take())


def test_a_link_below_the_watermark_is_not_cased_blind(registry):
    """Defence in depth: a remembered link is the tip only while its
    epoch is the freshness monitor's high watermark."""
    server, clock = StorageServer(), SimClock()

    def manager(user_id):
        return LeaseManager(registry.user(user_id), registry.directory,
                            server, clock, duration_s=_LEASE_S,
                            provider=CryptoProvider())

    alice, bob = manager("alice"), manager("bob")
    alice.acquire(5)
    alice.release(5)                  # epoch 2, released
    bob.acquire(5)                    # 4: epoch 3 stays alice's
    bob.release(5)
    tip = server.get(lease_blob(5))
    alice.freshness.observe_metadata(5, 5, tip)  # seen some other way
    kinds = []
    alice._exchange = lambda label, ops: (
        kinds.append([op.kind for op in ops]) or server.batch(ops))
    assert alice.acquire(5).epoch == 7
    assert kinds == [["get"], ["put_if"]] and not alice.unbroken


_OPS = st.lists(
    st.tuples(st.sampled_from("ab"),
              st.sampled_from(("create", "unlink", "append")),
              st.sampled_from(("p", "q", "r"))),
    min_size=4, max_size=14)


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(script=_OPS)
def test_a_peers_write_between_our_mutations_is_always_seen(registry,
                                                            script):
    """Two warm-cached leased writers take turns at random over three
    names: every decision (``FileExists``, ``FileNotFound``, the base an
    append extends) must agree with the one true history."""
    server = StorageServer()
    volume = SharoesVolume(server, registry, clock=SimClock())
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    config = ClientConfig(journal=True, lease=True, data_cache=True,
                          lease_duration_s=_LEASE_S)
    writers = {}
    for user_id in ("alice", "bob"):
        fs = SharoesFilesystem(volume, registry.user(user_id),
                               config=config)
        fs.mount()
        writers[user_id[0]] = fs
    writers["a"].mkdir("/d", mode=0o775)
    model: dict[str, bytes] = {}
    for step, (who, verb, name) in enumerate(script):
        fs, path = writers[who], f"/d/{name}"
        payload = f"<{step}{who}>".encode()
        if verb == "create":
            if name in model:
                with pytest.raises(FileExists):
                    fs.create_file(path, payload, mode=0o664)
            else:
                fs.create_file(path, payload, mode=0o664)
                model[name] = payload
        elif name not in model:
            with pytest.raises(FileNotFound):
                (fs.unlink if verb == "unlink"
                 else functools.partial(fs.append_file, data=payload))(path)
        elif verb == "unlink":
            fs.unlink(path)
            del model[name]
        else:
            fs.append_file(path, payload)
            model[name] += payload
    reader = SharoesFilesystem(volume, registry.user("bob"))
    reader.mount()
    assert reader.readdir("/d") == sorted(model)
    for name, content in model.items():
        assert reader.read_file(f"/d/{name}") == content
    report = VolumeAuditor(volume).audit()
    assert report.clean and not report.orphaned_blobs, report.summary()


def _behind_cached_table(registry, wrap=None):
    """Alice's create of ``/d/p`` leaves her table of ``/d`` cached; bob
    adds ``r`` to it.  -> (volume, alice, bob), alice talking through
    ``wrap(server)`` if given."""
    volume = SharoesVolume(StorageServer(), registry, clock=SimClock())
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, volume.server,
                    CryptoProvider()).publish_all()
    config = ClientConfig(journal=True, lease=True, data_cache=True,
                          lease_duration_s=_LEASE_S)
    alice = SharoesFilesystem(volume, registry.user("alice"), config=config,
                              server=wrap(volume.server) if wrap
                              else None)
    bob = SharoesFilesystem(volume, registry.user("bob"), config=config)
    alice.mount()
    bob.mount()
    alice.mkdir("/d", mode=0o775)
    alice.create_file("/d/p", b"<p>", mode=0o664)
    bob.create_file("/d/r", b"<r>", mode=0o664)
    return volume, alice, bob


def test_a_name_a_peer_added_behind_our_cached_table_is_found(registry):
    """Alice's append resolves ``r`` through her cached table of ``/d``,
    where it is missing, and leases only the file it never reached -- no
    lease proves the table.  The refusal is not final: the append runs
    once more with the directories it resolved through dropped from the
    cache, and finds bob's file."""
    volume, alice, _ = _behind_cached_table(registry)
    alice.append_file("/d/r", b"<a>")
    assert alice.read_file("/d/r") == b"<r><a>"
    with pytest.raises(FileNotFound):
        alice.append_file("/d/q", b"<a>")
    reader = SharoesFilesystem(volume, registry.user("bob"))
    reader.mount()
    assert reader.readdir("/d") == ["p", "r"]
    assert reader.read_file("/d/r") == b"<r><a>"


def test_a_refusal_on_an_unproven_cache_reruns_with_the_cas_riding(
        registry):
    """Bob also unlinks ``p``.  Alice's create of ``p`` refuses on her
    cached table, under a CAS over her own link on ``/d`` that never went
    out.  The re-run reads the table from the SSP, and that read frame
    carries the CAS and its check at its head: no lease CAS goes alone.
    Bob moved the chain, so the check stops the frame; the next run's
    takeover of the link it met rides the table read again."""
    volume, alice, bob = _behind_cached_table(registry, wrap=FrameTap)
    tap = alice.blobs.server
    tap.names = {alice.getattr("/d").inode: "D",
                 volume.allocator._next: "N"}
    bob.unlink("/d/p")
    tap.take()
    alice.create_file("/d/p", b"<p2>", mode=0o664)
    frames = tap.take()
    assert frames == [
        ("get meta/D/o",),                  # the re-run resolves /d
        ("put_if lease/D/-", _check("D"),   # lost: stopped at the check
         "get data/D/t:o"),
        ("get meta/D/o",),
        ("put_if lease/D/-", "get data/D/t:o"),    # takeover of bob's link
        ("get data/D/t:g",),
        ("get data/D/t:w",),
        ("get meta/D/o",),
        ("put_if lease/D/-", "put_if lease/N/-", INTENT)
        + _views("meta/N/") + _views("data/D/t:")
        + ("put_fenced data/N/b0", COMMIT, "put_if lease/D/-",
           "put_if lease/N/-"),
    ]
    assert not [frame for frame in frames if len(frame) == 1
                and frame[0].startswith("put_if lease/")]
    reader = SharoesFilesystem(volume, registry.user("bob"))
    reader.mount()
    assert reader.readdir("/d") == ["p", "r"]
    assert reader.read_file("/d/p") == b"<p2>"


# -- the reference execution ------------------------------------------------------


def _leased_sequence(registry, batching: bool, monkeypatch,
                     connect=None, config: ClientConfig = CONFIG) -> dict:
    """Two leased writers' fixed script; the SSP's blobs at the end.

    ``connect(server)``, if given, is what each writer talks to instead
    of ``server`` itself.
    """
    with monkeypatch.context() as patch, pinned_entropy(24):
        if not batching:
            patch.setattr(fs_client, "BlobIO",
                          functools.partial(BlobIO, batching=False))
        server = StorageServer()
        volume = SharoesVolume(server, registry, clock=SimClock())
        volume.format(root_owner="alice", root_group="eng")
        writers = []
        for user_id in ("alice", "bob"):
            fs = SharoesFilesystem(
                volume, registry.user(user_id), config=config,
                server=connect(server) if connect is not None else None)
            fs.mount()
            writers.append(fs)
        alice, bob = writers
        alice.mkdir("/d", mode=0o775)
        alice.create_file("/d/a", b"a" * 700, mode=0o664)
        bob.create_file("/d/b", b"b" * 300, mode=0o664)
        bob.append_file("/d/a", b"+bob")
        alice.append_file("/d/a", b"+alice")
        alice.rename("/d/a", "/d/c")
        bob.unlink("/d/b")
        alice.lease.acquire(alice.getattr("/d/c").inode)
        alice.lease.send_planned()
        assert len(alice.renew_leases()) == 1
        for fs in writers:
            fs.unmount()
        frames = alice.metrics.histogram("client.batch.size").count
        return {"blobs": server.raw_blobs(), "frames": frames,
                "bytes_received": server.stats.bytes_received}


def test_unbatched_reference_leaves_identical_ssp_state(registry,
                                                        monkeypatch):
    batched = _leased_sequence(registry, True, monkeypatch)
    reference = _leased_sequence(registry, False, monkeypatch)
    assert reference["frames"] == 0 < batched["frames"]
    assert set(batched["blobs"]) == set(reference["blobs"])
    assert batched["blobs"] == reference["blobs"]


# -- each payload crosses the link once, and only inside its frame -------------


class FailBehindIntent(ServerWrapper):
    """Lands the next mutation frame through its intent, then answers
    the sub-op behind it with a transient error: a retrying transport
    sends the rest of the frame again, without the intent."""

    def __init__(self, inner):
        super().__init__(inner)
        self.armed = 1
        self.failed = self.resent = None  # the unapplied sub-ops, twice

    def batch(self, ops):
        if self.failed is not None and self.resent is None:
            self.resent = list(ops)
        at = next((index for index, op in enumerate(ops)
                   if op.blob_id.kind == "journal" and op.kind != "get"),
                  len(ops))
        if not self.armed or at + 1 >= len(ops):
            return super().batch(ops)
        self.armed -= 1
        self.failed = list(ops[at + 1:])
        return (apply_batch(self, ops[:at + 1])
                + [BatchReply("error", message="blip", transient=True)]
                + [BatchReply("unattempted")] * (len(ops) - at - 2))


@contextmanager
def _sockets(wrap=None):
    """``connect(server)``: a socket client of an SSP serving ``server``
    (through ``wrap``); and the list of the clients it made."""
    servers, clients = [], []

    def connect(server):
        if not servers:
            backend = wrap(server) if wrap is not None else server
            servers.append(SspServer(backend).start())
        clients.append(RemoteStorageClient(*servers[0].address))
        return clients[-1]

    try:
        yield connect, clients
    finally:
        for client in clients:
            client.close()
        for ssp in servers:
            ssp.stop()


def test_a_socket_carries_each_payload_once_to_the_same_state(registry,
                                                              monkeypatch):
    """Over a live ``SspServer`` the apply puts go as references (the
    clients sent fewer payload bytes than the backend stored) and the
    SSP ends byte for byte where the in-process run does."""
    reference = _leased_sequence(registry, True, monkeypatch)
    with _sockets() as (connect, clients):
        remote = _leased_sequence(registry, True, monkeypatch, connect)
    assert remote["blobs"] == reference["blobs"]
    sent = sum(client.stats.bytes_received for client in clients)
    stored = reference["bytes_received"]
    assert 0 < sent < stored - 12_000


def test_a_split_frame_inlines_and_lands_the_same_state(registry,
                                                        monkeypatch):
    """A frame cut at a lowered sub-op cap: a part without the intent
    sends its payloads inline, over a live socket, to the same state."""
    reference = _leased_sequence(registry, True, monkeypatch)
    monkeypatch.setattr(blobio, "MAX_BATCH_OPS", 3)
    with _sockets() as (connect, _):
        split = _leased_sequence(registry, True, monkeypatch, connect)
    assert split["frames"] > reference["frames"]
    assert split["blobs"] == reference["blobs"]


def test_a_suffix_sent_again_inlines_and_lands_the_same_state(registry,
                                                              monkeypatch):
    """The SSP lands a frame through its intent and then fails; the
    retrying transport re-sends the rest without the intent, so the
    apply puts in it go inline -- the SSP decodes exactly the sub-ops it
    did not apply -- and the objects match a run that never failed (the
    lease links differ: the backoff moved the clock)."""
    config = replace(CONFIG, retry_policy=RetryPolicy(jitter=False))
    reference = _leased_sequence(registry, True, monkeypatch, config=config)
    wrappers = []

    def wrap(server):
        wrappers.append(FailBehindIntent(server))
        return wrappers[-1]

    with _sockets(wrap) as (connect, _):
        retried = _leased_sequence(registry, True, monkeypatch, connect,
                                   config=config)
    [failing] = wrappers
    assert any(op.kind == "put_fenced" for op in failing.failed)
    assert failing.resent == failing.failed

    def objects(run):
        return {blob_id: payload for blob_id, payload in run["blobs"].items()
                if blob_id.kind != "lease"}

    assert objects(retried) == objects(reference)


# -- a fenced-out apply frame ----------------------------------------------------


def test_fenced_out_apply_frame_surfaces_lease_lost(stack, registry):
    """Alice is paused inside her frame, after the first sub-op of its
    apply; her lease on ``/d`` expires and bob takes it over (rolling
    her intent forward).  The rest of her frame is fenced out: the op
    raises ``LeaseLostError`` and what she cached of ``/d`` is gone, so
    she lists what the SSP holds -- her own create, applied by bob, and
    bob's."""
    server, volume, clock = stack
    bob, _ = mount(stack, registry, "bob")

    def hook() -> None:
        clock.advance(_LEASE_S + 1.0)
        bob.create_file("/d/from-bob", b"bob")

    # mutations: the acquire of /d; the frame's head CASes of /d and of
    # the new inode and its check of /d; the intent; the apply.
    pauser = MutationTrigger(server, {7: hook})
    alice = SharoesFilesystem(volume, registry.user("alice"),
                              config=CONFIG, server=pauser)
    alice.mount()
    assert alice.readdir("/d") == []
    with pytest.raises(LeaseLostError):
        alice.create_file("/d/from-alice", b"alice")
    assert alice.readdir("/d") == ["from-alice", "from-bob"]
    assert alice.read_file("/d/from-alice") == b"alice"
    report = VolumeAuditor(volume).audit()
    assert report.clean and not report.orphaned_blobs, report.summary()


# -- a frame whose reply is lost --------------------------------------------------


class LostReply(ServerWrapper):
    """Applies the first ``prefix`` sub-ops (all by default) of each of
    the next ``armed`` mutation frames, then loses the reply."""

    def __init__(self, inner, prefix: int | None = None):
        super().__init__(inner)
        self.prefix = prefix
        self.armed = 0

    def batch(self, ops):
        if not (self.armed and any(op.blob_id.kind == "journal"
                                   and op.kind != "get" for op in ops)):
            return super().batch(ops)
        self.armed -= 1
        apply_batch(self, ops[:self.prefix])
        raise TransientStorageError("reply lost")


def _retrying(stack, registry, server):
    _, volume, _ = stack
    fs = SharoesFilesystem(volume, registry.user("alice"), server=server,
                           config=replace(CONFIG, retry_policy=RetryPolicy(
                               jitter=False)))
    fs.mount()
    return fs


def test_a_frame_resent_after_it_landed_lands_once(stack, registry):
    """The transport sends the append's frame again after its reply was
    lost: the copy finds the chain at the frame's own released link and
    stops at the intent.  The journal holds the frame's commit, so the
    append landed -- once -- and nothing is run again."""
    lossy = LostReply(stack[0])
    alice = _retrying(stack, registry, lossy)
    alice.create_file("/d/f", b"x" * 300, mode=0o664)
    lossy.armed = 1
    alice.append_file("/d/f", b"+once")
    assert not lossy.armed
    alice.append_file("/d/f", b"+next")
    assert alice.lease.unbroken  # the tail was booked: no chain read
    reader = SharoesFilesystem(stack[1], registry.user("bob"))
    reader.mount()
    assert reader.read_file("/d/f") == b"x" * 300 + b"+once" + b"+next"
    snapshot = alice.metrics.snapshot()
    assert snapshot.get("lease.lost", 0) == 0
    assert snapshot.get("lease.conflicts", 0) == 0


def test_a_resent_frame_with_a_compared_head_is_not_a_lost_lease(stack,
                                                                 registry):
    """A cold mount acquires ``/d`` first; its frame compares the held
    link.  The copy sent again conflicts with the frame's own released
    link and is fenced: that is the first copy landing, not a takeover."""
    lossy = LostReply(stack[0])
    alice = _retrying(stack, registry, lossy)
    assert alice.readdir("/d") == []
    lossy.armed = 1
    alice.create_file("/d/new", b"y" * 300, mode=0o664)
    assert not lossy.armed
    assert alice.readdir("/d") == ["new"]
    assert alice.metrics.snapshot().get("lease.lost", 0) == 0
    report = VolumeAuditor(stack[1]).audit()
    assert report.clean and not report.orphaned_blobs, report.summary()


@pytest.mark.parametrize("prefix, listing", [
    (2, ["f", "second"]),            # the heads only: nothing to redo
    (4, ["f", "first", "second"]),   # ... the intent, one view: kept
    (None, ["f", "first", "second"]),  # through the commit: done
])
def test_a_lost_reply_without_retries_keeps_exactly_the_redo(
        stack, registry, prefix, listing):
    """No retrying transport: the frame raises with its outcome unknown.
    The journal settles it -- an intent still there is replayed before
    the next mutation, anything else is not -- so the create lands whole
    or not at all."""
    lossy = LostReply(stack[0], prefix=prefix)
    alice = SharoesFilesystem(stack[1], registry.user("alice"),
                              config=CONFIG, server=lossy)
    alice.mount()
    alice.create_file("/d/f", b"x" * 300, mode=0o664)
    lossy.armed = 1
    with pytest.raises(TransientStorageError):
        alice.create_file("/d/first", b"1" * 300, mode=0o664)
    alice.create_file("/d/second", b"2" * 300, mode=0o664)
    assert alice.readdir("/d") == listing
    report = VolumeAuditor(stack[1]).audit()
    assert report.clean and not report.orphaned_blobs, report.summary()


class JournalDown(ServerWrapper):
    """A shard whose copy of every journal blob is out of reach."""

    def _forward(self, op):
        if op.blob_id.kind == "journal":
            raise TransientStorageError(f"{op.blob_id}: replica down")
        return super()._forward(op)


def test_an_intent_no_journal_replica_took_writes_nothing(registry):
    """Sharded SSP, alice's journal down on both its replicas: the frame
    stops at its intent before any apply sub-op reaches a shard.  The
    journal cannot say whether the intent landed, so the redo is kept;
    once the journal is back, it and the next op both land."""
    clock = SimClock()
    server = ShardedServer(shards=4, replicas=2, clock=clock)
    volume = SharoesVolume(server, registry, clock=clock)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    alice = SharoesFilesystem(volume, registry.user("alice"), config=CONFIG)
    alice.mount()
    alice.mkdir("/d", mode=0o775)

    def objects() -> dict:
        return {blob_id: payload
                for blob_id, payload in server.raw_blobs().items()
                if blob_id.kind not in ("lease", "journal")}

    before = objects()
    for index in server.placement(journal_blob("alice")):
        server.wrap_shard(index, JournalDown)
    with pytest.raises(TransientStorageError):
        alice.create_file("/d/first", b"1" * 300, mode=0o664)
    assert objects() == before
    server.clear_wrappers()
    alice.create_file("/d/second", b"2" * 300, mode=0o664)
    assert alice.readdir("/d") == ["first", "second"]
    report = VolumeAuditor(volume).audit()
    assert report.clean and not report.orphaned_blobs, report.summary()


# -- the one replayer -------------------------------------------------------------


def _replay_frame(tap: FrameTap, record) -> tuple[str, ...]:
    """The frame ``journal.roll_forward`` sends for ``record``: a check
    per fence, the staged calls fenced, the journal sealed over the
    records behind it."""
    ops = (journal.fence_checks(record.fences)
           + journal.write_ops(record.blobs, dict(record.fences)))
    return tuple(tap._render(op) for op in ops) + (COMMIT,)


def _strand(stack, registry):
    """Alice dies inside her create's apply: the journal holds the
    intent, fenced at her links on ``/d`` and the new inode."""
    server, volume, _ = stack
    dying = SharoesFilesystem(volume, registry.user("alice"), config=CONFIG,
                              server=MutationTrigger(server, {5: crash}))
    dying.mount()
    with pytest.raises(ClientCrashed):
        dying.create_file("/d/dead", b"d" * 300, mode=0o664)
    [record] = journal.open_journal(CryptoProvider(), registry.user("alice"),
                                    server.get(journal_blob("alice")))
    assert len(record.fences) == 2
    return record


def _by_mount(stack, registry):
    server, volume, _ = stack
    tap = FrameTap(server)
    fs = SharoesFilesystem(volume, registry.user("alice"), config=CONFIG,
                           server=tap)
    fs.mount()
    return tap, fs.request_count, tap.take()


def _by_takeover(stack, registry):
    stack[2].advance(_LEASE_S + 1.0)
    bob, tap = mount(stack, registry, "bob")
    tap.take()
    before = bob.request_count
    bob.create_file("/d/from-bob", b"b" * 300, mode=0o664)
    return tap, bob.request_count - before, tap.take()


def _by_fsck(stack, registry, monkeypatch):
    tap = FrameTap(stack[0])
    monkeypatch.setattr(stack[1], "server", tap)
    report = VolumeAuditor(stack[1]).repair()
    assert report.completed_intents == ["alice create_file#1"]
    return tap, None, [frame for frame in tap.take()
                       if not frame[0].startswith("get ")
                       or frame == ("get journal",)]


@pytest.mark.parametrize("recover", ["mount", "takeover", "fsck"])
def test_a_dead_clients_intent_is_one_fenced_frame(stack, registry,
                                                   monkeypatch, recover):
    """Mount, takeover and ``fsck --repair`` replay a dead client's
    intent alike: the journal read, then one frame -- a check per fence,
    the fenced apply, the commit -- and a client counts both."""
    record = _strand(stack, registry)
    tap, counted, frames = (_by_fsck(stack, registry, monkeypatch)
                           if recover == "fsck" else
                           {"mount": _by_mount,
                            "takeover": _by_takeover}[recover](stack,
                                                               registry))
    replay = _replay_frame(tap, record)
    assert replay[:2] == tuple(_check(inode) for inode, _ in record.fences)
    assert frames.count(replay) == 1
    assert frames[frames.index(replay) - 1] == ("get journal",)
    if counted is not None:
        assert counted == len(frames)
    reader = SharoesFilesystem(stack[1], registry.user("bob"))
    reader.mount()
    assert reader.read_file("/d/dead") == b"d" * 300
    report = VolumeAuditor(stack[1]).audit()
    assert report.clean and not report.orphaned_blobs, report.summary()
    assert report.pending_intents == []


class ApplyRefused(ServerWrapper):
    """Refuses the first fenced data put once armed (a hard error: the
    frame stops there and its commit never lands)."""

    armed = False

    def _forward(self, op):
        if (self.armed and op.kind == "put_fenced"
                and op.blob_id.kind == "data"):
            self.armed = False
            raise StorageError("refused")
        return op.call(self.inner)


def test_an_in_session_replay_is_one_fenced_frame(stack, registry):
    """An apply refused part-way keeps its intent pending; the next
    mutation replays it first in one counted frame: checks, fenced
    apply, commit."""
    refusing = ApplyRefused(stack[0])
    tap = FrameTap(refusing)
    alice = SharoesFilesystem(stack[1], registry.user("alice"),
                              config=CONFIG, server=tap)
    alice.mount()
    alice.create_file("/d/f", b"x" * 300, mode=0o664)
    refusing.armed = True
    with pytest.raises(PartialWriteError):
        alice.append_file("/d/f", b"+first")
    [record] = alice.mutation.pending
    tap.names = {alice.getattr("/d/f").inode: "F"}
    tap.take()
    before = alice.request_count
    alice.append_file("/d/f", b"+second")
    frames = tap.take()
    assert frames[0] == _replay_frame(tap, record) == (
        _check("F"), "put_fenced data/F/b0", COMMIT)
    assert alice.request_count - before == len(frames)
    assert alice.mutation.pending == []
    assert alice.metrics.snapshot()["journal.replays"] == 1
    assert alice.read_file("/d/f") == b"x" * 300 + b"+first" + b"+second"
