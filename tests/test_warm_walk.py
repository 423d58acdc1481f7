"""A warm path walk pays only for what it checks -- and, repeated, is
one lookup.

Once the verified metadata cache holds a path, resolving it again costs
no round trip and no verification -- and, since cache hits are free in
the 2008 cost model, it opens no span for them and parses no
verification key: each key is parsed once and kept on the pointer (or
mounted superblock) it came from.  The first warm repeat opens the op,
``resolve`` and one ``walk`` per component, and leaves the walk in the
resolver's memo (fs/resolve.py); every later repeat in the same cache
generation is a memo hit: the op and ``resolve`` only, with the same
cache lookups in the same order as the walk it stands for.  Walks that
open a hidden row, a lockbox or a symlink are never remembered, and a
watermark risen through another selector empties the memo.

These tests pin that shape, pin that the per-step hit/miss attribution
(counted from demand ``get`` frames) is the rule it replaced (a
``network`` span with ``op == "get"`` under the step), and pin that a
memoised key never outlives the bytes it was parsed from.  A client
nothing records spans for builds no span at all.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.caps.record import ObjectRecord
from repro.crypto import esign
from repro.crypto.provider import CryptoProvider
from repro.errors import FileNotFound, IntegrityError, PermissionDenied
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.dirtable import DirPointer
from repro.fs.mdcache import VerifiedMetadataCache
from repro.fs.mutation import MutationPipeline
from repro.fs.permissions import AclEntry
from repro.fs.tableio import fetch_table
from repro.fs.volume import SharoesVolume
from repro.obs.tracing import Span, phase_breakdown
from repro.principals.groups import GroupKeyService
from repro.sim.costmodel import CostModel
from repro.sim.profiles import PAPER_2008
from repro.storage.blobs import meta_blob
from repro.storage.faults import RollbackServer
from repro.workloads import make_env, run_andrew, run_postmark


@pytest.fixture
def key_parses(monkeypatch):
    """Count ``VerificationKey.from_bytes`` calls (a one-item list)."""
    calls = [0]
    parse = esign.VerificationKey.from_bytes.__func__

    def counting(cls, raw):
        calls[0] += 1
        return parse(cls, raw)

    monkeypatch.setattr(esign.VerificationKey, "from_bytes",
                        classmethod(counting))
    return calls


@pytest.fixture
def span_inits(monkeypatch):
    """Count ``Span`` constructions (a one-item list)."""
    calls = [0]
    init = Span.__init__

    def counting(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", counting)
    return calls


class TestWarmWalkShape:
    """The first warm repeat opens the op, ``resolve`` and one ``walk``
    per component -- nothing for the cache hits under them -- parses no
    key, and leaves the walk in the memo; the next repeat is a memo hit
    and opens the op and ``resolve`` only.  Before keys were memoised
    and hits went unspanned, the same repeats opened 12 / 13 / 10 spans
    and parsed 4 / 4 / 3 keys; before the walk memo, every warm repeat
    opened 2 + depth."""

    OPS = (
        ("getattr", lambda fs: fs.getattr("/a/b/c"), 3),
        ("read_file", lambda fs: fs.read_file("/a/b/c"), 3),
        ("readdir", lambda fs: fs.readdir("/a/b"), 2),
    )

    def _tree(self, volume, registry, record: bool) -> SharoesFilesystem:
        fs = SharoesFilesystem(volume, registry.user("alice"),
                               cost_model=CostModel(PAPER_2008))
        if record:
            fs.tracer.record()
        fs.mount()
        fs.mkdir("/a", mode=0o755)
        fs.mkdir("/a/b", mode=0o755)
        fs.create_file("/a/b/c", b"warm bytes", mode=0o644)
        fs.cache.clear()
        return fs

    def test_warm_repeat_spans_and_parses(self, volume, registry,
                                          key_parses, span_inits):
        fs = self._tree(volume, registry, record=True)
        for name, op, depth in self.OPS:
            fs.cache.clear()  # a new generation: the memo starts empty
            op(fs)  # cold: fetches, verifies, fills the caches
            for walks in (["walk"] * depth, []):  # first repeat, memo hit
                key_parses[0] = 0
                span_inits[0] = 0
                requests = fs.request_count
                op(fs)
                assert span_inits[0] == 2 + len(walks), name
                root = fs.tracer.finished[-1]
                assert root.name == name
                assert [span.name for span in root.walk()] == (
                    [name, "resolve"] + walks)
                assert root.children[0].attrs.get("memo") == (
                    None if walks else depth)
                assert key_parses[0] == 0, name
                assert fs.request_count == requests
                assert all(span.attrs["cache"] == "hit"
                           for span in root.walk() if span.name == "walk")
                # Only the op's own bookkeeping charge: nothing under
                # the walk, and the reserved cache bucket stays 0.
                phases = phase_breakdown(root)
                assert root.duration > 0
                assert phases["other"] == pytest.approx(root.duration)
                assert {phase: seconds for phase, seconds in phases.items()
                        if phase != "other"} == {
                    "resolve": 0.0, "network": 0.0, "crypto": 0.0,
                    "cache": 0.0}

    def test_unobserved_warm_repeat_builds_no_span(self, volume, registry,
                                                   key_parses, span_inits):
        """Nothing records: the same repeats construct no ``Span`` --
        the cold runs neither -- and still count one op each and
        attribute each walk step as a hit."""
        fs = self._tree(volume, registry, record=False)
        assert span_inits[0] == 0
        for name, op, depth in self.OPS:
            op(fs)
            key_parses[0] = 0
            ops = fs.metrics.value("ops.count")
            hits = fs.resolver.walk_depth_stats()[str(depth - 1)]["hits"]
            requests = fs.request_count
            op(fs)
            assert span_inits[0] == 0, name
            assert key_parses[0] == 0, name
            assert fs.request_count == requests
            assert fs.metrics.value("ops.count") == ops + 1
            assert fs.metrics.value(f"ops.{name}.seconds.count") >= 2
            assert fs.resolver.walk_depth_stats()[str(depth - 1)]["hits"] == hits + 1
        assert len(fs.tracer.finished) == 0

    def test_a_pointer_parses_its_key_once(self, alice_fs, key_parses):
        alice_fs.mkdir("/a", mode=0o755)
        root = alice_fs._resolve("/")
        row = fetch_table(alice_fs, root).lookup(
            "a", provider=alice_fs.provider,
            table_dek=root.view.require_dek()).pointer
        pointer = DirPointer(row.selector, row.mek, row.mvk)
        key_parses[0] = 0
        first = pointer.verification_key
        assert pointer.verification_key is first
        assert key_parses[0] == 1
        assert first.to_bytes() == pointer.mvk
        # The memo is not a field: equality and hashing still see bytes.
        assert pointer == row and hash(pointer) == hash(row)


def _old_rule_miss(walk_span) -> bool:
    """The attribution rule before hits were counted: a step missed
    when a ``network`` span with ``op == "get"`` sits under it."""
    return any(node.name == "network" and node.attrs.get("op") == "get"
               for child in walk_span.children for node in child.walk())


def _run_postmark(env):
    run_postmark(env, files=40, transactions=60, cache_fraction=0.25)


def _run_rereads(env):
    """Andrew and Postmark never repeat a walk in one cache generation;
    re-reading a small tree (a miss among the hits) does."""
    fs = env.fs
    fs.mkdir("/r")
    fs.mkdir("/r/s")
    for name in ("f0", "f1", "f2"):
        fs.create_file(f"/r/s/{name}", b"again")
    fs.cache.clear()
    for _ in range(3):
        for path in ("/r/s/f0", "/r/s/f1", "/r/s/f2", "/r/s/nope"):
            try:
                fs.getattr(path)
            except FileNotFound:
                pass


class TestWalkAttribution:
    """``walk.attrs["cache"]`` counted from ``BlobIO.get_frames`` is the
    old span search, step for step, with readahead on and off."""

    @pytest.mark.parametrize("readahead", [False, True])
    @pytest.mark.parametrize("run", [run_andrew, _run_postmark,
                                     _run_rereads],
                             ids=["andrew", "postmark", "rereads"])
    def test_counted_misses_are_the_searched_misses(self, run, readahead):
        env = make_env("sharoes")
        env.client_overrides = {"readahead": readahead}
        run(env)
        fs = env.fs
        assert len(fs.tracer.finished) < fs.tracer.finished.maxlen
        totals: dict[str, dict[str, float]] = {}

        def noted(depth, miss: bool, seconds: float) -> None:
            stats = totals.setdefault(str(depth), {
                "walks": 0, "hits": 0, "misses": 0, "seconds": 0.0})
            stats["walks"] += 1
            stats["misses" if miss else "hits"] += 1
            stats["seconds"] += seconds

        misses = memo_hits = 0
        for root in fs.tracer.finished:
            for span in root.walk():
                if span.name == "resolve" and "memo" in span.attrs:
                    # A memo hit: its walk's steps, all hits, free; a
                    # remembered failure noted all but its last step.
                    memo_hits += 1
                    for depth in range(span.attrs["memo"]
                                       - (span.error is not None)):
                        noted(depth, False, 0.0)
                if span.name != "walk" or "cache" not in span.attrs:
                    continue
                miss = _old_rule_miss(span)
                assert span.attrs["cache"] == ("miss" if miss else "hit")
                misses += miss
                noted(span.attrs["depth"], miss, span.duration)
        assert memo_hits > 0 or run is not _run_rereads
        assert misses > 0
        reported = fs.resolver.walk_depth_stats()
        assert reported.keys() == totals.keys()
        for depth, stats in totals.items():
            for key in ("walks", "hits", "misses"):
                assert reported[depth][key] == stats[key], (depth, key)
            assert reported[depth]["seconds"] == pytest.approx(
                stats["seconds"])


class TestMemoisedKeyNeverOutlivesItsBytes:
    """A rekey writes new pointer bytes; the reader's next walk of a
    re-read table holds a new pointer and so a new key.  The SSP
    replaying the pre-rekey metadata replica is then caught."""

    def _stack(self, registry):
        server = RollbackServer(should_rollback=lambda bid: False)
        volume = SharoesVolume(server, registry)
        volume.format(root_owner="alice", root_group="eng")
        GroupKeyService(registry, server, CryptoProvider()).publish_all()
        alice = SharoesFilesystem(volume, registry.user("alice"))
        alice.mount()
        return server, volume, alice

    @pytest.mark.parametrize("reader, parent_mode", [
        ("bob", 0o755),   # group member, full view of /a/b
        ("dave", 0o711),  # other: exec-only (hidden-row) view of /a/b
    ])
    def test_rekey_then_replay(self, registry, reader, parent_mode):
        server, volume, alice = self._stack(registry)
        alice.mkdir("/a", mode=0o755)
        alice.mkdir("/a/b", mode=parent_mode)
        alice.create_file("/a/b/c", b"before the rekey", mode=0o644)
        # The paper's strict close-to-open reader: revalidate() drops
        # the verified views, so its next walk re-reads /a/b's table.
        fs = SharoesFilesystem(volume, registry.user(reader),
                               config=ClientConfig(mdcache=False))
        fs.mount()
        inode = fs.getattr("/a/b/c").inode
        old = fs._resolve("/a/b/c")
        if parent_mode == 0o755:
            # A cached table row hands every walk the same key object.
            assert fs._resolve("/a/b/c").mvk is old.mvk

        alice.rekey("/a/b/c")
        new_mvk = alice._resolve("/a/b/c").mvk.to_bytes()
        assert new_mvk != old.mvk.to_bytes()

        fs.revalidate()
        assert fs.getattr("/a/b/c").inode == inode
        node = fs._resolve("/a/b/c")
        assert node.mvk.to_bytes() == new_mvk
        assert node.mvk is not old.mvk

        # Replay a pre-rekey replica (the first one ever stored).
        replayed = meta_blob(node.inode, node.selector)
        server._should_rollback = lambda bid: bid == replayed
        fs.revalidate()
        with pytest.raises(IntegrityError):
            fs.getattr("/a/b/c")


@pytest.fixture
def cache_calls(monkeypatch):
    """Log every metadata-cache lookup and cached-table note, in order."""
    calls = []
    spied = {VerifiedMetadataCache: ("get_view", "get_table", "has_view",
                                     "has_table", "get_listing"),
             MutationPipeline: ("note_cached_table",)}
    for cls, names in spied.items():
        for name in names:
            def spy(self, *args, _name=name, _original=getattr(cls, name)):
                calls.append((_name, *args))
                return _original(self, *args)
            monkeypatch.setattr(cls, name, spy)
    return calls


def _memo_tree(volume, registry):
    """alice's tree, and bob (group eng) recording spans: /a/b/c, /a/p
    0700 (a ZERO row for bob) and /a/q 0744 (bob may list, not
    traverse)."""
    alice = SharoesFilesystem(volume, registry.user("alice"),
                              cost_model=CostModel(PAPER_2008))
    alice.mount()
    alice.mkdir("/a", mode=0o755)
    alice.mkdir("/a/b", mode=0o755)
    alice.create_file("/a/b/c", b"memo", mode=0o644)
    alice.mkdir("/a/p", mode=0o700)
    alice.mkdir("/a/q", mode=0o744)
    bob = SharoesFilesystem(volume, registry.user("bob"),
                            cost_model=CostModel(PAPER_2008))
    bob.tracer.record()
    bob.mount()
    return alice, bob


def _ledgers(fs) -> dict:
    """Every counter a walk feeds: the store's, the cache front's and
    the per-depth attribution."""
    out = {f"cache.{k}": v
           for k, v in dataclasses.asdict(fs.cache.stats).items()}
    out.update((f"mdcache.{k}", v) for k, v in fs.mdcache.snapshot().items())
    out.update((f"resolve.{depth}.{k}", v)
               for depth, row in fs.resolver.walk_depth_stats().items()
               for k, v in row.items())
    return out


def _outcome(fs, path):
    try:
        node = fs._resolve(path)
    except (FileNotFound, PermissionDenied) as exc:
        return type(exc), str(exc)
    return node.inode, node.selector


class TestWalkMemo:
    """A memo hit stands for the warm walk it remembers, call for call;
    what must be paid per access is never remembered."""

    @pytest.mark.parametrize("path, answer", [
        ("/a/b/c", None),
        ("/a/b/nope", FileNotFound),
        ("/a/p/x", PermissionDenied),   # ZERO row, after the table
        ("/a/q/x", PermissionDenied),   # no traverse CAP, before it
    ])
    def test_a_hit_makes_the_warm_walks_cache_calls(
            self, volume, registry, cache_calls, path, answer):
        _alice, bob = _memo_tree(volume, registry)
        cold = _outcome(bob, path)  # fills the caches
        if answer is not None:
            assert cold[0] is answer
        seen = []
        for _ in range(2):  # the memo-less warm walk, then the memo hit
            del cache_calls[:]
            before = _ledgers(bob)
            assert _outcome(bob, path) == cold
            after = _ledgers(bob)
            seen.append((list(cache_calls), list(bob.cache._entries),
                         {k: after[k] - before.get(k, 0) for k in after}))
        walked, hit = seen
        assert walked[0] and hit == walked
        first, second = list(bob.tracer.finished)[-2:]
        assert "memo" not in first.attrs
        assert second.attrs["memo"] == len(
            [s for s in first.walk() if s.name == "walk"])
        assert [s.name for s in second.walk()] == ["resolve"]

    def test_lockbox_hidden_row_and_symlink_walks_are_never_remembered(
            self, volume, registry):
        alice = SharoesFilesystem(volume, registry.user("alice"))
        alice.mount()
        alice.mkdir("/x", mode=0o711)            # bob: exec-only rows
        alice.create_file("/x/f", b"hidden", mode=0o644)
        alice.mkdir("/s", mode=0o755)            # dave: a split point
        alice.create_file("/s/f", b"split", mode=0o640)
        alice.set_acl("/s/f", (AclEntry("dave", 0o4),))
        alice.mkdir("/a", mode=0o755)
        alice.create_file("/a/c", b"target", mode=0o644)
        alice.symlink("/a/c", "/a/l")
        for reader, path in (("bob", "/x/f"), ("dave", "/s/f"),
                             ("bob", "/a/l")):
            fs = SharoesFilesystem(volume, registry.user(reader),
                                   cost_model=CostModel(PAPER_2008))
            fs.mount()
            fs.getattr(path)  # cold
            clock = fs.tracer.clock
            seconds = []
            for _ in range(3):
                start = clock.now
                fs.getattr(path)
                seconds.append(clock.now - start)
                assert (path, True) not in fs.resolver._memo, path
            fs.resolver._memo.clear()
            start = clock.now
            fs.getattr(path)
            assert seconds == pytest.approx([clock.now - start] * 3), path
            assert seconds[0] > 0

    def test_a_watermark_risen_through_another_selector_empties_it(
            self, volume, registry):
        alice = SharoesFilesystem(volume, registry.user("alice"))
        alice.mount()
        alice.mkdir("/a", mode=0o755)
        alice.create_file("/a/f", b"x", mode=0o644)
        for _ in range(2):  # the warm walk, then the memo hit
            assert alice.getattr("/a/f").mode == 0o644
        assert ("/a/f", True) in alice.resolver._memo
        # A second mount changes /a/f; this one's warm entry serves on
        # (close-to-open staleness), until it sees the new version
        # through another of the object's replicas.
        other = SharoesFilesystem(volume, registry.user("alice"))
        other.mount()
        other.chmod("/a/f", 0o640)
        assert alice.getattr("/a/f").mode == 0o644
        node = alice._resolve("/a/f")
        meks = ObjectRecord.from_owner_view(node.view, node.mvk).selector_meks
        selector = next(s for s in sorted(meks)
                        if s != node.selector
                        and volume.server.exists(meta_blob(node.inode, s)))
        view = alice._fetch_view(node.inode, selector, meks[selector],
                                 node.mvk)
        assert view.attrs.mode == 0o640
        rejects = alice.mdcache.stale_rejects
        assert alice.getattr("/a/f").mode == 0o640
        assert alice.mdcache.stale_rejects == rejects + 1

    def test_a_newly_mounted_superblock_empties_it(self, volume, registry):
        """A mount over a mounted client (no unmount, so no cache
        clear) adopts the superblock another mount's root rekey wrote:
        the root's keys come from it, not from the memo."""
        alice = SharoesFilesystem(volume, registry.user("alice"))
        alice.mount()
        for _ in range(2):  # the warm walk, then the memo hit
            old = alice._resolve("/").mek
        other = SharoesFilesystem(volume, registry.user("alice"))
        other.mount()
        other.rekey("/")
        alice.mount()
        assert alice._superblock.root_mek != old
        assert alice._resolve("/").mek == alice._superblock.root_mek
