"""A warm path walk pays only for what it checks.

Once the verified metadata cache holds a path, resolving it again costs
no round trip and no verification -- and, since cache hits are free in
the 2008 cost model, it opens no span for them and parses no
verification key: each key is parsed once and kept on the pointer (or
mounted superblock) it came from.  These tests pin that shape, pin that
the per-step hit/miss attribution (counted from demand ``get`` frames)
is the rule it replaced (a ``network`` span with ``op == "get"`` under
the step), and pin that a memoised key never outlives the bytes it was
parsed from.  A client nothing records spans for builds no span at all.
"""

from __future__ import annotations

import pytest

from repro.crypto import esign
from repro.crypto.provider import CryptoProvider
from repro.errors import IntegrityError
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.dirtable import DirPointer
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
    """A warm repeat opens the op, ``resolve`` and one ``walk`` per
    component -- nothing for the cache hits under them -- and parses
    no key.  Before keys were memoised and hits went unspanned, the
    same repeats opened 12 / 13 / 10 spans and parsed 4 / 4 / 3 keys."""

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
            op(fs)  # cold: fetches, verifies, fills the caches
            key_parses[0] = 0
            span_inits[0] = 0
            requests = fs.request_count
            op(fs)
            assert span_inits[0] == 2 + depth, name
            root = fs.tracer.finished[-1]
            assert root.name == name
            assert [span.name for span in root.walk()] == (
                [name, "resolve"] + ["walk"] * depth)
            assert key_parses[0] == 0, name
            assert fs.request_count == requests
            assert all(span.attrs["cache"] == "hit"
                       for span in root.walk() if span.name == "walk")
            # Only the op's own bookkeeping charge: nothing under the
            # walk, and the reserved cache bucket stays 0.
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
            hits = fs.walk_depth_stats()[str(depth - 1)]["hits"]
            requests = fs.request_count
            op(fs)
            assert span_inits[0] == 0, name
            assert key_parses[0] == 0, name
            assert fs.request_count == requests
            assert fs.metrics.value("ops.count") == ops + 1
            assert fs.metrics.value(f"ops.{name}.seconds.count") >= 2
            assert fs.walk_depth_stats()[str(depth - 1)]["hits"] == hits + 1
        assert len(fs.tracer.finished) == 0

    def test_a_pointer_parses_its_key_once(self, alice_fs, key_parses):
        alice_fs.mkdir("/a", mode=0o755)
        root = alice_fs._resolve("/")
        row = alice_fs._fetch_table(root).lookup(
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


class TestWalkAttribution:
    """``walk.attrs["cache"]`` counted from ``BlobIO.get_frames`` is the
    old span search, step for step, with readahead on and off."""

    @pytest.mark.parametrize("readahead", [False, True])
    @pytest.mark.parametrize("run", [run_andrew, _run_postmark],
                             ids=["andrew", "postmark"])
    def test_counted_misses_are_the_searched_misses(self, run, readahead):
        env = make_env("sharoes")
        env.client_overrides = {"readahead": readahead}
        run(env)
        fs = env.fs
        assert len(fs.tracer.finished) < fs.tracer.finished.maxlen
        totals: dict[str, dict[str, float]] = {}
        misses = 0
        for root in fs.tracer.finished:
            for span in root.walk():
                if span.name != "walk" or "cache" not in span.attrs:
                    continue
                miss = _old_rule_miss(span)
                assert span.attrs["cache"] == ("miss" if miss else "hit")
                misses += miss
                stats = totals.setdefault(str(span.attrs["depth"]), {
                    "walks": 0, "hits": 0, "misses": 0, "seconds": 0.0})
                stats["walks"] += 1
                stats["misses" if miss else "hits"] += 1
                stats["seconds"] += span.duration
        assert misses > 0
        reported = fs.walk_depth_stats()
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
