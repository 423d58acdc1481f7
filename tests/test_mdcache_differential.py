"""The verified metadata cache proven correct, twice over.

Part 1 -- **cached-vs-uncached differential** (modeled on
``tests/test_batch_differential.py``, on the rig of
``tests/differential.py``): every seeded workload runs with
``ClientConfig(mdcache=True)`` against the strict re-fetch-per-open
reference (``mdcache=False``).  The cache only changes *read* paths --
decrypt/verify consume no entropy -- so under pinned entropy the two
runs must leave **byte-identical** SSP state, show the identical visible
tree and plaintext reads, audit clean, and the cached run must never
issue more requests (strictly fewer on the revalidation-heavy Andrew
run, whose close-to-open boundaries the cache is built to survive).

Part 2 -- **coherence matrix**: every staleness-producing event

    {remote mutation by a second client, lease takeover,
     journal roll-forward, revocation, fork/rollback by the SSP}

crossed with every cache state of the observing client

    {cold, warm, stale}

asserting the two safety properties of docs/CACHING.md cell by cell:

* a cache entry whose version the freshness monitor has refuted is
  **never trusted** (``stale_rejects`` fires, the entry is refetched,
  rollbacks still raise ``StaleObjectError`` -- the watermark survives
  invalidation);
* an entry is **never served after invalidation** (lease loss, epoch
  advancement, explicit coherence events drop it; the next read goes
  back to the SSP).

A *warm* entry served before any invalidation signal is the documented
bounded-staleness window of close-to-open consistency -- allowed, and
distinguished from a stale serve below.  The matrix ends by asserting
zero stale-served cells.
"""

from __future__ import annotations

import pytest

from repro.errors import ClientCrashed, LeaseLostError, PermissionDenied
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.freshness import StaleObjectError
from repro.fs.mdcache import _VerifiedView
from repro.fs.volume import SharoesVolume, meta_blob
from repro.principals.groups import GroupKeyService
from repro.crypto.provider import CryptoProvider
from repro.sim.clock import SimClock
from repro.storage.resilient import MutationTrigger, crash
from repro.storage.server import StorageServer
from repro.tools.fsck import VolumeAuditor
from repro.tools.twin import visible_tree
from repro.workloads.runner import make_env
from tests.differential import WORKLOADS, differential_env

_SEED = 0xCACE


# -- part 1: cached-vs-uncached differential ---------------------------------


def _differential_run(workload: str, mdcache: bool):
    with differential_env(workload, _SEED, {"mdcache": mdcache}) as env:
        fs = env.fs
        return {
            "blobs": env.server.raw_blobs(),
            "tree": visible_tree(fs),
            "requests": fs.request_count,
            "volume": env._volume,
            "fs": fs,
        }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_mdcache_differential(workload):
    cached = _differential_run(workload, mdcache=True)
    strict = _differential_run(workload, mdcache=False)

    # Byte-identical final SSP state: same blob ids, same ciphertext.
    assert set(cached["blobs"]) == set(strict["blobs"])
    assert cached["blobs"] == strict["blobs"]

    # Identical visible semantics (tree, stats, plaintext reads --
    # visible_tree re-reads every file through both clients).
    assert cached["tree"] == strict["tree"]

    # The cache never *adds* round trips.
    assert cached["requests"] <= strict["requests"]

    # The freshness monitor never fired: nothing the cache served was
    # behind a version this client had proven.
    mdc = cached["fs"].mdcache
    assert mdc is not None and mdc.stale_rejects == 0

    # The cached volume audits clean.
    report = VolumeAuditor(cached["volume"]).audit()
    assert report.clean, report


def test_mdcache_differential_andrew_saves_requests():
    """Andrew's phase boundaries are the whole point: the strict model
    re-fetches every walked component after each ``revalidate()``, the
    verified cache keeps them warm -- strictly fewer round trips."""
    cached = _differential_run("andrew", mdcache=True)
    strict = _differential_run("andrew", mdcache=False)
    assert cached["requests"] < strict["requests"]
    mdc = cached["fs"].mdcache
    assert mdc.hits > 0
    assert mdc.revalidations >= 5  # one per andrew phase boundary


def test_listing_fast_path_serves_readdir():
    """A warm directory listing answers readdir from the
    pre-materialized (names, permission-verdict) set: zero requests."""
    env = make_env("sharoes", config=ClientConfig(mdcache=True))
    fs = env.fs
    fs.mkdir("/d", mode=0o755)
    for i in range(4):
        fs.mknod(f"/d/f{i}", mode=0o644)
    first = fs.readdir("/d")          # builds the listing
    builds = fs.mdcache.listing_builds
    before = fs.request_count
    again = fs.readdir("/d")          # served pre-materialized
    assert again == first
    assert fs.request_count == before
    assert fs.mdcache.listing_hits >= 1
    assert fs.mdcache.listing_builds == builds  # no rebuild

    # A local mutation rewrites the table -> the listing is rebuilt.
    fs.mknod("/d/f4", mode=0o644)
    assert "f4" in fs.readdir("/d")


# -- part 2: the coherence matrix --------------------------------------------

MDCONF = ClientConfig(mdcache=True)

#: matrix accumulator: {(scenario, state): outcome}; asserted complete
#: and free of stale serves at the end of the module.
_MATRIX: dict[tuple[str, str], str] = {}

SCENARIOS = ("remote_mutation", "lease_takeover", "journal_rollforward",
             "revocation", "fork_rollback")
STATES = ("cold", "warm", "stale")

#: outcomes that mean old state was served *after* the client had an
#: invalidation signal or a version proof -- the cells that must be 0.
STALE_SERVED = "STALE-SERVED"


def _record(scenario: str, state: str, outcome: str) -> str:
    _MATRIX[(scenario, state)] = outcome
    return outcome


def _mounted(volume, registry, user_id="alice",
             config=MDCONF, server=None) -> SharoesFilesystem:
    fs = SharoesFilesystem(volume, registry.user(user_id),
                           config=config, server=server)
    fs.mount()
    return fs


class TestRemoteMutation:
    """A second client of the same principal writes; the observer's
    cache entries were verified against the pre-write version."""

    def _setup(self, volume, registry):
        writer = _mounted(volume, registry)
        writer.mkdir("/rm", mode=0o755)
        writer.create_file("/rm/f", b"v1", mode=0o644)
        return writer

    def test_cold(self, volume, registry):
        writer = self._setup(volume, registry)
        writer.write_file("/rm/f", b"v2")
        reader = _mounted(volume, registry)
        assert reader.read_file("/rm/f") == b"v2"
        _record("remote_mutation", "cold", "fresh")

    def test_warm(self, volume, registry):
        writer = self._setup(volume, registry)
        reader = _mounted(volume, registry)
        assert reader.read_file("/rm/f") == b"v1"       # warm
        writer.write_file("/rm/f", b"v2")
        reader.revalidate()                              # entries stay warm
        seen = reader.read_file("/rm/f")
        # Bounded staleness: old-or-new, never garbage.  No
        # invalidation signal has reached this client yet.
        assert seen in (b"v1", b"v2")
        inode = writer.getattr("/rm/f").inode
        reader._invalidate(inode)
        assert reader.read_file("/rm/f") == b"v2"        # post-invalidation
        _record("remote_mutation", "warm",
                "bounded-stale" if seen == b"v1" else "fresh")

    def test_stale(self, volume, registry):
        """A newer version is *proven* to the observer; re-inserting
        the old entry must be refuted, not served."""
        writer = self._setup(volume, registry)
        reader = _mounted(volume, registry)
        node = reader._resolve("/rm/f")                  # warm + keep view
        old_view, inode, sel = node.view, node.inode, node.selector
        writer.write_file("/rm/f", b"v2")
        writer.chmod("/rm/f", 0o640)                     # metadata version bump
        reader._invalidate(inode)
        assert reader.read_file("/rm/f") == b"v2"        # proves new version
        # Adversarially resurrect the superseded entry in the store.
        reader.cache.put(("meta", inode, sel),
                         _VerifiedView(old_view, old_view.attrs.version), 64)
        rejects = reader.mdcache.stale_rejects
        assert reader.getattr("/rm/f").mode == 0o640     # not the old view
        assert reader.mdcache.stale_rejects == rejects + 1
        outcome = "refetched"
        _record("remote_mutation", "stale", outcome)


class TestRevocation:
    """Revocation re-encrypts immediately; the revoked reader's cache
    holds plaintext they legitimately saw -- it may keep serving *that*
    (bounded staleness) but never the post-revocation content, and
    nothing after invalidation."""

    def _setup(self, volume, registry):
        alice = _mounted(volume, registry)
        alice.mkdir("/rv", mode=0o755)
        alice.create_file("/rv/f", b"old-secret", mode=0o644)
        return alice

    def test_cold(self, volume, registry):
        alice = self._setup(volume, registry)
        alice.chmod("/rv/f", 0o600)                      # revoke world
        alice.write_file("/rv/f", b"new-secret")
        carol = _mounted(volume, registry, "carol")
        with pytest.raises(PermissionDenied):
            carol.read_file("/rv/f")
        _record("revocation", "cold", "denied")

    def test_warm(self, volume, registry):
        alice = self._setup(volume, registry)
        carol = _mounted(volume, registry, "carol")
        assert carol.read_file("/rv/f") == b"old-secret"  # warm
        alice.chmod("/rv/f", 0o600)
        alice.write_file("/rv/f", b"new-secret")
        carol.revalidate()
        try:
            seen = carol.read_file("/rv/f")
        except Exception:
            seen = None  # denied / undecryptable: also safe
        # The one forbidden outcome: the *new* plaintext.  Old plaintext
        # (already in carol's hands) inside the staleness window is the
        # documented close-to-open bound, not a leak.
        assert seen != b"new-secret"
        _record("revocation", "warm",
                "bounded-stale" if seen == b"old-secret" else "denied")

    def test_stale(self, volume, registry):
        alice = self._setup(volume, registry)
        carol = _mounted(volume, registry, "carol")
        inode = carol.getattr("/rv/f").inode
        assert carol.read_file("/rv/f") == b"old-secret"
        alice.chmod("/rv/f", 0o600)
        alice.write_file("/rv/f", b"new-secret")
        carol._invalidate(inode)                         # coherence event
        with pytest.raises(PermissionDenied):
            carol.read_file("/rv/f")                     # never re-served
        _record("revocation", "stale", "denied")


class TestForkRollback:
    """An adversarial SSP re-serves a superseded metadata replica."""

    def _setup(self, volume, registry, server):
        alice = _mounted(volume, registry)
        alice.mkdir("/fk", mode=0o755)
        alice.mknod("/fk/f", mode=0o644)
        inode = alice.getattr("/fk/f").inode
        old_blob = server.get(meta_blob(inode, "o"))
        alice.chmod("/fk/f", 0o600)                      # version bump
        return alice, inode, old_blob

    def test_warm(self, volume, registry, server):
        alice, inode, old_blob = self._setup(volume, registry, server)
        assert alice.getattr("/fk/f").mode == 0o600      # warm at v2
        server.put(meta_blob(inode, "o"), old_blob)      # rollback!
        alice.revalidate()
        # The verified cache *defeats* the rollback: the client keeps
        # serving its own newer verified view and never re-reads the
        # forged blob.
        assert alice.getattr("/fk/f").mode == 0o600
        _record("fork_rollback", "warm", "fresh")

    def test_stale(self, volume, registry, server):
        """The load-bearing cell: invalidation drops the cache entry
        but NOT the freshness watermark, so the forced re-fetch detects
        the rollback instead of quietly adopting it."""
        alice, inode, old_blob = self._setup(volume, registry, server)
        assert alice.getattr("/fk/f").mode == 0o600
        server.put(meta_blob(inode, "o"), old_blob)
        alice._invalidate(inode)
        with pytest.raises(StaleObjectError):
            alice.getattr("/fk/f")
        _record("fork_rollback", "stale", "detected")

    def test_cold(self, volume, registry, server):
        """First contact: a fresh client has no watermark -- blind to
        the rollback (SUNDR's remit, see THREAT_MODEL)."""
        alice, inode, old_blob = self._setup(volume, registry, server)
        server.put(meta_blob(inode, "o"), old_blob)
        newcomer = _mounted(volume, registry)
        assert newcomer.getattr("/fk/f").mode == 0o644   # accepted
        _record("fork_rollback", "cold", "blind-first-contact")


_LEASE_S = 5.0
LMDCONF = ClientConfig(journal=True, lease=True, lease_duration_s=_LEASE_S,
                       mdcache=True)


@pytest.fixture
def lease_world(registry):
    """(server, volume, clock) shared by every leased client."""
    clock = SimClock()
    server = StorageServer()
    volume = SharoesVolume(server, registry, clock=clock)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    return server, volume, clock


class TestLeaseTakeover:
    """A successor takes the lease over mid-mutation: the zombie's
    fenced inodes must leave its cache the moment the loss is known."""

    def _zombie_run(self, lease_world, registry):
        server, volume, clock = lease_world
        prep = _mounted(volume, registry, config=LMDCONF)
        prep.mkdir("/lt", mode=0o775)
        prep.unmount()
        bob = _mounted(volume, registry, "bob", config=LMDCONF)

        def hook() -> None:
            clock.advance(_LEASE_S + 1.0)
            bob.create_file("/lt/bob", b"bob-wins")

        pauser = MutationTrigger(server, {3: hook})
        alice = _mounted(volume, registry, config=LMDCONF, server=pauser)
        assert alice.readdir("/lt") == []                # warm /lt
        with pytest.raises(LeaseLostError):
            alice.create_file("/lt/za", b"alice-zombie")
        return volume, alice

    def test_warm(self, lease_world, registry):
        volume, alice = self._zombie_run(lease_world, registry)
        # The LeaseLostError invalidated every fenced inode: the next
        # readdir goes back to the SSP and sees the successor's write.
        assert "bob" in alice.readdir("/lt")
        assert alice.read_file("/lt/bob") == b"bob-wins"
        assert VolumeAuditor(volume).audit().clean
        _record("lease_takeover", "warm", "fresh")

    def test_stale(self, lease_world, registry):
        volume, alice = self._zombie_run(lease_world, registry)
        # The pre-takeover entries must actually be gone from the store
        # -- not merely shadowed -- so nothing can resurrect them.
        inode = alice.getattr("/lt").inode
        for sel in ("o", "g", "w"):
            assert alice.cache.get(("table", inode, sel)) is None
            assert alice.cache.get(("listing", inode, sel)) is None
        assert alice.mdcache.invalidations >= 1
        assert "za" not in alice.readdir("/lt")
        _record("lease_takeover", "stale", "invalidated")

    def test_cold(self, lease_world, registry):
        _volume, _alice = self._zombie_run(lease_world, registry)
        probe = _mounted(_volume, registry, config=LMDCONF)
        assert probe.read_file("/lt/bob") == b"bob-wins"
        assert "za" not in probe.readdir("/lt")
        _record("lease_takeover", "cold", "fresh")


JMDCONF = ClientConfig(journal=True, mdcache=True)


class TestJournalRollForward:
    """A crashed client's journaled intent is rolled forward at the
    next mount; observers' caches span the recovery boundary."""

    def _crash(self, volume, registry):
        prep = _mounted(volume, registry, config=JMDCONF)
        prep.mkdir("/jr", mode=0o755)
        crasher = MutationTrigger(volume.server, {6: crash})
        dying = _mounted(volume, registry, config=JMDCONF, server=crasher)
        with pytest.raises(ClientCrashed):
            dying.create_file("/jr/f", b"rolled-forward")
        return prep

    def test_cold(self, volume, registry):
        self._crash(volume, registry)
        successor = _mounted(volume, registry, config=JMDCONF)  # recovers
        assert successor.read_file("/jr/f") == b"rolled-forward"
        assert VolumeAuditor(volume).audit().clean
        _record("journal_rollforward", "cold", "fresh")

    def test_warm(self, volume, registry):
        observer = self._crash(volume, registry)   # warmed /jr pre-crash
        assert observer.readdir("/jr") == []       # bounded-stale window
        successor = _mounted(volume, registry, config=JMDCONF)
        assert successor.read_file("/jr/f") == b"rolled-forward"
        # Still no invalidation signal at the observer: old listing is
        # the close-to-open bound, not a stale serve.
        names = observer.readdir("/jr")
        assert names in ([], ["f"])
        _record("journal_rollforward", "warm",
                "bounded-stale" if names == [] else "fresh")

    def test_stale(self, volume, registry):
        observer = self._crash(volume, registry)
        assert observer.readdir("/jr") == []
        _mounted(volume, registry, config=JMDCONF)  # rolls intent forward
        inode = observer.getattr("/jr").inode
        observer._invalidate(inode)                # coherence event
        assert observer.readdir("/jr") == ["f"]    # never the old listing
        assert observer.read_file("/jr/f") == b"rolled-forward"
        _record("journal_rollforward", "stale", "fresh")


def test_matrix_complete_and_no_stale_serves():
    # Runs last in file order, after every matrix cell above.
    """Every {scenario} x {cold, warm, stale} cell ran, and none of
    them served a cache entry past an invalidation or version proof."""
    missing = [(s, st) for s in SCENARIOS for st in STATES
               if (s, st) not in _MATRIX]
    assert not missing, f"matrix cells never ran: {missing}"
    stale_served = {cell: out for cell, out in _MATRIX.items()
                    if out == STALE_SERVED}
    assert not stale_served, stale_served
