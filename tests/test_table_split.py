"""The same tree whichever form its tables are stored in, and every
prefix of a fold.

Whether a directory's table views are stored inline or as base + head is
chosen by writers from one constant, ``layout.TABLE_PAGE_BYTES``; nothing
a reader or an application sees may depend on it.  Part 1 replays one
seeded 300-op script with the page at its default, at 256 B (nearly every
directory splits and folds often) and at 1 MiB (nothing ever splits) --
the monkeypatch is the test-only seam, no third value exists in ``src/``
-- and compares what every principal sees.  Part 2 kills the client at
every sub-op of a fold batch: bases first, heads second, old bases last,
so each prefix leaves every view readable.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.provider import CryptoProvider
from repro.errors import ClientCrashed, FilesystemError
from repro.fs import layout
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.storage.resilient import MutationTrigger, crash
from repro.storage.server import StorageServer
from repro.tools.fsck import VolumeAuditor
from repro.tools.twin import pinned_entropy
from tests.conftest import USER_NAMES

DIR_MODES = (0o755, 0o751, 0o750, 0o711, 0o700, 0o754)
FILE_MODES = (0o644, 0o640, 0o600, 0o664)
OPS = 300


def _bases(server, inode: int | None = None) -> list[str]:
    return sorted(str(b) for b in server.raw_blobs()
                  if b.kind == "data" and "@" in b.selector
                  and inode in (None, b.inode))


def _mount(volume, user_id: str, config=None, server=None):
    fs = SharoesFilesystem(volume, volume.registry.user(user_id),
                           config=config, server=server)
    fs.mount()
    return fs


def _volume(registry, scheme: str = "scheme2") -> SharoesVolume:
    volume = SharoesVolume(StorageServer(), registry, scheme=scheme)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, volume.server,
                    CryptoProvider()).publish_all()
    return volume


# -- part 1: the same tree either way ------------------------------------------


def _play(fs, seed: int) -> tuple[dict, int]:
    """One seeded script of creates, unlinks, renames, chmods, rekeys,
    mkdirs and rmdirs, all by the owner; returns the model (directory ->
    name -> content, None for a subdirectory) and how many times a
    stored base was seen."""
    rng = random.Random(seed)
    dirs: dict[str, dict] = {}
    serial = 0
    split_seen = 0
    for top in ("/a", "/b"):
        fs.mkdir(top, mode=0o755)
        dirs[top] = {}
    for _ in range(OPS):
        files = [(d, n) for d, rows in dirs.items()
                 for n, content in rows.items() if content is not None]
        roll = rng.random()
        if roll < 0.45 or not files:
            parent = rng.choice(["/a", "/a", "/b"])
            serial += 1
            name, content = f"f{serial:03d}", rng.randbytes(rng.randrange(40))
            fs.create_file(f"{parent}/{name}", content,
                           mode=rng.choice(FILE_MODES))
            dirs[parent][name] = content
        elif roll < 0.65:
            parent, name = rng.choice(files)
            fs.unlink(f"{parent}/{name}")
            del dirs[parent][name]
        elif roll < 0.75:
            parent, name = rng.choice(files)
            target = rng.choice(sorted(dirs))
            serial += 1
            fs.rename(f"{parent}/{name}", f"{target}/r{serial:03d}")
            dirs[target][f"r{serial:03d}"] = dirs[parent].pop(name)
        elif roll < 0.85:
            if rng.random() < 0.5:
                fs.chmod(rng.choice(sorted(dirs)), rng.choice(DIR_MODES))
            else:
                parent, name = rng.choice(files)
                fs.chmod(f"{parent}/{name}", rng.choice(FILE_MODES))
        elif roll < 0.92:
            if rng.random() < 0.5:
                fs.rekey(rng.choice(sorted(dirs)))
            else:
                parent, name = rng.choice(files)
                fs.rekey(f"{parent}/{name}")
        else:
            empty = [d for d, rows in dirs.items()
                     if not rows and d.count("/") == 2]
            if empty:
                victim = rng.choice(empty)
                fs.rmdir(victim)
                parent, name = victim.rsplit("/", 1)
                del dirs[victim], dirs[parent][name]
            else:
                parent = rng.choice(["/a", "/b"])
                serial += 1
                fs.mkdir(f"{parent}/d{serial:03d}",
                         mode=rng.choice(DIR_MODES))
                dirs[parent][f"d{serial:03d}"] = None
                dirs[f"{parent}/d{serial:03d}"] = {}
        split_seen += bool(_bases(fs.volume.server))
    return dirs, split_seen


def _observe(volume, dirs: dict) -> dict:
    """What each principal's fresh mount makes of every path: listing,
    content, mode and owner -- or the error it gets instead."""

    def attempt(call):
        try:
            return call()
        except FilesystemError as exc:
            return type(exc).__name__

    seen = {}
    for user_id in USER_NAMES:
        fs = _mount(volume, user_id)
        for parent, rows in sorted(dirs.items()):
            seen[user_id, parent] = attempt(lambda: fs.readdir(parent))
            for name, content in sorted(rows.items()):
                path = f"{parent}/{name}"
                seen[user_id, path, "stat"] = attempt(
                    lambda: fs.getattr(path))
                if content is not None:
                    seen[user_id, path] = attempt(
                        lambda: fs.read_file(path))
    return seen


@pytest.mark.parametrize("scheme", ["scheme1", "scheme2"])
def test_the_same_tree_at_every_page_size(registry, monkeypatch, scheme):
    runs = {}
    for page in (layout.TABLE_PAGE_BYTES, 256, 1 << 20):
        monkeypatch.setattr(layout, "TABLE_PAGE_BYTES", page)
        with pinned_entropy(0x7AB1E):
            volume = _volume(registry, scheme)
            dirs, split_seen = _play(_mount(volume, "alice"), seed=22)
        owner = _mount(volume, "alice")
        for parent, rows in dirs.items():
            assert owner.readdir(parent) == sorted(rows)
            for name, content in rows.items():
                if content is not None:
                    assert owner.read_file(f"{parent}/{name}") == content
        report = VolumeAuditor(volume).audit()
        assert report.clean and not report.orphaned_blobs, report.summary()
        runs[page] = (dirs, split_seen, _observe(volume, dirs))
    (dirs, default_splits, seen), (_, small_splits, small_seen), (
        _, large_splits, large_seen) = runs.values()
    assert large_splits == 0 < default_splits < small_splits
    assert seen == small_seen == large_seen


# -- part 2: every prefix of a fold ---------------------------------------------


def _fold_rig(registry, journal: bool):
    """A directory one create away from a fold, that create, and how
    many mutations it sends."""
    volume = _volume(registry)
    config = ClientConfig(journal=journal)
    owner = _mount(volume, "alice", config)
    owner.mkdir("/d", mode=0o751)
    names = []
    while True:
        before = _bases(volume.server)
        snapshot = volume.server.snapshot_blobs()
        counting = MutationTrigger(volume.server)
        _mount(volume, "alice", config, counting).mknod(
            f"/d/f{len(names)}", mode=0o644)
        if before and _bases(volume.server) not in ([], before):
            break  # that create folded generation g into g + 1
        names.append(f"f{len(names)}")
    volume.server.restore_blobs(snapshot)
    return volume, config, names, counting.mutations


def _every_view_loads(volume, names: list[str], new: str) -> set:
    """Each view of /d -- full (owner's, group's), hidden (world's) --
    loads and holds the old rows, with or without the new one (only the
    journal makes the views move together); returns the owner's names."""
    for user in ("alice", "bob"):
        listing = set(_mount(volume, user).readdir("/d"))
        assert listing in (set(names), set(names) | {new}), user
    carol = _mount(volume, "carol")
    for name in names:
        carol.getattr(f"/d/{name}")
    return set(_mount(volume, "alice").readdir("/d"))


@pytest.mark.parametrize("journal", [False, True], ids=["plain", "journal"])
def test_crash_at_every_sub_op_of_a_fold(registry, monkeypatch, journal):
    monkeypatch.setattr(layout, "TABLE_PAGE_BYTES", 256)
    volume, config, names, total = _fold_rig(registry, journal)
    server = volume.server
    snapshot = server.snapshot_blobs()
    new = f"f{len(names)}"
    # bases + heads + deletes of three views, besides the child's own
    # replicas (and the journal's two puts)
    assert total >= 9 + 3
    outcomes = []
    for k in range(1, total + 1):
        server.restore_blobs(snapshot)
        crasher = MutationTrigger(server, {k: crash})
        with pytest.raises(ClientCrashed):
            _mount(volume, "alice", config, crasher).mknod(
                f"/d/{new}", mode=0o644)
        # Before any recovery: every view is readable, and is the old
        # table or the new one.
        listing = _every_view_loads(volume, names, new)
        outcomes.append(new in listing)
        repair = VolumeAuditor(volume).repair()
        assert repair.audit.clean and not repair.audit.orphaned_blobs, (
            k, repair.audit.summary())
        inode = _mount(volume, "alice").getattr("/d").inode
        assert len(_bases(server, inode)) in (0, 3), k
        after = _every_view_loads(volume, names, new)
        assert after >= listing
        if journal and k > 1:
            assert new in after  # past the intent: rolled forward
    assert outcomes[0] is False and outcomes == sorted(outcomes)


# -- part 3: the unleased hazard, detected -------------------------------------


def test_unleased_writer_that_missed_a_fold_is_detected(registry,
                                                        monkeypatch):
    """Two writers, no leases, warm caches (docs/ROBUSTNESS.md): the one
    that missed the other's fold re-ships heads naming a base that is
    gone.  Unsplit, the other's rows would silently vanish; split, every
    reader is told."""
    from repro.errors import IntegrityError
    monkeypatch.setattr(layout, "TABLE_PAGE_BYTES", 256)
    volume = _volume(registry)
    first, second = _mount(volume, "alice"), _mount(volume, "alice")
    first.mkdir("/d", mode=0o755)
    first.mknod("/d/a0")
    second.mknod("/d/b0")  # loads, then caches, every view of /d
    stale = set(_bases(volume.server))
    assert stale
    made = 0
    while stale & set(_bases(volume.server)):
        made += 1
        first.mknod(f"/d/a{made}")  # ... until a fold deletes those bases
    second.mknod("/d/late")
    with pytest.raises(IntegrityError):
        _mount(volume, "bob").readdir("/d")
    report = VolumeAuditor(volume).audit()
    assert not report.clean and report.integrity_errors
