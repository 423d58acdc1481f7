"""Failure-coherence sweep: the cache never runs ahead of the SSP.

docs/CACHING.md's one failure rule says what a mutation wrote through
to the cache is trusted only if the mutation returns, and that staged
writes a failed flush dropped are forgotten with it.  This suite makes
the SSP refuse every mutation from the k-th on, for every k of every
mutating op under every way the client routes writes (direct, journaled,
journaled + leased, write-behind) and both policies of the cache front,
and then requires the *same* client -- no unmount, no ``cache.clear()``
-- to see exactly what a cold mount sees.

The cold mount is the same principal's, on a default config: it runs no
journal recovery, so the SSP state is judged as it lies, and it reads
the same CAP replicas and table views as the client under test.  (A
different group member reads *other* views of the same tables, which a
refused multi-view write legitimately leaves out of step at the SSP --
that is the journal's business, not the cache's.)  Wherever the SSP is
whole again the other member is compared too: when the op completed or
was refused whole, and -- for the journaled configs, with fsck -- after
the *next* mutation in the same directory has replayed the pending
intent behind whatever the client read in between.
"""

from __future__ import annotations

import copy

import pytest

from repro.crypto.provider import CryptoProvider
from repro.errors import SharoesError, StorageError, TransientStorageError
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.permissions import AclEntry
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.principals.registry import PrincipalRegistry
from repro.principals.users import User
from repro.sim.clock import SimClock
from repro.storage.resilient import ServerWrapper
from repro.storage.server import MUTATION_KINDS, StorageServer
from repro.tools.fsck import VolumeAuditor
from repro.tools.twin import visible_tree

_BLOCK = 256
OLD = b"old contents " * 40          # three blocks
NEW = b"new contents, longer " * 40  # four blocks


class RefusingServer(ServerWrapper):
    """Refuses every mutation from the ``fail_from``-th on, until healed.

    Counts ``MUTATION_KINDS`` like the crash and pause injectors, so a
    counting run (``fail_from=None``) says how many k an op has.  Sub-ops
    of a batch arrive through the same hook (``ServerWrapper.batch``):
    the frame stops at the refused one and the tail is unattempted.
    """

    def __init__(self, inner):
        super().__init__(inner, name="refusing")
        self.arm(None)

    def arm(self, fail_from: int | None) -> None:
        self.fail_from = fail_from
        self.mutations = 0

    def heal(self) -> None:
        self.fail_from = None

    def _forward(self, op):
        if op.kind in MUTATION_KINDS:
            self.mutations += 1
            if (self.fail_from is not None
                    and self.mutations >= self.fail_from):
                raise TransientStorageError(
                    f"refused mutation {self.mutations} ({op.kind} "
                    f"{op.blob_id})")
        return op.call(self.inner)


CONFIGS = {
    "default": {},
    "journal": dict(journal=True),
    "leased": dict(journal=True, lease=True),
    "write_behind": dict(concurrency=8),
    # both policies of the cache front
    "strict_mdcache": dict(mdcache=False),
    "no_data_cache": dict(data_cache=False),
}

OPS = {
    "create_file": lambda fs: fs.create_file("/d/new", NEW, mode=0o664),
    "write_file": lambda fs: fs.write_file("/d/f", NEW),
    "append_file": lambda fs: fs.append_file("/d/f", b"+tail" * 60),
    "mkdir": lambda fs: fs.mkdir("/d/sub", mode=0o775),
    "unlink": lambda fs: fs.unlink("/d/f"),
    "rmdir": lambda fs: fs.rmdir("/d/empty"),
    "rename": lambda fs: fs.rename("/d/f", "/d/g"),
    # o-r: a revocation, so the blocks are re-keyed and re-sent
    "chmod": lambda fs: fs.chmod("/d/f", 0o660),
    "set_acl": lambda fs: fs.set_acl("/d/f", (AclEntry("carol", 0o4),)),
}


@pytest.fixture(scope="module")
def seeded(session_keypairs) -> SharoesVolume:
    """The volume every cell starts from a private copy of (key
    generation for its five objects would otherwise dominate the
    sweep): alice+bob in group eng, everything group-writable."""
    registry = PrincipalRegistry()
    for name, keypair in session_keypairs.items():
        registry.add_user(User(user_id=name, keypair=keypair))
    registry.create_group("eng", {"alice", "bob"}, key_bits=512)
    volume = SharoesVolume(StorageServer(), registry, block_size=_BLOCK,
                           clock=SimClock())
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, volume.server,
                    CryptoProvider()).publish_all()
    fs = SharoesFilesystem(volume, registry.user("alice"))
    fs.mount()
    fs.mkdir("/d", mode=0o775)
    fs.create_file("/d/f", OLD, mode=0o664)
    fs.create_file("/d/other", b"bystander", mode=0o664)
    fs.mkdir("/d/empty", mode=0o775)
    return volume


class Stack:
    """A copy of the seeded volume, and alice's warm client on it behind
    a ``RefusingServer``."""

    def __init__(self, seeded: SharoesVolume, config: dict,
                 fail_from: int | None = None):
        self.volume = copy.deepcopy(seeded)
        self.refusing = RefusingServer(self.volume.server)
        self.fs = SharoesFilesystem(
            self.volume, self.volume.registry.user("alice"),
            config=ClientConfig(**config), server=self.refusing)
        self.fs.mount()
        visible_tree(self.fs)  # every view, table, listing, block: warm
        self.refusing.arm(fail_from)

    def run(self, op) -> bool:
        """The op, then the barrier, against the refusing SSP; then the
        SSP heals and the barrier is crossed for real.  True when both
        completed (the views must agree either way)."""
        completed = True
        for step in (lambda: op(self.fs), self.fs.flush_staged):
            try:
                step()
            except SharoesError:
                completed = False
        self.refusing.heal()
        try:
            self.fs.flush_staged()
        except StorageError:
            pass
        return completed

    def fresh(self, user_id: str = "alice") -> SharoesFilesystem:
        """A cold mount: no cache, no journal recovery."""
        fs = SharoesFilesystem(self.volume,
                               self.volume.registry.user(user_id))
        fs.mount()
        return fs


def seen(fs: SharoesFilesystem):
    """What an application sees; a refusal is recorded as its shape."""
    try:
        return visible_tree(fs)
    except SharoesError as exc:
        return type(exc).__name__


def _mutation_count(seeded, config: dict, op) -> int:
    stack = Stack(seeded, config)
    op(stack.fs)
    stack.fs.flush_staged()
    return stack.refusing.mutations


@pytest.mark.parametrize("op_name", OPS)
@pytest.mark.parametrize("config_name", CONFIGS)
def test_same_client_sees_what_a_fresh_mount_sees(seeded, config_name,
                                                  op_name):
    config, op = CONFIGS[config_name], OPS[op_name]
    points = _mutation_count(seeded, config, op)
    assert points >= 2, "every swept op is a multi-blob mutation"
    for k in range(1, points + 1):
        cell = (f"{config_name}/{op_name}: SSP refused mutations from "
                f"#{k} of {points}")
        stack = Stack(seeded, config, fail_from=k)
        completed = stack.run(op)
        # These reads re-cache whatever the failure left at the SSP.
        view = seen(stack.fs)
        assert view == seen(stack.fresh()), (
            f"{cell}; the client's cache disagrees with the store")
        if completed or k == 1:  # k == 1: nothing at all was accepted
            assert view == seen(stack.fresh("bob")), (
                f"{cell}; whole at the SSP, yet a group member disagrees")
        # The next mutation in the same directory: with a journal it
        # first replays the pending intent, rewriting blobs *behind*
        # what was just read.
        journaled = config.get("journal", False)
        try:
            stack.fs.create_file("/d/later", b"later", mode=0o664)
            stack.fs.flush_staged()
        except SharoesError:
            assert not journaled, f"{cell}; the replay did not heal it"
        view = seen(stack.fs)
        assert view == seen(stack.fresh()), (
            f"{cell}; after the next mutation the cache disagrees")
        if journaled:
            assert view == seen(stack.fresh("bob")), (
                f"{cell}; rolled forward, yet a group member disagrees")
            report = VolumeAuditor(stack.volume).audit()
            assert report.clean and not (report.orphaned_blobs
                                         or report.pending_intents), (
                f"{cell}; {report.summary()}")


@pytest.mark.parametrize("op_name", OPS)
def test_no_mutation_builds_on_a_degraded_read(seeded, op_name):
    """The read side of the same rule.  A retrying transport serves a
    failed ``get`` from its last-known-good copy; a mutation that edited
    and re-uploaded such a copy would erase whatever another client wrote
    since (a row of the table, a record of the file).  Each op either is
    refused or never needed the stale bytes -- bob's work survives it,
    and the client still sees what a fresh mount sees."""
    from repro.storage.resilient import RetryPolicy
    from tests.test_resilient import DarkGets
    volume = copy.deepcopy(seeded)
    # Dark: every get of a table view or a data block fails.
    gate = DarkGets(volume.server, lambda blob_id: blob_id.kind == "data")
    fs = SharoesFilesystem(
        volume, volume.registry.user("alice"), server=gate,
        config=ClientConfig(cache_bytes=0, retry_policy=RetryPolicy(
            max_attempts=2, base_delay_s=0.0, breaker_threshold=10**9)))
    fs.mount()
    # The transport's fallback holds every blob this client has read
    # -- or written: a create re-ships every view of /d.
    visible_tree(fs)
    fs.mknod("/d/mine", mode=0o664)
    bob = SharoesFilesystem(volume, volume.registry.user("bob"))
    bob.mount()
    bob.create_file("/d/theirs", b"theirs", mode=0o664)
    bob.append_file("/d/f", b"+bob")
    gate.dark = True
    try:
        OPS[op_name](fs)
    except SharoesError:
        pass
    gate.dark = False
    fresh = SharoesFilesystem(volume, volume.registry.user("alice"))
    fresh.mount()
    listing = fresh.readdir("/d")
    assert "theirs" in listing, f"{op_name} erased bob's row"
    survivor = next((n for n in ("f", "g") if n in listing), None)
    if survivor and op_name != "write_file":
        assert fresh.read_file(f"/d/{survivor}") == OLD + b"+bob", (
            f"{op_name} erased bob's record")
    assert seen(fs) == seen(fresh)


def test_refused_write_is_not_readable(seeded):
    """A ``write_file`` the SSP refused must not be served from the
    block cache it was written through to."""
    stack = Stack(seeded, {}, fail_from=1)
    with pytest.raises(TransientStorageError):
        stack.fs.write_file("/d/f", NEW)
    stack.refusing.heal()
    assert stack.fresh("bob").read_file("/d/f") == OLD
    assert stack.fs.read_file("/d/f") == OLD


def test_journaled_create_that_rolled_back_is_not_listed(seeded):
    """The intent append failed, so no blob of the op was sent: the
    client's own listing and stat must roll back with it."""
    stack = Stack(seeded, dict(journal=True), fail_from=1)
    with pytest.raises(TransientStorageError):
        stack.fs.create_file("/d/new", NEW, mode=0o664)
    stack.refusing.heal()
    assert "new" not in stack.fresh("bob").readdir("/d")
    assert "new" not in stack.fs.readdir("/d")
    with pytest.raises(SharoesError):
        stack.fs.getattr("/d/new")


def test_write_dropped_by_a_later_ops_flush_is_forgotten(seeded):
    """Write-behind: a staged write returns before it ships.  When a
    *later* op's flush fails, the queue is dropped with the earlier
    write in it -- no error names that write, so the client must stop
    serving its bytes."""
    stack = Stack(seeded, dict(concurrency=8))
    fs = stack.fs
    fs.write_file("/d/other", b"staged, never shipped")
    assert fs.scheduler.queue_depth > 0  # returned with the write queued
    stack.refusing.arm(1)
    with pytest.raises(StorageError):
        # replicas + table views + blocks fill the window: autoflush fails
        fs.create_file("/d/new", NEW, mode=0o664)
    stack.refusing.heal()
    assert fs.flush_staged() == 0  # nothing left to report the loss
    fresh = stack.fresh("bob")
    assert fresh.read_file("/d/other") == b"bystander"
    assert fs.read_file("/d/other") == b"bystander"
    assert seen(fs) == seen(fresh)
