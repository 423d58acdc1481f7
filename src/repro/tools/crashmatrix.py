"""Crash-point matrix: kill a client at every mutation of every op.

For each filesystem mutation (create_file, mkdir, unlink, rmdir, rename,
link, symlink, pwrite/truncate writeback) the harness first counts how
many SSP mutations (puts + deletes) the journaled op issues, then sweeps
crash point k = 1..T: restore the volume to the pre-op checkpoint, run
the op against a :class:`~repro.storage.resilient.CrashingServer` that
dies at the k-th mutation, recover (a fresh client's ``mount()`` or
``fsck --repair``), and assert the crash-consistency contract:

* the op is **fully applied** or **fully rolled back** -- never half;
* the post-recovery volume is fsck-clean;
* no orphaned blobs remain.

With the write-ahead journal the expected shape is exact: the first
mutation of any journaled op is the intent append, so k = 1 rolls back
(nothing of the op ever reached the SSP) and every k >= 2 replays to
fully applied.  The harness asserts outcomes, it does not assume them.

Deterministic per seed: the seed fixes every file payload, and mutation
counts are structural (blob *counts*, not blob bytes), so CI reruns
with the same seed produce identical tables.  (RSA keygen draws from
``secrets`` -- key material varies, outcomes do not.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..crypto import rsa
from ..crypto.provider import CryptoProvider
from ..errors import ClientCrashed
from ..fs.client import ClientConfig, SharoesFilesystem
from ..fs.volume import SharoesVolume
from ..principals.groups import GroupKeyService
from ..principals.registry import PrincipalRegistry
from ..principals.users import User
from ..storage.resilient import CrashingServer
from ..storage.server import StorageServer
from .fsck import VolumeAuditor
from .twin import holds, path_exists

#: recovery modes the matrix can exercise.
MOUNT = "mount"
FSCK = "fsck"

_BLOCK = 256  # small blocks so writeback ops span several puts


@dataclass(frozen=True)
class CrashCase:
    """One mutation under test, with its oracle predicates."""

    name: str
    prepare: Callable[[SharoesFilesystem], None]
    run: Callable[[SharoesFilesystem], None]
    applied: Callable[[SharoesFilesystem], bool]
    rolled_back: Callable[[SharoesFilesystem], bool]


@dataclass
class CrashOutcome:
    """One cell of the matrix: op x crash point under one recovery."""

    op: str
    crash_point: int
    total_points: int
    recovery: str  # "mount" | "fsck"
    outcome: str  # "applied" | "rolled_back" | the failure description
    fsck_clean: bool
    orphans: int

    @property
    def consistent(self) -> bool:
        return (self.outcome in ("applied", "rolled_back")
                and self.fsck_clean and self.orphans == 0)


def build_cases(data: bytes | None = None,
                new: bytes | None = None) -> list[CrashCase]:
    """The op suite: every mutation family the client exposes.

    ``data`` (initial 3-block file content) and ``new`` (the pwrite
    payload) default to fixed patterns; :class:`CrashMatrix` derives
    them from its seed.
    """
    _DATA = data if data is not None else bytes(range(256)) * 3
    _NEW = new if new is not None else b"\xAA" * 700

    def pwrite_run(fs: SharoesFilesystem) -> None:
        with fs.open("/d/f", "rw") as handle:
            handle.pwrite(_NEW, 100)

    def truncate_run(fs: SharoesFilesystem) -> None:
        with fs.open("/d/f", "rw") as handle:
            handle.truncate(60)

    pwritten = (_DATA[:100] + _NEW
                + _DATA[100 + len(_NEW):]).ljust(len(_DATA), b"\x00")
    return [
        CrashCase(
            "create_file",
            prepare=lambda fs: None,
            run=lambda fs: fs.create_file("/d/new", _DATA),
            applied=lambda fs: (path_exists(fs, "/d/new")
                                and fs.read_file("/d/new") == _DATA),
            rolled_back=lambda fs: not path_exists(fs, "/d/new")),
        CrashCase(
            "mkdir",
            prepare=lambda fs: None,
            run=lambda fs: fs.mkdir("/d/sub"),
            applied=lambda fs: (path_exists(fs, "/d/sub")
                                and fs.readdir("/d/sub") == []),
            rolled_back=lambda fs: not path_exists(fs, "/d/sub")),
        CrashCase(
            "unlink",
            prepare=lambda fs: fs.create_file("/d/victim", _DATA),
            run=lambda fs: fs.unlink("/d/victim"),
            applied=lambda fs: not path_exists(fs, "/d/victim"),
            rolled_back=lambda fs: (
                path_exists(fs, "/d/victim")
                and fs.read_file("/d/victim") == _DATA)),
        CrashCase(
            "rmdir",
            prepare=lambda fs: fs.mkdir("/d/doomed"),
            run=lambda fs: fs.rmdir("/d/doomed"),
            applied=lambda fs: not path_exists(fs, "/d/doomed"),
            rolled_back=lambda fs: path_exists(fs, "/d/doomed")),
        CrashCase(
            "rename",
            prepare=lambda fs: fs.create_file("/d/old", _DATA),
            run=lambda fs: fs.rename("/d/old", "/d/moved"),
            applied=lambda fs: (not path_exists(fs, "/d/old")
                                and fs.read_file("/d/moved") == _DATA),
            rolled_back=lambda fs: (not path_exists(fs, "/d/moved")
                                    and fs.read_file("/d/old") == _DATA)),
        CrashCase(
            "link",
            prepare=lambda fs: fs.create_file("/d/orig", _DATA),
            run=lambda fs: fs.link("/d/orig", "/d/alias"),
            applied=lambda fs: (fs.read_file("/d/alias") == _DATA
                                and fs.lstat("/d/orig").nlink == 2),
            rolled_back=lambda fs: (not path_exists(fs, "/d/alias")
                                    and fs.lstat("/d/orig").nlink == 1)),
        CrashCase(
            "symlink",
            prepare=lambda fs: fs.create_file("/d/target", _DATA),
            run=lambda fs: fs.symlink("/d/target", "/d/ln"),
            applied=lambda fs: (fs.readlink("/d/ln") == "/d/target"
                                and fs.read_file("/d/ln") == _DATA),
            rolled_back=lambda fs: not path_exists(fs, "/d/ln")),
        CrashCase(
            "writeback-pwrite",
            prepare=lambda fs: fs.create_file("/d/f", _DATA),
            run=pwrite_run,
            applied=lambda fs: fs.read_file("/d/f") == pwritten,
            rolled_back=lambda fs: fs.read_file("/d/f") == _DATA),
        CrashCase(
            "writeback-truncate",
            prepare=lambda fs: fs.create_file("/d/f", _DATA),
            run=truncate_run,
            applied=lambda fs: fs.read_file("/d/f") == _DATA[:60],
            rolled_back=lambda fs: fs.read_file("/d/f") == _DATA),
    ]


class CrashMatrix:
    """A tiny enterprise wired for snapshot/restore crash sweeps."""

    def __init__(self, seed: int = 0, key_bits: int = 512):
        rng = random.Random(seed)
        self.data = bytes(rng.randrange(256) for _ in range(3 * _BLOCK))
        self.new = bytes(rng.randrange(256) for _ in range(700))
        self.registry = PrincipalRegistry()
        for name in ("alice", "bob"):
            self.registry.add_user(User(
                user_id=name,
                keypair=rsa.generate_keypair(key_bits)))
        self.registry.create_group("eng", {"alice", "bob"},
                                   key_bits=key_bits)
        self.server = StorageServer()
        self.volume = SharoesVolume(self.server, self.registry,
                                    block_size=_BLOCK)
        self.volume.format(root_owner="alice", root_group="eng")
        GroupKeyService(self.registry, self.server,
                        CryptoProvider()).publish_all()
        base = self.client()
        base.mkdir("/d")
        self._base_blobs = self.server.snapshot_blobs()
        self._base_next = self.volume.allocator._next

    def client(self, server=None) -> SharoesFilesystem:
        fs = SharoesFilesystem(
            self.volume, self.registry.user("alice"),
            config=ClientConfig(journal=True, cache_bytes=0),
            server=server)
        fs.mount()
        return fs

    def _restore(self, blobs, next_inode: int) -> None:
        self.server.restore_blobs(blobs)
        self.volume.allocator._next = next_inode

    def _audit(self) -> tuple[bool, int]:
        report = VolumeAuditor(self.volume).audit()
        return report.clean, len(report.orphaned_blobs)

    def run_case(self, case: CrashCase,
                 recovery: str = MOUNT) -> list[CrashOutcome]:
        """Sweep every crash point of one op under one recovery mode."""
        self._restore(self._base_blobs, self._base_next)
        case.prepare(self.client())
        checkpoint = self.server.snapshot_blobs()
        next_inode = self.volume.allocator._next

        # Counting run: discover T, and prove the op lands when nothing
        # crashes (the oracle itself is exercised here).
        counter = CrashingServer(self.server)
        case.run(self.client(server=counter))
        total = counter.mutations
        if not holds(case.applied, self.client()):
            raise AssertionError(f"{case.name}: oracle rejects the "
                                 f"crash-free run")

        outcomes = []
        for k in range(1, total + 1):
            self._restore(checkpoint, next_inode)
            crasher = CrashingServer(self.server, crash_after=k)
            try:
                case.run(self.client(server=crasher))
                raise AssertionError(
                    f"{case.name}: no crash at k={k} (T={total})")
            except ClientCrashed:
                pass
            if recovery == FSCK:
                VolumeAuditor(self.volume).repair()
            probe = self.client()  # mount() replays pending intents
            applied = holds(case.applied, probe)
            rolled_back = (not applied) and holds(case.rolled_back, probe)
            clean, orphans = self._audit()
            outcome = ("applied" if applied
                       else "rolled_back" if rolled_back
                       else "INCONSISTENT")
            outcomes.append(CrashOutcome(
                op=case.name, crash_point=k, total_points=total,
                recovery=recovery, outcome=outcome,
                fsck_clean=clean, orphans=orphans))
        return outcomes

    def run(self, recoveries: tuple[str, ...] = (MOUNT, FSCK),
            cases: list[CrashCase] | None = None) -> list[CrashOutcome]:
        results = []
        for case in cases or build_cases(self.data, self.new):
            for recovery in recoveries:
                results.extend(self.run_case(case, recovery))
        return results


def outcomes_table(outcomes: list[CrashOutcome]) -> str:
    """Render the recovery-outcomes table (the CI artifact)."""
    lines = [f"{'op':<20} {'recovery':<8} {'k':>3} {'T':>3} "
             f"{'outcome':<12} {'fsck':<5} {'orphans':>7}",
             "-" * 63]
    for o in outcomes:
        lines.append(
            f"{o.op:<20} {o.recovery:<8} {o.crash_point:>3} "
            f"{o.total_points:>3} {o.outcome:<12} "
            f"{'ok' if o.fsck_clean else 'DIRTY':<5} {o.orphans:>7}")
    bad = sum(1 for o in outcomes if not o.consistent)
    lines.append("-" * 63)
    lines.append(f"{len(outcomes)} crash points, "
                 f"{bad} inconsistent")
    return "\n".join(lines)
