"""Crash-point matrix: kill a client at every mutation of every op.

For each filesystem mutation (create_file, mkdir, unlink, rmdir, rename,
link, symlink, pwrite/truncate writeback, and the owner's chmod, rekey,
set_acl and chown) the harness first counts how many SSP mutations
(puts + deletes) the journaled op issues, then sweeps
crash point k = 1..T: restore the volume to the pre-op checkpoint, run
the op over a :class:`~repro.storage.resilient.MutationTrigger` whose
:func:`~repro.storage.resilient.crash` action kills the client at the
k-th mutation, recover (a fresh client's ``mount()`` or
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

from ..errors import ClientCrashed, PermissionDenied
from ..fs.client import SharoesFilesystem
from ..fs.permissions import AclEntry
from ..storage.resilient import MutationTrigger, crash
from .fsck import VolumeAuditor
from .twin import BLOCK, Rig, Sweep, holds, path_exists, principals

#: recovery modes the matrix can exercise.
MOUNT = "mount"
FSCK = "fsck"


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


def build_cases(data: bytes, new: bytes,
                reader: Callable[[], SharoesFilesystem] | None = None
                ) -> list[CrashCase]:
    """The op suite: every mutation family the client exposes.

    ``data`` is the initial 3-block file content and ``new`` the pwrite
    payload; :class:`CrashMatrix` derives both from its seed.  The owner
    ops' oracles also ask whether bob can read the file: ``reader``
    mounts bob's client.
    """

    def bob_reads(path: str) -> bool:
        """Does bob read ``data`` at ``path`` (False: denied)?"""
        try:
            return reader().read_file(path) == data
        except PermissionDenied:
            return False

    def owner_case(name: str, mode: int, run, after, before) -> CrashCase:
        """An owner op on a fresh ``/d/o`` of ``mode``: applied when
        ``after`` holds of its stat and bob's read access, rolled back
        when ``before`` does -- and alice reads ``data`` either way."""
        def judge(expect):
            return lambda fs: (fs.read_file("/d/o") == data
                               and expect(fs.getattr("/d/o"),
                                          bob_reads("/d/o")))
        return CrashCase(
            name,
            prepare=lambda fs: fs.create_file("/d/o", data, mode=mode),
            run=run, applied=judge(after), rolled_back=judge(before))

    def pwrite_run(fs: SharoesFilesystem) -> None:
        with fs.open("/d/f", "rw") as handle:
            handle.pwrite(new, 100)

    def truncate_run(fs: SharoesFilesystem) -> None:
        with fs.open("/d/f", "rw") as handle:
            handle.truncate(60)

    pwritten = (data[:100] + new
                + data[100 + len(new):]).ljust(len(data), b"\x00")
    return [
        CrashCase(
            "create_file",
            prepare=lambda fs: None,
            run=lambda fs: fs.create_file("/d/new", data),
            applied=lambda fs: (path_exists(fs, "/d/new")
                                and fs.read_file("/d/new") == data),
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
            prepare=lambda fs: fs.create_file("/d/victim", data),
            run=lambda fs: fs.unlink("/d/victim"),
            applied=lambda fs: not path_exists(fs, "/d/victim"),
            rolled_back=lambda fs: (
                path_exists(fs, "/d/victim")
                and fs.read_file("/d/victim") == data)),
        CrashCase(
            "rmdir",
            prepare=lambda fs: fs.mkdir("/d/doomed"),
            run=lambda fs: fs.rmdir("/d/doomed"),
            applied=lambda fs: not path_exists(fs, "/d/doomed"),
            rolled_back=lambda fs: path_exists(fs, "/d/doomed")),
        CrashCase(
            "rename",
            prepare=lambda fs: fs.create_file("/d/old", data),
            run=lambda fs: fs.rename("/d/old", "/d/moved"),
            applied=lambda fs: (not path_exists(fs, "/d/old")
                                and fs.read_file("/d/moved") == data),
            rolled_back=lambda fs: (not path_exists(fs, "/d/moved")
                                    and fs.read_file("/d/old") == data)),
        CrashCase(
            "link",
            prepare=lambda fs: fs.create_file("/d/orig", data),
            run=lambda fs: fs.link("/d/orig", "/d/alias"),
            applied=lambda fs: (fs.read_file("/d/alias") == data
                                and fs.lstat("/d/orig").nlink == 2),
            rolled_back=lambda fs: (not path_exists(fs, "/d/alias")
                                    and fs.lstat("/d/orig").nlink == 1)),
        CrashCase(
            "symlink",
            prepare=lambda fs: fs.create_file("/d/target", data),
            run=lambda fs: fs.symlink("/d/target", "/d/ln"),
            applied=lambda fs: (fs.readlink("/d/ln") == "/d/target"
                                and fs.read_file("/d/ln") == data),
            rolled_back=lambda fs: not path_exists(fs, "/d/ln")),
        CrashCase(
            "writeback-pwrite",
            prepare=lambda fs: fs.create_file("/d/f", data),
            run=pwrite_run,
            applied=lambda fs: fs.read_file("/d/f") == pwritten,
            rolled_back=lambda fs: fs.read_file("/d/f") == data),
        CrashCase(
            "writeback-truncate",
            prepare=lambda fs: fs.create_file("/d/f", data),
            run=truncate_run,
            applied=lambda fs: fs.read_file("/d/f") == data[:60],
            rolled_back=lambda fs: fs.read_file("/d/f") == data),
        owner_case(
            "chmod-revoke", 0o640,
            run=lambda fs: fs.chmod("/d/o", 0o600),
            after=lambda st, bob: st.mode == 0o600 and not bob,
            before=lambda st, bob: st.mode == 0o640 and bob),
        owner_case(
            "chmod-grant", 0o600,
            run=lambda fs: fs.chmod("/d/o", 0o640),
            after=lambda st, bob: st.mode == 0o640 and bob,
            before=lambda st, bob: st.mode == 0o600 and not bob),
        owner_case(
            "rekey", 0o640,
            run=lambda fs: fs.rekey("/d/o"),
            after=lambda st, bob: st.version == 2 and bob,
            before=lambda st, bob: st.version == 1 and bob),
        owner_case(
            "set_acl", 0o600,
            run=lambda fs: fs.set_acl("/d/o", (AclEntry("bob", 0o4),)),
            after=lambda st, bob: st.version == 2 and bob,
            before=lambda st, bob: st.version == 1 and not bob),
        owner_case(
            "chown", 0o640,
            run=lambda fs: fs.chown("/d/o", "bob"),
            after=lambda st, bob: st.owner == "bob" and bob,
            before=lambda st, bob: st.owner == "alice" and bob),
    ]


class CrashMatrix(Sweep):
    """Every op of :func:`build_cases`, crashed at every mutation,
    recovered by a fresh mount or by ``fsck --repair``."""

    MODES = (MOUNT, FSCK)
    COLUMNS = (
        ("op", "<20", lambda o: o.op),
        ("recovery", "<8", lambda o: o.recovery),
        ("k", ">3", lambda o: o.crash_point),
        ("T", ">3", lambda o: o.total_points),
        ("outcome", "<12", lambda o: o.outcome),
        ("fsck", "<5", lambda o: "ok" if o.fsck_clean else "DIRTY"),
        ("orphans", ">7", lambda o: o.orphans),
    )
    RULE = 63
    NOUN = "crash points"

    def __init__(self, seed: int = 0):
        rng = random.Random(seed)
        data = bytes(rng.randrange(256) for _ in range(3 * BLOCK))
        new = bytes(rng.randrange(256) for _ in range(700))
        self.rig = Rig(principals(("alice", "bob")), journal=True,
                       cache_bytes=0)
        self.cases = build_cases(data, new,
                                 reader=lambda: self.rig.client("bob"))

    def count(self, case: CrashCase) -> int:
        """Prepare the op's state, then run it once uncrashed: that
        discovers T and proves the oracle accepts the op landing."""
        rig = self.rig
        rig.restore()
        case.prepare(rig.client("alice"))
        self._checkpoint = rig.snapshot()
        counter = MutationTrigger(rig.server)
        case.run(rig.client("alice", counter))
        if not holds(case.applied, rig.client("alice")):
            raise AssertionError(f"{case.name}: oracle rejects the "
                                 f"crash-free run")
        return counter.mutations

    def cell(self, case: CrashCase, recovery: str, k: int,
             total: int) -> CrashOutcome:
        rig = self.rig
        rig.restore(self._checkpoint)
        try:
            case.run(rig.client("alice",
                                MutationTrigger(rig.server, {k: crash})))
            raise AssertionError(
                f"{case.name}: no crash at k={k} (T={total})")
        except ClientCrashed:
            pass
        if recovery == FSCK:
            VolumeAuditor(rig.volume).repair()
        probe = rig.client("alice")  # mount() replays pending intents
        applied = holds(case.applied, probe)
        rolled_back = (not applied) and holds(case.rolled_back, probe)
        clean, orphans = rig.audit()
        outcome = ("applied" if applied
                   else "rolled_back" if rolled_back
                   else "INCONSISTENT")
        return CrashOutcome(
            op=case.name, crash_point=k, total_points=total,
            recovery=recovery, outcome=outcome,
            fsck_clean=clean, orphans=orphans)
