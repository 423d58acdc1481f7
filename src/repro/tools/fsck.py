"""Volume audit (fsck for the outsourced filesystem).

Runs inside the enterprise trust domain: mounts the volume as every
registered user, walks everything reachable, verifies every signature and
MAC along the way, and cross-references the SSP's blob census to find
unreferenced (orphaned) blobs.

What it detects:

* corrupted / tampered metadata, tables and data blocks (signature or
  MAC failures anywhere in any user's reachable tree);
* broken pointer structure (rows naming replicas that do not exist);
* SSP rollbacks of objects visited twice (via the client's freshness
  monitor);
* orphaned blobs -- storage the SSP bills for that no user can reach
  (e.g. left over from interrupted deletes), including metadata replicas
  and table views of a live object that its attributes no longer call
  for (the replica census, ``fs/layout.replica_ids``) and a live file's
  blocks at or past the count its block 0 carries;
* pending or forged write-ahead intents in per-user journals (clients
  that died mid-mutation; SSP-injected journal bytes).

With ``repair()`` it also *fixes* what it safely can: verified pending
intents are rolled forward (their staged blobs applied, the journal
truncated), unverifiable journals are quarantined, and orphaned blobs
are reclaimed -- see ``docs/ROBUSTNESS.md`` for the exact contract.

What it cannot detect, by design: a consistent, validly-signed *old*
state served uniformly on first contact (SUNDR's fork-consistency gap,
which the paper cites as complementary work).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.provider import CryptoProvider
from ..errors import (BlobNotFound, FilesystemError, IntegrityError,
                      PermissionDenied, SharoesError, StorageError)
from ..fs import journal, layout
from ..fs.client import SharoesFilesystem
from ..fs.metadata import MetadataAttrs
from ..fs.tableio import load_table
from ..fs.volume import SharoesVolume
from ..storage.blobs import BlobId, block_index, journal_blob
from ..storage.resilient import ServerWrapper
from ..storage.server import MUTATION_KINDS, BatchOp


@dataclass
class AuditReport:
    """Outcome of one volume audit."""

    users_mounted: int = 0
    objects_visited: int = 0
    files_verified: int = 0
    directories_verified: int = 0
    symlinks_verified: int = 0
    integrity_errors: list[str] = field(default_factory=list)
    structural_errors: list[str] = field(default_factory=list)
    orphaned_blobs: list[str] = field(default_factory=list)
    unreachable_users: list[str] = field(default_factory=list)
    #: verified write-ahead intents awaiting replay ("user op#seq").
    pending_intents: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.integrity_errors or self.structural_errors)

    def summary(self) -> str:
        status = "CLEAN" if self.clean else "ERRORS FOUND"
        return (f"fsck: {status} -- {self.objects_visited} objects via "
                f"{self.users_mounted} users "
                f"({self.files_verified} files, "
                f"{self.directories_verified} dirs, "
                f"{self.symlinks_verified} symlinks); "
                f"{len(self.integrity_errors)} integrity, "
                f"{len(self.structural_errors)} structural, "
                f"{len(self.orphaned_blobs)} orphaned blobs, "
                f"{len(self.pending_intents)} pending intents")


@dataclass
class RepairReport:
    """Outcome of one ``fsck --repair`` pass."""

    #: verified intents rolled forward ("user op#seq"), in apply order.
    completed_intents: list[str] = field(default_factory=list)
    #: journal blobs that failed MAC or slot-context verification and were
    #: quarantined (deleted) without replaying anything.
    rejected_journals: list[str] = field(default_factory=list)
    #: orphaned blobs reclaimed from the SSP.
    reclaimed_blobs: list[str] = field(default_factory=list)
    #: leases of rolled-forward clients broken ("inode N: advanced past
    #: epoch E (holder u)") -- the fencing epochs repair moved past.
    advanced_epochs: list[str] = field(default_factory=list)
    #: the post-repair audit, proving the volume converged.
    audit: AuditReport | None = None

    def summary(self) -> str:
        status = ("CLEAN" if self.audit is not None and self.audit.clean
                  and not self.audit.orphaned_blobs else "NOT CONVERGED")
        return (f"fsck --repair: {status} -- "
                f"{len(self.completed_intents)} intents completed, "
                f"{len(self.rejected_journals)} journals rejected, "
                f"{len(self.reclaimed_blobs)} blobs reclaimed, "
                f"{len(self.advanced_epochs)} lease epochs advanced")


class _RecordingServer(ServerWrapper):
    """Read-only pass-through recording every blob id touched.

    One hook covers the named methods and every sub-op of a batch, so a
    fenced put or a batched delete is refused like a plain one and a
    batched read is recorded like a single get.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.touched: set[BlobId] = set()

    def _forward(self, op: BatchOp):
        if op.kind in MUTATION_KINDS:
            raise SharoesError(
                f"fsck is read-only; {op.kind} of {op.blob_id} attempted")
        self.touched.add(op.blob_id)
        return op.call(self.inner)


class VolumeAuditor:
    """Walks and verifies a SHAROES volume as every registered user."""

    def __init__(self, volume: SharoesVolume):
        self.volume = volume

    def _exchange(self, _label: str, ops) -> list:
        """fsck's frame channel to the volume's SSP (for the journal)."""
        return self.volume.server.batch(ops)

    def audit(self, check_orphans: bool = True) -> AuditReport:
        report = AuditReport()
        recorder = _RecordingServer(self.volume.server)
        #: inode -> attributes, as the first user to reach it saw them
        visited_inodes: dict[int, MetadataAttrs] = {}
        #: directory inode -> selector -> the base generation that view's
        #: head names (see ``_head_generations``)
        base_gens: dict[int, dict[str, int]] = {}
        #: file/symlink inode -> the block count its block 0 carries
        counts: dict[int, int] = {}

        for user in self.volume.registry.users():
            # The client's ``server=`` seam puts the read-only recorder
            # under this mount; scheme, allocator and registry stay the
            # volume's own.
            fs = SharoesFilesystem(self.volume, user, server=recorder)
            try:
                fs.mount()
            except Exception:
                report.unreachable_users.append(user.user_id)
                continue
            report.users_mounted += 1
            self._walk(fs, "/", report, visited_inodes, base_gens, counts)

        report.objects_visited = len(visited_inodes)
        self._check_journals(report)
        self._check_leases(report)
        if check_orphans:
            self._find_orphans(recorder, report, visited_inodes, base_gens,
                               counts)
        return report

    # -- journals ----------------------------------------------------------------

    def _check_journals(self, report: AuditReport) -> None:
        """Verify every user's write-ahead journal (see fs/journal.py).

        fsck runs inside the enterprise trust domain, so it holds the
        registry's private keys and can open (and later replay) any
        user's journal.  A journal that fails verification is an
        integrity error: either corruption or SSP-forged intents.
        """
        for user in self.volume.registry.users():
            try:
                records = journal.pending(self._exchange, CryptoProvider(),
                                          user)
            except IntegrityError as exc:
                report.integrity_errors.append(
                    f"journal[{user.user_id}]: {exc}")
                continue
            except StorageError:
                continue
            for record in records:
                report.pending_intents.append(
                    f"{user.user_id} {record.op}#{record.seq}")

    # -- leases ------------------------------------------------------------------

    def _lease_blobs(self):
        """Every (blob id, raw bytes) lease pair in the SSP census."""
        from ..storage.blobs import LEASE
        try:
            all_ids = list(self.volume.server.raw_blobs())
        except StorageError:
            return
        for blob_id in sorted(all_ids):
            if blob_id.kind != LEASE:
                continue
            try:
                yield blob_id, self.volume.server.get(blob_id)
            except (BlobNotFound, StorageError):
                continue

    def _check_leases(self, report: AuditReport) -> None:
        """Verify every lease blob: structure, signature, known holder.

        The SSP cannot forge a lease (no user signature key), so a bad
        signature here is tampering; an unknown holder is either
        tampering or a stale registry.
        """
        from ..fs.lease import LeaseRecord
        for blob_id, raw in self._lease_blobs():
            try:
                LeaseRecord.from_bytes(raw, blob_id.inode).verify(
                    self.volume.registry.directory)
            except (IntegrityError, SharoesError) as exc:
                report.integrity_errors.append(f"{blob_id}: {exc}")

    def _break_leases(self, holder: str, report: RepairReport) -> None:
        """Release a rolled-forward client's unreleased leases.

        Shares the takeover contract (journal first, epoch second): only
        called after ``roll_forward`` drained the holder's journal, it
        writes a *released* successor record under the holder's escrowed
        USK so live clients can re-acquire without waiting out the
        expiry.  Losing the CAS is benign -- someone already advanced
        the chain past the epoch we were about to break.
        """
        from ..fs.lease import LeaseRecord, break_record
        from ..errors import CasConflictError
        for blob_id, raw in self._lease_blobs():
            try:
                record = LeaseRecord.from_bytes(raw, blob_id.inode)
            except IntegrityError:
                continue  # audit reports it; nothing safe to advance
            if record.holder != holder or record.released:
                continue
            broken = break_record(
                record, self.volume.registry.user(holder))
            try:
                self.volume.server.put_if(blob_id, broken.to_bytes(),
                                          expected=raw)
            except CasConflictError:
                continue
            report.advanced_epochs.append(
                f"inode {record.inode}: advanced past epoch "
                f"{record.epoch} (holder {holder})")

    # -- repair ------------------------------------------------------------------

    def repair(self) -> RepairReport:
        """Converge the volume: roll intents forward, reclaim orphans.

        Three passes, in an order that matters:

        1. **Complete stale intents.**  Every verified pending intent is
           rolled *forward* -- its staged calls carry the exact sealed
           payloads the dead client would have sent, and replay is
           idempotent, so completion is always safe.  (Roll-*back* is
           not offered: an intent found in the journal proves the
           journal put succeeded, i.e. the client was past the point of
           no return; undoing blobs it may have applied could clobber a
           concurrent writer.)  A journal that fails verification is
           quarantined unreplayed: its intents are untrusted bytes.
           Rolled-forward clients' unreleased leases are then broken
           (released record, epoch advanced) so live clients need not
           wait out the expiry -- the lease-takeover contract, journal
           first, epoch second.
        2. **Reclaim orphans.**  With intents completed, anything still
           unreachable really is garbage from interrupted deletes (or
           rolled-back creates); it is deleted from the SSP.
        3. **Re-audit** to prove convergence; the result rides on the
           returned report.
        """
        report = RepairReport()
        server = self.volume.server
        provider = CryptoProvider()
        for user in self.volume.registry.users():
            try:
                # The one replayer (fs/journal.roll_forward): verify,
                # then one fenced frame per record.
                records = journal.roll_forward(self._exchange, provider,
                                               user)
            except IntegrityError:
                server.delete(journal_blob(user.user_id))
                report.rejected_journals.append(user.user_id)
                continue
            except StorageError:
                continue
            if not records:
                continue
            for record in records:
                report.completed_intents.append(
                    f"{user.user_id} {record.op}#{record.seq}")
            self._break_leases(user.user_id, report)
        audit = self.audit()
        for name in audit.orphaned_blobs:
            kind, inode, selector = name.split("/", 2)
            server.delete(BlobId(kind, int(inode), selector))
            report.reclaimed_blobs.append(name)
        if report.reclaimed_blobs:
            audit = self.audit()
        report.audit = audit
        return report

    # -- traversal --------------------------------------------------------------

    def _walk(self, fs: SharoesFilesystem, path: str,
              report: AuditReport,
              visited: dict[int, MetadataAttrs],
              base_gens: dict[int, dict[str, int]],
              counts: dict[int, int]) -> None:
        try:
            # lstat, but keeping the ACL: the census needs it.
            node = fs._resolve(path, follow_last=False)
        except (PermissionDenied, FilesystemError):
            return
        except IntegrityError as exc:
            report.integrity_errors.append(f"{path}: {exc}")
            return
        attrs = node.attrs
        first_visit = attrs.inode not in visited
        visited.setdefault(attrs.inode, attrs)

        if attrs.ftype == "dir":
            try:
                if node.view.table_deks and attrs.inode not in base_gens:
                    base_gens[attrs.inode] = self._head_generations(fs,
                                                                    node)
                names = fs.readdir(path)
            except PermissionDenied:
                return  # legitimately unlistable for this user
            except IntegrityError as exc:
                report.integrity_errors.append(f"{path}: {exc}")
                return
            if first_visit:
                report.directories_verified += 1
            for name in names:
                child = path.rstrip("/") + "/" + name
                try:
                    self._walk(fs, child, report, visited, base_gens,
                               counts)
                except IntegrityError as exc:
                    report.integrity_errors.append(f"{child}: {exc}")
                except SharoesError as exc:
                    report.structural_errors.append(f"{child}: {exc}")
        elif attrs.ftype == "symlink":
            if first_visit:
                report.symlinks_verified += 1
            try:
                fs.readlink(path)
            except IntegrityError as exc:
                report.integrity_errors.append(f"{path}: {exc}")
        else:
            try:
                fs.read_file(path)
                if first_visit:
                    report.files_verified += 1
            except PermissionDenied:
                pass  # this user cannot read it; another may
            except IntegrityError as exc:
                report.integrity_errors.append(f"{path}: {exc}")
        if attrs.ftype != "dir":
            # The read loaded block 0 (``load_blocks`` remembers the
            # count it carries) unless this user could not read it.
            count = fs.mdcache.block_count(attrs.inode)
            if count is not None:
                counts[attrs.inode] = count

    def _head_generations(self, fs: SharoesFilesystem,
                          node) -> dict[str, int]:
        """Load every table view of a directory -- this user's replica
        carries all the table keys (the owner's does, and a writer's) --
        and return the base generation each one's head names.  All the
        same but for a fold that died between its heads; only with every
        head seen can a stored base be told from an orphan."""
        view = node.view
        return {selector: load_table(
                    fs, node.inode, selector, view.table_deks[selector],
                    view.require_dvk()).base_gen
                for selector in layout.table_views(self.volume.scheme,
                                                   node.attrs)}

    # -- orphan census -------------------------------------------------------------

    def _find_orphans(self, recorder: _RecordingServer,
                      report: AuditReport,
                      visited_inodes: dict[int, MetadataAttrs],
                      base_gens: dict[int, dict[str, int]],
                      counts: dict[int, int]) -> None:
        """Blobs belonging to no reachable inode, plus replicas of a
        reachable inode that its attributes do not call for, plus the
        blocks of a read file or symlink at or past its block count.

        Reachability is inode-granular: an exec-only directory's hidden
        table views and empty-class metadata replicas are legitimately
        never *read* by a listing walk, but their inode is known.  Below
        that, every replica carries the object's full attributes, so the
        metadata replicas and table views an inode *should* have are
        computable (``layout.replica_ids``); one stored beyond them is
        the leftover of a revoked CAP or an interrupted table fold.  A
        directory nobody holding its table keys could reach is not
        judged: which bases its heads name is unknown.  Nor are the
        blocks of a file no user could read: its count is unknown.
        """
        try:
            all_ids = set(self.volume.server.raw_blobs())
        except StorageError:
            return  # remote SSPs expose no census
        expected = {
            inode: set(layout.replica_ids(self.volume.scheme, attrs)) | {
                layout.table_base_id(inode, selector, gen)
                for selector, gen in base_gens.get(inode, {}).items()
                if gen}
            for inode, attrs in visited_inodes.items()
            if attrs.ftype != "dir" or inode in base_gens}
        for blob_id in sorted(all_ids):
            # Lockboxes, superblocks and group keys are only read by
            # their single addressee on specific paths; journals are
            # per-user recovery state audited separately; lease chains
            # and version statements are coordination infrastructure
            # that outlives any object (their own audits are
            # _check_leases and the clients' fork checks).  Unread is
            # fine for all of them.
            if blob_id.kind in ("super", "groupkey", "lockbox",
                                "journal", "lease", "vsl"):
                continue
            if blob_id.inode not in visited_inodes:
                orphaned = blob_id not in recorder.touched
            elif blob_id.inode not in expected:
                continue  # a directory whose heads nobody could open
            elif layout.in_census(blob_id):
                orphaned = blob_id not in expected[blob_id.inode]
            else:
                index = block_index(blob_id)
                orphaned = (index is not None and blob_id.inode in counts
                            and index >= counts[blob_id.inode])
            if orphaned:
                report.orphaned_blobs.append(str(blob_id))

