"""The SHAROES migration tool (paper section IV, first component).

Transitions an existing local filesystem to the outsourced model: walks
the local tree, mints the complete cryptographic structure (per-object
keys, per-selector metadata replicas, CAP-styled directory-table views,
split-point lockboxes, per-user superblocks) and performs the bulk upload
to the SSP.

Because migration runs inside the enterprise trust domain, it may act on
behalf of every owner at once -- that is exactly why the paper's
"seamless transition without significant user involvement" is possible.

Bulk-transfer economics: the tool batches uploads (amortizing round
trips) and optionally models compression, matching the paper's "more
efficient bulk data transfers" remark.  Costs are charged to an optional
:class:`~repro.sim.costmodel.CostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..caps.model import cap_for_bits
from ..caps.record import ObjectRecord, lockbox_payload
from ..crypto.provider import CryptoProvider
from ..errors import MigrationError, UnsupportedPermission
from ..fs import layout
from ..fs.blobio import _REQUEST_HEADER_BYTES, _RESPONSE_HEADER_BYTES
from ..fs.dirtable import SPLIT
from ..fs.metadata import MetadataAttrs
from ..fs.permissions import DIRECTORY, EXEC, FILE, READ, WRITE
from ..fs.tableio import entry_for_selector
from ..fs.volume import SharoesVolume
from ..sim.costmodel import CostModel
from ..storage.blobs import lockbox_blob
from .localfs import LocalNode, LocalTree

_BATCH_SIZE = 100


def degrade_bits(bits: int, ftype: str) -> int:
    """Nearest weaker supported permission for an unsupported triple.

    Directories: -wx loses the write bit (--x).  Files: any write or
    exec without read collapses to no access (the symmetric-DEK
    restriction of paper sections III-A/B).
    """
    r, w, x = bits & READ, bits & WRITE, bits & EXEC
    if ftype == DIRECTORY:
        if w and x and not r:
            return x
        return bits
    if not r:
        return 0
    return bits


def degrade_mode(mode: int, ftype: str) -> int:
    out = 0
    for shift in (6, 3, 0):
        out |= degrade_bits((mode >> shift) & 0o7, ftype) << shift
    return out


@dataclass
class MigrationReport:
    """What the migration did, for the operator's eyes."""

    directories: int = 0
    files: int = 0
    data_bytes: int = 0
    uploaded_bytes: int = 0
    blobs: int = 0
    replicas: int = 0
    lockboxes: int = 0
    splits: int = 0
    superblocks: int = 0
    warnings: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (f"migrated {self.directories} dirs / {self.files} files "
                f"({self.data_bytes} B data) -> {self.blobs} blobs, "
                f"{self.replicas} metadata replicas, {self.lockboxes} "
                f"lockboxes, {self.splits} split rows, "
                f"{self.superblocks} superblocks; "
                f"{len(self.warnings)} warnings")


class MigrationTool:
    """Transitions a :class:`LocalTree` onto a fresh SHAROES volume."""

    def __init__(self, volume: SharoesVolume,
                 provider: CryptoProvider | None = None,
                 cost_model: CostModel | None = None,
                 strict_permissions: bool = True,
                 compression_ratio: float = 1.0):
        if volume.formatted:
            raise MigrationError("migration needs an unformatted volume")
        if not 0.0 < compression_ratio <= 1.0:
            raise MigrationError("compression_ratio must be in (0, 1]")
        self.volume = volume
        self.provider = provider or CryptoProvider()
        self.cost = cost_model
        if cost_model is not None:
            self.provider.add_listener(cost_model.on_crypto_event)
        self.strict = strict_permissions
        self.compression_ratio = compression_ratio
        self._pending_batch_bytes = 0
        self._batch_count = 0
        self.report = MigrationReport()

    # -- upload accounting ---------------------------------------------------

    def _upload(self, blob_id, payload: bytes, compressible: bool) -> None:
        self.volume.server.put(blob_id, payload)
        self.report.blobs += 1
        self.report.uploaded_bytes += len(payload)
        if self.cost is None:
            return
        wire = len(payload)
        if compressible:
            wire = int(wire * self.compression_ratio)
        self._pending_batch_bytes += wire + _REQUEST_HEADER_BYTES
        self._batch_count += 1
        if self._batch_count >= _BATCH_SIZE:
            self._flush_batch()

    def _flush_batch(self) -> None:
        if self.cost is not None and self._batch_count:
            self.cost.charge_request(self._pending_batch_bytes,
                                     _RESPONSE_HEADER_BYTES)
        self._pending_batch_bytes = 0
        self._batch_count = 0

    # -- permission preparation -----------------------------------------------

    def _prepare_mode(self, path: str, node: LocalNode) -> int:
        mode = node.mode
        for shift in (6, 3, 0):
            bits = (mode >> shift) & 0o7
            try:
                cap_for_bits(bits, node.ftype)
            except UnsupportedPermission as exc:
                if self.strict:
                    raise MigrationError(f"{path}: {exc}") from exc
                degraded = degrade_mode(mode, node.ftype)
                self.report.warnings.append(
                    f"{path}: degraded mode {mode:o} -> {degraded:o} "
                    f"(unsupported in SHAROES)")
                return degraded
        return mode

    # -- tree construction ---------------------------------------------------------

    def migrate(self, tree: LocalTree) -> MigrationReport:
        """Run the transition; returns the report."""
        root_record = self._build_node("/", tree.root)
        self.volume.root_inode = root_record.attrs.inode
        self.volume._root_record = root_record
        superblocks = self.volume.superblocks(self.provider, root_record)
        self.volume.put_blobs(superblocks)
        self.report.superblocks = len(superblocks)
        self._flush_batch()
        return self.report

    def _build_node(self, path: str, node: LocalNode) -> ObjectRecord:
        mode = self._prepare_mode(path, node)
        inode = self.volume.allocator.allocate()
        attrs = MetadataAttrs(inode=inode, ftype=node.ftype,
                              owner=node.owner, group=node.group,
                              mode=mode, acl=node.acl,
                              size=len(node.content))
        scheme = self.volume.scheme
        record = ObjectRecord.create(attrs, scheme.selectors(attrs),
                                     self.volume.signature_prime_bits)
        if node.is_dir():
            self.report.directories += 1
            children = {
                name: self._build_node(
                    path.rstrip("/") + "/" + name, child)
                for name, child in sorted(node.children.items())}
            self._write_tables(record, children)
        else:
            self.report.files += 1
            self.report.data_bytes += len(node.content)
            self._write_file_blocks(record, node.content)
        self._write_replicas(record)
        self._maybe_write_lockboxes(record)
        return record

    def _write_replicas(self, record: ObjectRecord) -> None:
        for blob_id, blob in layout.metadata_replicas(
                self.volume.scheme, self.provider, record):
            self._upload(blob_id, blob, compressible=False)
            self.report.replicas += 1

    def _write_file_blocks(self, record: ObjectRecord,
                           content: bytes) -> None:
        attrs = record.attrs
        blocks = layout.split_blocks(content, self.volume.block_size)
        attrs.block_count = len(blocks)
        for index in range(len(blocks)):
            self._upload(*layout.seal_block(
                self.provider, record.dek, record.dsk, attrs.inode, index,
                layout.block_payload(blocks, index)), compressible=True)

    def _write_tables(self, record: ObjectRecord,
                      children: dict[str, ObjectRecord]) -> None:
        scheme = self.volume.scheme
        attrs = record.attrs
        views = layout.empty_views(scheme, self.provider, record)
        for selector, (dek, view) in views.items():
            for name, child in sorted(children.items()):
                entry = entry_for_selector(scheme, attrs, child, selector,
                                           name)
                if entry.kind == SPLIT:
                    self.report.splits += 1
                    # Split discovered at the parent: the child's keys go
                    # out through per-user lockboxes (paper III-D).
                    self._write_lockboxes_for(child)
                view.add(entry, provider=self.provider, table_dek=dek)
        blobs, _ = layout.store_tables(self.provider, record.dsk,
                                       attrs.inode, views)
        for blob_id, blob in blobs:
            self._upload(blob_id, blob, compressible=False)

    def _maybe_write_lockboxes(self, record: ObjectRecord) -> None:
        """ACL entries always need lockboxes, split or not."""
        if record.attrs.acl:
            self._write_lockboxes_for(record)

    def _write_lockboxes_for(self, record: ObjectRecord) -> None:
        if not self.volume.scheme.supports_splits():
            return
        inode = record.attrs.inode
        done: set[int] = getattr(self, "_lockboxed", set())
        self._lockboxed = done
        if inode in done:
            return
        done.add(inode)
        for user_id, selector in self.volume.scheme.lockbox_map(
                record.attrs).items():
            public = self.volume.registry.directory.user_key(user_id)
            payload = lockbox_payload(selector,
                                      record.selector_meks[selector],
                                      record.mvk.to_bytes())
            self._upload(lockbox_blob(inode, user_id),
                         self.provider.pk_encrypt(public, payload),
                         compressible=False)
            self.report.lockboxes += 1
