"""SHAROES volume: enterprise-side deployment state for one filesystem.

A volume ties together the SSP server, the principal registry, the
replication scheme and the inode allocator, and knows how to *format* the
filesystem (create the namespace root and the per-user superblocks).  The
migration tool builds onto a formatted volume; clients mount it.

The volume object itself holds no secret key material -- everything it
writes is derived on the fly and persisted only in encrypted form at the
SSP.  It is the in-process stand-in for "the enterprise's provisioning
workstation".
"""

from __future__ import annotations

from ..caps.record import ObjectRecord
from ..caps.schemes import ReplicationScheme, make_scheme
from ..crypto.keys import OBJECT_SIGNATURE_PRIME_BITS
from ..crypto.provider import CryptoProvider
from ..errors import SharoesError
from ..principals.registry import PrincipalRegistry
# meta_blob, block_blob_id and table_blob_id are re-exported: existing
# importers take the blob-id helpers from here.
from ..storage.blobs import BlobId, meta_blob, superblock_blob  # noqa: F401
from ..storage.server import StorageServer
from . import layout
from .inode import InodeAllocator
from .layout import block_blob_id, table_blob_id  # noqa: F401
from .metadata import MetadataAttrs
from .permissions import DIRECTORY
from .superblock import Superblock

DEFAULT_BLOCK_SIZE = 64 * 1024


class SharoesVolume:
    """One SHAROES filesystem deployment."""

    def __init__(self, server: StorageServer, registry: PrincipalRegistry,
                 scheme: str | ReplicationScheme = "scheme2",
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 signature_prime_bits: int = OBJECT_SIGNATURE_PRIME_BITS,
                 clock=None):
        self.server = server
        self.registry = registry
        #: shared :class:`~repro.sim.clock.SimClock` for multi-client
        #: lease expiry (None = each leasing client without a cost model
        #: runs its own clock, which is fine single-client).
        self.clock = clock
        self.scheme = (scheme if isinstance(scheme, ReplicationScheme)
                       else make_scheme(scheme, registry))
        self.block_size = block_size
        self.signature_prime_bits = signature_prime_bits
        self.allocator = InodeAllocator()
        self.root_inode: int | None = None
        self._root_record: ObjectRecord | None = None

    @property
    def formatted(self) -> bool:
        return self.root_inode is not None

    def format(self, root_owner: str, root_group: str,
               root_mode: int = 0o755,
               provider: CryptoProvider | None = None) -> ObjectRecord:
        """Create the namespace root and all user superblocks."""
        if self.formatted:
            raise SharoesError("volume is already formatted")
        provider = provider or CryptoProvider()
        inode = self.allocator.allocate()
        attrs = MetadataAttrs(inode=inode, ftype=DIRECTORY,
                              owner=root_owner, group=root_group,
                              mode=root_mode)
        selectors = self.scheme.selectors(attrs)
        record = ObjectRecord.create(attrs, selectors,
                                     self.signature_prime_bits)
        self.put_blobs(layout.metadata_replicas(self.scheme, provider,
                                                record))
        self.put_blobs(layout.store_tables(
            provider, record.dsk, inode,
            layout.empty_views(self.scheme, provider, record))[0])
        self.root_inode = inode
        self._root_record = record
        self.put_blobs(self.superblocks(provider, record))
        return record

    def put_blobs(self, blobs) -> None:
        """Put ``(blob id, bytes)`` pairs straight to the SSP."""
        for blob_id, blob in blobs:
            self.server.put(blob_id, blob)

    def superblock(self, root_record: ObjectRecord,
                   user_id: str) -> Superblock:
        """``user_id``'s superblock for the root ``root_record`` (every
        user's selector is materialized, the zero CAP's included)."""
        selector = self.scheme.selector_for_user(root_record.attrs, user_id)
        return Superblock(
            root_inode=root_record.attrs.inode,
            root_selector=selector,
            root_mek=root_record.selector_meks[selector],
            root_mvk=root_record.mvk.to_bytes(),
            scheme_name=self.scheme.name,
            block_size=self.block_size,
        )

    def superblocks(self, provider: CryptoProvider,
                    root_record: ObjectRecord) -> list[tuple[BlobId, bytes]]:
        """Every user's superblock for ``root_record``, encrypted to that
        user, as ``(blob id, bytes)`` pairs: :meth:`format`,
        :meth:`provision_user` and the migration tool put them, a
        client's root attribute change sends them inside its op."""
        return [(superblock_blob(user.user_id),
                 self.superblock(root_record, user.user_id).wrap(
                     provider, self.registry.directory.user_key(user.user_id)))
                for user in self.registry.users()]

    def provision_user(self, user_id: str,
                       provider: CryptoProvider | None = None) -> None:
        """Issue a superblock for a (newly added) user.

        Under Scheme-2 this is all a new user needs: replicas are shared
        per permission class.  Under Scheme-1 every object would need a
        new replica built by its owner; that full-tree walk is the
        scheme's documented enrolment cost and is intentionally not
        automated here (owners run ``rekey``/migration tooling instead).
        """
        if not self.formatted or self._root_record is None:
            raise SharoesError("volume must be formatted first")
        if self.scheme.name == "scheme1":
            raise SharoesError(
                "Scheme-1 enrolment requires rebuilding every owner's "
                "replica tree; register users before migration instead "
                "(this cost asymmetry is the point of Scheme-2)")
        self.put_blobs(self.superblocks(provider or CryptoProvider(),
                                        self._root_record))
