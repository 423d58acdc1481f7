"""The SHAROES filesystem client.

This is the component installed at every enterprise client (the paper's
FUSE filesystem): it mounts the SSP-hosted volume, navigates the
CAP-based metadata design, performs every cryptographic operation, and
exposes POSIX-style operations (getattr, readdir, mkdir, mknod, open,
read, write, close, chmod, chown, rename, unlink, rmdir...).

Design invariants (paper sections II-IV):

* keys never leave the enterprise in plaintext -- the client decrypts the
  per-user superblock with the user's private key once at mount, then all
  key distribution is in-band (parent tables carry children's MEK/MVK);
* metadata operations use symmetric crypto only;
* the SSP is never asked to enforce anything: "permission denied" here is
  either an honest-client mode check or, at bottom, the absence of a key;
* writes are cached locally and encrypted + uploaded on close;
* every operation charges the simulated cost model (network / crypto /
  other) so benchmarks reproduce the paper's 2008 testbed numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..caps.model import cap_for_bits
from ..caps.record import (ObjectRecord, lockbox_payload, open_metadata_blob,
                           parse_lockbox_payload)
from ..crypto import esign
from ..crypto.provider import CryptoProvider
from ..errors import (BlobNotFound, CryptoError, DirectoryNotEmpty,
                      FileNotFound, FilesystemError, IsADirectory,
                      NotADirectory, PermissionDenied, SharoesError,
                      TransientStorageError)
from ..fs import path as fspath
from ..obs.metrics import (MetricsRegistry, bind_cache_stats,
                           bind_cost_model, bind_crypto_counters,
                           bind_server_stats, bind_transport)
from ..obs.tracing import Tracer, traced
from ..principals.groups import UserAgent
from ..principals.users import User
from ..sim.costmodel import CostModel
from ..storage.blobs import (BlobId, group_key_blob, lockbox_blob,
                             meta_blob, superblock_blob)
from . import filedata, layout
from .blobio import BlobIO
from .cache import LruCache
from .dirtable import DIRECT, SPLIT, VIEW_FULL, TableView
from .filedata import OpenFile
from .freshness import FreshnessMonitor
from .lease import LeaseManager
from .mdcache import DIR_WRITE_CAPS, LIST_CAPS, VerifiedMetadataCache
from .metadata import MetadataAttrs, MetadataView, Stat
from .mutation import MutationPipeline, mutating
from .permissions import DIRECTORY, FILE, SYMLINK, AclEntry
from .resolve import ResolvedNode, Resolver
from .superblock import Superblock
from .tableio import (add_row, fetch_table, rebuild_tables, remove_row,
                      require_free, write_empty_tables)
from .volume import SharoesVolume

@dataclass
class ClientConfig:
    """Tunables for one mounted client."""

    #: unified decrypted-object cache budget in bytes (None = unbounded,
    #: 0 = disabled).  The Postmark benchmark sweeps this.
    cache_bytes: int | None = None
    #: cache decrypted file data blocks?
    data_cache: bool = True
    #: re-encrypt immediately on revocation (paper's prototype default)
    #: or lazily on next write (Plutus-style).
    immediate_revocation: bool = True
    #: wrap SSP traffic in a :class:`ResilientTransport` with this
    #: :class:`~repro.storage.resilient.RetryPolicy` (retries, backoff,
    #: circuit breaker, stale-read fallback -- see docs/ROBUSTNESS.md).
    #: None (default): the client talks to the server directly.
    retry_policy: "RetryPolicy | None" = None
    #: crash-consistent mutations: seal every multi-blob mutation into a
    #: sealed write-ahead intent at the SSP before any of its blobs are
    #: sent, commit (truncate) afterwards, and replay pending intents on
    #: mount -- see fs/journal.py and docs/ROBUSTNESS.md.  Default False
    #: preserves the paper's Figure 8 request/cost profile (journaling
    #: adds two puts per mutation).
    journal: bool = False
    #: multi-client safety: acquire per-inode signed leases before every
    #: read-modify-write and fence the mutation's SSP writes with the
    #: lease's epoch, so concurrent honest clients serialize and zombie
    #: writers are rejected mechanically -- see fs/lease.py and
    #: docs/ROBUSTNESS.md.  Requires ``journal=True`` (fenced commits
    #: ride the intent journal).  Default False keeps the single-client
    #: cost model byte-identical.
    lease: bool = False
    #: sim-clock lifetime of an acquired lease before peers may take it
    #: over (rolling the holder's journal forward first).
    lease_duration_s: float = 30.0
    #: speculative read batching: during a path walk, fetch a cold
    #: component's metadata and directory table in one frame; after
    #: ``readdir``, prefetch the listed children's metadata blobs.
    #: Default True (since PR 7): readahead trades bytes for round
    #: trips, which departs from the paper's 2008 prototype -- pass
    #: ``readahead=False`` to reproduce the paper's per-op cost tables
    #: (Figures 8/13) exactly.
    readahead: bool = True
    #: verified metadata cache + pre-materialized listings: keep
    #: decrypted, signature-verified metadata/table entries warm across
    #: close-to-open ``revalidate()`` boundaries, version-pinned against
    #: the freshness monitor and invalidated by lease-epoch advancement
    #: -- see fs/mdcache.py and docs/CACHING.md.  Default True (since
    #: PR 8, after soaking behind BENCH_7's andrew resolve gate and the
    #: coherence matrix): pass ``mdcache=False`` for the paper's strict
    #: re-fetch-per-open consistency model (the ablation path the
    #: paper-faithful workload pins use).
    mdcache: bool = True
    #: how many times a mutation waits out a :class:`LeaseHeldError`
    #: (another client's unexpired lease) before surfacing it.  0
    #: (default) preserves the historical fail-fast behaviour.  Waiting
    #: advances the sim clock, so a dead holder's lease can expire and
    #: be taken over mid-wait.  Backoff: ``LEASE_WAIT_BASE_S``,
    #: doubling per attempt up to ``LEASE_WAIT_MAX_S``.
    lease_wait_attempts: int = 0
    #: pipelined request window: ``concurrency >= 2`` attaches a
    #: :class:`~repro.fs.scheduler.RequestScheduler` that keeps up to
    #: this many independent requests in flight -- write-behind staging
    #: for plain puts/deletes and waved fetch flights for multi-block
    #: reads -- with latency overlapped but bandwidth still shared (see
    #: docs/CONCURRENCY.md).  0 (default) keeps the paper's strictly
    #: sequential client and its exact cost numbers.  With
    #: ``journal=True`` write-behind is disabled (journal ordering is a
    #: durability contract) but fetch flights stay on.
    concurrency: int = 0


class SharoesFilesystem:
    """A mounted SHAROES client for one user."""

    def __init__(self, volume: SharoesVolume, user: User,
                 cost_model: CostModel | None = None,
                 config: ClientConfig | None = None,
                 server=None):
        self.volume = volume
        self.config = config or ClientConfig()
        self.provider = CryptoProvider()
        self.cost = cost_model
        if cost_model is not None:
            self.provider.add_listener(cost_model.on_crypto_event)
        self.agent = UserAgent(user, self.provider)
        self.cache = LruCache(self.config.cache_bytes)
        self.freshness = FreshnessMonitor()
        #: the cache front (fs/mdcache.py): every verified entry in
        #: ``cache`` -- views, tables, listings, data blocks -- is read,
        #: written and invalidated through it.
        self.mdcache = VerifiedMetadataCache(
            self.cache, self.freshness, warm=self.config.mdcache,
            data=self.config.data_cache)
        #: optional fork-consistency log (see enable_consistency_log)
        self.consistency = None
        self._superblock: Superblock | None = None
        #: unified observability: one registry tree + a span tracer on
        #: the simulated clock.  The legacy stats structs (CacheStats,
        #: OpCounters, CostBreakdown, ServerStats) are adapted in as
        #: pull-based sources -- see docs/OBSERVABILITY.md.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(
            clock=cost_model.clock if cost_model is not None else None,
            registry=self.metrics)
        if cost_model is not None:
            cost_model.tracer = self.tracer
            bind_cost_model(self.metrics, cost_model)
        bind_cache_stats(self.metrics, self.cache)
        self.metrics.register_source(
            "client.mdcache", self.mdcache.snapshot,
            help="verified metadata cache coherence counters")
        bind_crypto_counters(self.metrics, self.provider)
        bind_server_stats(self.metrics, volume.server)
        if hasattr(volume.server, "shard_snapshot"):
            self.metrics.register_source(
                "shard", volume.server.shard_snapshot,
                help="sharded backend: quorum reads, divergence, "
                     "repair debt and per-shard breaker state")
        self.metrics.gauge("client.requests",
                           help="SSP requests issued by this client",
                           fn=lambda: self.request_count)
        #: the server this client actually talks to.  ``server`` (if
        #: given) overrides ``volume.server`` -- benchmarks use it to
        #: inject per-client wrappers (faults, the wire tracer).  A retry
        #: policy in the config wraps it in a ResilientTransport that
        #: retries transient faults with backoff on the simulated clock
        #: -- see docs/ROBUSTNESS.md.
        raw = server if server is not None else volume.server
        #: the path walk and its memo (fs/resolve.py), with the
        #: per-depth ``client.resolve.*`` attribution.
        self.resolver = Resolver(self)
        self._resolve = self.resolver.resolve
        policy = self.config.retry_policy
        if policy is not None:
            from ..storage.resilient import ResilientTransport
            # The breaker cooldown must elapse on the same simulated
            # clock the rest of the system advances: prefer the cost
            # model's, else the volume-level clock shared across clients.
            self.server = ResilientTransport(
                raw, policy, cost=cost_model, tracer=self.tracer,
                clock=getattr(volume, "clock", None))
            bind_transport(self.metrics, self.server)
        else:
            self.server = raw
        #: the one blob channel (fs/blobio.py): every object-blob get,
        #: put, delete, probe and prefetch goes through it.  The
        #: pipelined scheduler (``concurrency=K``, fs/scheduler.py) sits
        #: *above* the resilient transport so every wave rides the batch
        #: partial-retry path; write-behind is off under the journal (its
        #: ordering is a durability contract) while fetch flights stay
        #: on.
        self.blobs = BlobIO(
            self.server, self.cache, tracer=self.tracer,
            metrics=self.metrics, cost=cost_model,
            window=(self.config.concurrency
                    if self.config.concurrency >= 2 else 0),
            write_behind=not self.config.journal)
        #: None (default) keeps the sequential client untouched.
        self.scheduler = self.blobs.scheduler
        if self.scheduler is not None:
            # Staged writes a failed flush drops are invalidated like a
            # failed mutation's (``MutationPipeline.scope``).
            self.scheduler.on_drop = self._invalidate
        #: every mutating op runs through the pipeline (fs/mutation.py):
        #: its scope, leases, journal frame and replay.
        self.mutation = MutationPipeline(
            user, self.provider, self.blobs, metrics=self.metrics,
            tracer=self.tracer, invalidate=self._invalidate,
            journaled=self.config.journal, cost=cost_model,
            wait_attempts=self.config.lease_wait_attempts)
        #: multi-client safety: per-inode signed leases with fencing
        #: epochs (fs/lease.py), written under the pipeline's holder.
        self.lease = None
        if self.config.lease:
            if not self.config.journal:
                raise SharoesError(
                    "ClientConfig(lease=True) requires journal=True: "
                    "fenced commits ride the intent journal")
            from ..sim.clock import SimClock
            # A volume-level clock (shared across clients) is the lease
            # time authority; a private cost-model clock only serves the
            # single-client case.
            clock = getattr(volume, "clock", None)
            if clock is None and cost_model is not None:
                clock = cost_model.clock
            self.lease = self.mutation.lease = LeaseManager(
                user, volume.registry.directory, self.server,
                clock if clock is not None else SimClock(),
                duration_s=self.config.lease_duration_s,
                provider=self.provider, escrow=volume.registry.user,
                tracer=self.tracer, metrics=self.metrics,
                exchange=self.blobs.ship, holder=self.mutation.holder)
            self.blobs.leases = self.lease

    def enable_consistency_log(self):
        """Attach a SUNDR-style fork-consistency log (paper section VI).

        Every verified metadata fetch feeds the log; call
        ``publish_statement()`` periodically and ``sync_statements()``
        to cross-check peers.  Returns the log.
        """
        from .consistency import ConsistencyLog
        self.consistency = self.mutation.consistency = ConsistencyLog(
            self.mutation.holder, self.agent.user.signing.signing,
            self.volume.registry.directory, self.blobs.ship, self.provider)
        return self.consistency

    @traced("publish_statement", path_arg=None)
    def publish_statement(self):
        """Sign + upload this client's version statement (if enabled)."""
        if self.consistency is None:
            raise SharoesError("consistency log not enabled")
        self._charge_other()
        return self.consistency.publish()

    @traced("sync_statements", path_arg=None)
    def sync_statements(self, peer_ids: list[str]):
        """Fetch + fork-check the statements of ``peer_ids`` (if enabled).

        Raises :class:`repro.fs.consistency.ForkDetected` when the SSP
        has shown this client and a peer divergent histories.
        """
        if self.consistency is None:
            raise SharoesError("consistency log not enabled")
        self._charge_other()
        return self.consistency.sync(peer_ids)

    # ------------------------------------------------------------------ wire

    def _charge_other(self) -> None:
        if self.cost is not None:
            self.cost.charge_other()

    @property
    def request_count(self) -> int:
        """SSP requests issued by this client (batched puts count once)."""
        return self.blobs.request_count

    def flush_staged(self) -> int:
        """Barrier: ship every staged write-behind mutation now.

        Called at every point where staged state must be visible beyond
        this client -- close-to-open ``revalidate()``, ``unmount()``.
        (Frames that must order directly against the SSP -- protocol
        frames such as consistency-log publishes, oversized groups --
        flush inside :meth:`BlobIO.exchange` and :meth:`BlobIO.send`.)
        A no-op without a scheduler.  Returns the number of sub-ops
        shipped.
        """
        return self.blobs.flush()

    # ------------------------------------------------------------------ readahead

    def _prefetch_children(self, table: TableView) -> None:
        """Directory-scan readahead: batch the children's metadata.

        After listing, callers almost always stat every child (``ls
        -l``, recursive walks).  A FULL view already names each DIRECT
        child's metadata blob; fetch the uncached ones in one frame so
        the per-child getattr round trips collapse.  SPLIT/ZERO entries
        are skipped -- their replica selector hides behind a lockbox.
        """
        if table.style != VIEW_FULL:
            return
        wanted = []
        for entry in table.entries.values():
            if entry.kind != DIRECT or entry.pointer is None:
                continue
            if self.mdcache.has_view(entry.inode, entry.pointer.selector):
                continue
            wanted.append(meta_blob(entry.inode, entry.pointer.selector))
        self.blobs.prefetch(wanted)

    # ------------------------------------------------------------------ mount

    @traced("mount", path_arg=None)
    def mount(self) -> None:
        """Fetch + decrypt this user's superblock and group keys.

        The single public-key decryption here is the only one on the
        normal access path (paper section III-C).
        """
        self._charge_other()
        self._read_superblock()
        for group_id in sorted(self.agent.user.groups):
            try:
                wrapped = self.blobs.get(
                    group_key_blob(group_id, self.agent.user_id))
            except BlobNotFound:
                continue
            self.agent.install_group_key(group_id, wrapped)
        if self.consistency is not None:
            # Resume our own statement chain *before* journal recovery:
            # the adopted journal_seq watermark is what lets recovery
            # reject a stale re-served committed journal as a rollback.
            self.consistency.resume_from()
        mine = superblock_blob(self.agent.user_id)
        if any(blob_id == mine for record in self.mutation.recover()
               for blob_id, _ in record.blobs):
            # The replay finished a root change: read the superblock it
            # wrote, not the one it replaced.
            self._read_superblock()

    def _read_superblock(self) -> Superblock:
        blob = self.blobs.get(superblock_blob(self.agent.user_id))
        self._superblock = Superblock.unwrap(
            self.provider, self.agent.user.private_key, blob)
        return self._superblock

    @property
    def mounted(self) -> bool:
        return self._superblock is not None

    def _require_mounted(self) -> Superblock:
        if self._superblock is None:
            raise FilesystemError("filesystem is not mounted")
        return self._superblock

    def unmount(self) -> None:
        self.flush_staged()
        self.mutation.close()
        self._superblock = None
        self.mdcache.clear()
        self.agent.group_keys.clear()

    @traced("renew_leases")
    def renew_leases(self) -> list[int]:
        """Renew every held lease in one frame; returns the inodes
        renewed (``MutationPipeline.renew``)."""
        return self.mutation.renew()

    # ------------------------------------------------------------------ fetch

    def _was_degraded(self, blob_id: BlobId,
                      for_write: bool = False) -> bool:
        """Did the transport serve this blob from its stale fallback?

        A degraded last-known-good read still verifies (it is validly
        signed old bytes), but caching its decrypted view would let the
        outage outlive itself: the entry would keep serving the stale
        state long after the SSP healed.  Degraded payloads are used
        once and never cached -- see docs/CACHING.md.  One loaded
        ``for_write`` would be edited and uploaded over whatever the SSP
        holds by now, so there the error the fallback swallowed is
        raised after all.
        """
        stale_ids = getattr(self.server, "stale_blob_ids", None)
        if stale_ids is None or blob_id not in stale_ids:
            return False
        if for_write:
            raise TransientStorageError(
                f"{blob_id}: SSP unreachable; a write cannot build on "
                f"the last-known-good copy")
        self.metrics.counter(
            "client.cache.degraded_skips",
            help="verified payloads not cached: served degraded").inc()
        self.mdcache.degraded_skips += 1
        return True

    def _fetch_view(self, inode: int, selector: str, mek: bytes,
                    mvk: esign.VerificationKey) -> MetadataView:
        cached = self.mdcache.get_view(inode, selector)
        if cached is not None:
            return cached
        blob_id = meta_blob(inode, selector)
        try:
            blob = self.blobs.get(blob_id)
        except BlobNotFound:
            raise PermissionDenied(
                f"inode {inode}: no metadata replica for your permissions"
            ) from None
        with self.tracer.span("crypto", op="open_metadata"):
            view = open_metadata_blob(self.provider, inode, selector, mek,
                                      mvk, blob)
        self.freshness.observe_metadata(
            inode, view.attrs.version, self._attrs_digest(view.attrs))
        if self.consistency is not None:
            self.consistency.observe(inode, view.attrs.version)
        if not self._was_degraded(blob_id):
            self.mdcache.put_view(inode, selector, view, len(blob))
        return view

    @staticmethod
    def _attrs_digest(attrs: MetadataAttrs) -> bytes:
        """Canonical attribute bytes: identical across CAP replicas of
        one object version, so equivocation between versions is caught
        without false positives between selectors."""
        from ..serialize import Writer
        writer = Writer()
        attrs.to_writer(writer)
        return writer.getvalue()

    def _invalidate(self, inode: int, keep_count: bool = False) -> None:
        if self.scheduler is not None:
            # Cancel in-flight speculation: a fetch that raced this
            # invalidation must not land in any cache.
            self.scheduler.note_invalidation()
        self.mdcache.invalidate_inode(inode, keep_count)

    def revalidate(self) -> None:
        """Close-to-open consistency boundary.

        "My writes are visible to the next opener": staged write-behind
        state reaches the SSP, then the cache front applies its policy
        (:meth:`VerifiedMetadataCache.revalidate`).
        """
        self.flush_staged()
        self.mdcache.revalidate()

    # ------------------------------------------------------------------ resolve

    def _resolve_lockbox(self, inode: int) -> tuple[str, bytes, bytes]:
        """Split-point resolution: try each of this agent's identities."""
        for principal_id in self.agent.principal_ids():
            try:
                blob = self.blobs.get(lockbox_blob(inode, principal_id))
            except BlobNotFound:
                continue
            payload = self.agent.unwrap(principal_id, blob)
            return parse_lockbox_payload(payload)
        raise PermissionDenied(
            f"inode {inode}: split point with no lockbox for "
            f"{self.agent.user_id}")

    def _read_symlink_target(self, node: ResolvedNode) -> str:
        _, blocks = filedata.load_blocks(self, node, range)
        content = b"".join(blocks.values())
        try:
            return content.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FilesystemError(
                f"inode {node.inode}: corrupt symlink target") from exc

    def _resolve_parent(self, path: str) -> tuple[ResolvedNode, str]:
        parent_path, name = fspath.parent_and_name(path)
        return self._resolve(parent_path), name

    # ------------------------------------------------------------------ reads

    @traced("getattr")
    def getattr(self, path: str) -> Stat:
        """stat(2): fetch + decrypt the metadata replica (paper Fig. 8).

        Follows symlinks, like stat(2); use :meth:`lstat` not to.
        """
        self._charge_other()
        return Stat.from_attrs(self._resolve(path).attrs)

    @traced("lstat")
    def lstat(self, path: str) -> Stat:
        """stat without following a final symlink (lstat(2))."""
        self._charge_other()
        return Stat.from_attrs(
            self._resolve(path, follow_last=False).attrs)

    @traced("symlink", path_arg=1)
    @mutating("symlink")
    def symlink(self, target: str, path: str, mode: int = 0o644) -> Stat:
        """Create a symbolic link at ``path`` pointing at ``target``.

        Targets are absolute volume paths.  The target string is stored
        encrypted like file content, so the SSP cannot see link topology.
        """
        fspath.split_path(target)  # validates absolute form
        stat = self._create(path, mode, SYMLINK, None, ())
        node = self._resolve(path, follow_last=False)
        with OpenFile(self, path, node, "w") as handle:
            handle.pwrite(target.encode("utf-8"), 0)
        return stat

    @traced("readlink")
    def readlink(self, path: str) -> str:
        """Return a symlink's target (readlink(2))."""
        self._charge_other()
        node = self._resolve(path, follow_last=False)
        if node.attrs.ftype != SYMLINK:
            raise FilesystemError(f"{path} is not a symbolic link")
        return self._read_symlink_target(node)

    @traced("link", path_arg=1)
    @mutating("link")
    def link(self, existing_path: str, new_path: str) -> Stat:
        """Create a hard link (owner only: the link count lives in
        metadata, which only the MSK holder can update, and the new
        parent's rows need the object's per-selector MEKs)."""
        self._charge_other()
        node = self._resolve(existing_path, follow_last=False)
        if node.attrs.ftype == DIRECTORY:
            raise IsADirectory(
                f"{existing_path}: directories cannot be hard-linked")
        record = ObjectRecord.from_owner_view(node.view, node.mvk)
        new_parent, name = self._resolve_parent(new_path)
        self._require_dir_write(new_parent, new_path)
        require_free(self, new_parent, name, new_path)
        record.attrs.nlink += 1
        record.attrs.version += 1
        self._write_metadata_replicas(record)
        if add_row(self, new_parent, name, record) or record.attrs.acl:
            self._write_lockboxes(record)
        return Stat.from_attrs(record.attrs)

    @traced("readdir")
    def readdir(self, path: str) -> list[str]:
        """List a directory (requires the read CAP)."""
        self._charge_other()
        node = self._resolve(path)
        if node.attrs.ftype != DIRECTORY:
            raise NotADirectory(path)
        listing = self.mdcache.get_listing(node.inode, node.selector)
        if listing is not None and listing.cap_id == node.cap_id:
            # Pre-materialized fast path: the permission verdict and the
            # name tuple were both evaluated when the listing was built
            # from a verified table -- O(1), zero round trips.
            if not listing.can_list:
                raise PermissionDenied(
                    f"{path}: listing requires read permission "
                    f"(CAP {node.cap_id})")
            return list(listing.names)
        if node.cap_id not in LIST_CAPS:
            raise PermissionDenied(
                f"{path}: listing requires read permission "
                f"(CAP {node.cap_id})")
        table = fetch_table(self, node)
        if self.config.readahead:
            self._prefetch_children(table)
        names = table.list_names()
        self.mdcache.put_listing(node.inode, node.selector, table,
                                 node.cap_id)
        return names

    @traced("access")
    def access(self, path: str, want: str) -> bool:
        """access(2)-style check: ``want`` is a subset of "rwx".

        Evaluates the mode bits for this user's class, exactly like the
        *nix call; the cryptographic enforcement happens when the
        operation is actually attempted.
        """
        self._charge_other()
        try:
            node = self._resolve(path)
        except (PermissionDenied, FileNotFound):
            return False
        bits = node.attrs.perms().bits_for(self.agent.user_id,
                                           self.agent.user.groups)
        masks = {"r": 0o4, "w": 0o2, "x": 0o1}
        return all(bits & masks[ch] for ch in want)

    # ------------------------------------------------------------------ files

    # A file's bytes and handles live in fs/filedata.py.
    read_file = traced("read_file")(filedata.read_file)
    open = traced("open")(filedata.open_file)
    write_file = traced("write_file")(filedata.write_file)
    append_file = traced("append_file")(
        mutating("append_file")(filedata.append_file))

    # ------------------------------------------------------------------ create

    def _require_dir_write(self, node: ResolvedNode, path: str) -> None:
        if node.attrs.ftype != DIRECTORY:
            raise NotADirectory(path)
        if node.cap_id not in DIR_WRITE_CAPS:
            raise PermissionDenied(
                f"{path}: modifying a directory requires write+exec "
                f"(CAP {node.cap_id})")

    def _validate_mode(self, mode: int, ftype: str,
                       acl: tuple[AclEntry, ...] = ()) -> None:
        for shift in (6, 3, 0):
            cap_for_bits((mode >> shift) & 0o7, ftype)  # raises if bad
        for entry in acl:
            cap_for_bits(entry.bits, ftype)

    def _write_metadata_replicas(self, record: ObjectRecord) -> None:
        self.mutation.touch(record.attrs.inode)
        self.blobs.send(list(layout.metadata_replicas(
            self.volume.scheme, self.provider, record)), grouped=True)
        self.mdcache.drop_views(record.attrs.inode)

    def _write_lockboxes(self, record: ObjectRecord) -> None:
        scheme = self.volume.scheme
        for user_id, selector in scheme.lockbox_map(record.attrs).items():
            public = self.volume.registry.directory.user_key(user_id)
            payload = lockbox_payload(selector,
                                      record.selector_meks[selector],
                                      record.mvk.to_bytes())
            self.blobs.send(
                [(lockbox_blob(record.attrs.inode, user_id),
                  self.provider.pk_encrypt(public, payload))],
                grouped=False)

    @mutating("create")
    def _create(self, path: str, mode: int, ftype: str,
                group: str | None, acl: tuple[AclEntry, ...]) -> Stat:
        self._charge_other()
        parent, name = self._resolve_parent(path)
        self._require_dir_write(parent, path)
        self._validate_mode(mode, ftype, acl)
        require_free(self, parent, name, path)
        inode = self.volume.allocator.allocate()
        self.mutation.touch(inode, new=True)
        attrs = MetadataAttrs(
            inode=inode, ftype=ftype, owner=self.agent.user_id,
            group=group or parent.attrs.group, mode=mode, acl=acl)
        scheme = self.volume.scheme
        record = ObjectRecord.create(attrs, scheme.selectors(attrs),
                                     self.volume.signature_prime_bits)
        self._write_metadata_replicas(record)
        self.mdcache.remember_count(inode, 0)  # a new object holds no block
        if ftype == DIRECTORY:
            write_empty_tables(self, record)
        # Write-through: the creator will almost always touch the new
        # object next (write/readdir); no need to re-fetch its own
        # freshly uploaded replica (whose version is a watermark, too).
        owner_selector = scheme.owner_selector(attrs)
        cap = scheme.cap_for_selector(attrs, owner_selector)
        view = record.view_for(owner_selector, cap, True)
        self.freshness.observe_metadata(inode, attrs.version,
                                        self._attrs_digest(attrs))
        self.mdcache.put_view(inode, owner_selector, view,
                              len(view.to_bytes()))
        if add_row(self, parent, name, record) or attrs.acl:
            self._write_lockboxes(record)
        return Stat.from_attrs(attrs)

    @traced("mknod")
    def mknod(self, path: str, mode: int = 0o644,
              group: str | None = None,
              acl: tuple[AclEntry, ...] = ()) -> Stat:
        """Create an empty file (paper Fig. 8's mknod)."""
        return self._create(path, mode, FILE, group, acl)

    @traced("mkdir")
    def mkdir(self, path: str, mode: int = 0o755,
              group: str | None = None,
              acl: tuple[AclEntry, ...] = ()) -> Stat:
        """Create a directory with all its CAP replicas."""
        return self._create(path, mode, DIRECTORY, group, acl)

    @traced("create_file")
    @mutating("create_file")
    def create_file(self, path: str, data: bytes = b"",
                    mode: int = 0o644, group: str | None = None) -> Stat:
        """mknod + write + close in one call."""
        stat = self.mknod(path, mode, group)
        if data:
            self.write_file(path, data)
        return stat

    # ------------------------------------------------------------------ remove

    def _delete_object_blobs(self, attrs: MetadataAttrs) -> None:
        self.mutation.touch(attrs.inode)
        scheme = self.volume.scheme
        victims = [(blob_id, None)
                   for blob_id in layout.replica_ids(scheme, attrs)]
        if attrs.ftype != DIRECTORY:
            victims += filedata.tail_blocks(attrs.inode, 0,
                                            attrs.block_count)
        if attrs.acl or scheme.supports_splits():
            victims += [(lockbox_blob(attrs.inode, user_id), None)
                        for user_id in scheme.lockbox_map(attrs)]
        self.blobs.send(victims, grouped=True)
        self._invalidate(attrs.inode)
        self.freshness.forget(attrs.inode)
        self.mutation.deleted(attrs.inode)

    @traced("unlink")
    @mutating("unlink")
    def unlink(self, path: str) -> None:
        """Remove a file or symlink: drop its rows from the parent views.

        Blobs are reclaimed when the last link goes (hard-linked objects
        survive with a decremented link count; only the owner can update
        the count, so a non-owner unlink of a multi-linked file leaves
        the stored count stale -- *nix-over-untrusted-storage tradeoff).
        """
        self._charge_other()
        parent, name = self._resolve_parent(path)
        self._require_dir_write(parent, path)
        self.mutation.touch(parent.inode)
        child = self.resolver.lookup_child(parent, name)
        if child.attrs.ftype == DIRECTORY:
            raise IsADirectory(path)
        remove_row(self, parent, name)
        if child.attrs.nlink > 1:
            if child.view.is_owner_view:
                record = ObjectRecord.from_owner_view(child.view,
                                                      child.mvk)
                record.attrs.nlink -= 1
                record.attrs.version += 1
                self._write_metadata_replicas(record)
            return
        self._delete_object_blobs(child.attrs)

    @traced("rmdir")
    @mutating("rmdir")
    def rmdir(self, path: str) -> None:
        self._charge_other()
        parent, name = self._resolve_parent(path)
        self._require_dir_write(parent, path)
        self.mutation.touch(parent.inode)
        child = self.resolver.lookup_child(parent, name)
        if child.attrs.ftype != DIRECTORY:
            raise NotADirectory(path)
        # "Is it empty" is read under its lease.
        self.mutation.touch(child.inode)
        try:
            table = fetch_table(self, child)
        except CryptoError:
            raise PermissionDenied(
                f"{path}: cannot verify emptiness without read access"
            ) from None
        if table.entry_count():
            raise DirectoryNotEmpty(path)
        remove_row(self, parent, name)
        self._delete_object_blobs(child.attrs)

    @traced("rename")
    @mutating("rename")
    def rename(self, old_path: str, new_path: str) -> None:
        """Move/rename: child keys are untouched, only rows move.

        The new rows are minted from the child's full record, which
        owners reconstruct.  Non-owner writers renaming a child could
        mint rows only for selectors whose MEK they can learn -- which
        in general they cannot, so rename of objects you do not own
        requires the owner view (documented limitation; plain *nix has
        the same flavour with sticky directories).
        """
        self._charge_other()
        old_parent, old_name = self._resolve_parent(old_path)
        new_parent, new_name = self._resolve_parent(new_path)
        self._require_dir_write(old_parent, old_path)
        self._require_dir_write(new_parent, new_path)
        self.mutation.touch(old_parent.inode)
        self.mutation.touch(new_parent.inode)
        child = self.resolver.lookup_child(old_parent, old_name)
        require_free(self, new_parent, new_name, new_path)
        add_row(self, new_parent, new_name,
                ObjectRecord.from_owner_view(child.view, child.mvk))
        remove_row(self, old_parent, old_name)

    # ------------------------------------------------------------------ chmod

    def _is_revocation(self, old_attrs: MetadataAttrs,
                       new_attrs: MetadataAttrs) -> bool:
        """Did any permission class lose read or write ability?"""
        scheme = self.volume.scheme
        old_map = {s: scheme.cap_for_selector(old_attrs, s)
                   for s in scheme.selectors(old_attrs)}
        new_map = {s: scheme.cap_for_selector(new_attrs, s)
                   for s in scheme.selectors(new_attrs)}
        for selector, old_cap in old_map.items():
            new_cap = new_map.get(selector)
            if new_cap is None:
                if old_cap.dek or old_cap.dsk:
                    return True
                continue
            if (old_cap.dek and not new_cap.dek) or (
                    old_cap.dsk and not new_cap.dsk):
                return True
        return False

    def _reencrypt_data(self, record: ObjectRecord, node: ResolvedNode,
                        old_attrs: MetadataAttrs) -> int:
        """Re-encrypt a file's blocks (or a dir's tables) under new keys.

        ``node`` still carries the *old* view (old DEK), so the content is
        readable; ``record`` carries the new keys.  ``old_attrs`` matters
        for chown under Scheme-1, where the owner's management selector
        itself changes with the owner.  Returns the base generation the
        directory's old views were stored at (0: inline, or a file).
        """
        attrs = record.attrs
        self.mutation.touch(attrs.inode)
        base_gen = 0
        if attrs.ftype != DIRECTORY:
            blocks = list(filedata.load_blocks(
                self, node, range, for_write=True)[1].values())
            for index in range(len(blocks)):
                self.blobs.send([layout.seal_block(
                    self.provider, record.dek, record.dsk, attrs.inode,
                    index, layout.block_payload(blocks, index))],
                    grouped=False)
        else:
            base_gen = rebuild_tables(self, record, node, old_attrs)
        self._invalidate(attrs.inode)
        return base_gen

    def _change_attrs(self, path: str, edit, rotate: bool = False) -> Stat:
        """The one owner-side attribute change (MSK is the capability).

        ``edit(attrs)`` validates, then applies, the change on a copy of
        the current attributes.  What follows is the same for every
        caller: CAP replicas are created/destroyed to match the new
        attributes; ``rotate`` re-keys everything; otherwise any lost
        read or write ability -- a mode bit or an ACL entry -- re-keys
        the data (immediately, or lazily on the owner's next write:
        paper section IV discusses both); replicas are rewritten, the
        replicas and table views of CAPs that no longer exist are
        deleted, and the parent's pointers refreshed.
        """
        self._charge_other()
        node = self._resolve(path)
        new_attrs = node.attrs.copy()
        edit(new_attrs)
        record = ObjectRecord.from_owner_view(node.view, node.mvk)
        old_attrs, record.attrs = record.attrs, new_attrs
        new_attrs.version += 1
        scheme = self.volume.scheme
        selectors = scheme.selectors(new_attrs)
        record.ensure_selector_keys(selectors)
        record.drop_selectors(selectors)
        kept_users = {entry.user_id for entry in new_attrs.acl}
        gone_users = [entry.user_id for entry in old_attrs.acl
                      if entry.user_id not in kept_users]
        #: what generation a revoked view's base (if any) is stored at.
        base_gen = 0
        if rotate:
            record.rekey_data()
            record.rekey_metadata()
            base_gen = self._reencrypt_data(record, node, old_attrs)
        elif gone_users or self._is_revocation(old_attrs, new_attrs):
            if self.config.immediate_revocation:
                record.rekey_data()
                base_gen = self._reencrypt_data(record, node, old_attrs)
            else:
                record.needs_rekey = True
                if new_attrs.ftype == DIRECTORY:
                    base_gen = fetch_table(self, node).base_gen
        elif layout.table_views(scheme, old_attrs) != layout.table_views(
                scheme, new_attrs):
            # View styles or the view set changed (e.g. o--x -> o-rx):
            # every table view is rebuilt from the management copy.
            base_gen = self._reencrypt_data(record, node, old_attrs)
        self._write_metadata_replicas(record)
        kept = set(layout.replica_ids(scheme, new_attrs, base_gen))
        doomed = [blob_id for blob_id in layout.replica_ids(
                      scheme, old_attrs, base_gen)
                  if blob_id not in kept]
        doomed += [lockbox_blob(new_attrs.inode, user_id)
                   for user_id in gone_users]
        self.blobs.send([(blob_id, None) for blob_id in doomed],
                        grouped=False)
        self._refresh_parent_pointers(path, record, old_attrs)
        return Stat.from_attrs(new_attrs)

    @traced("chmod")
    @mutating("chmod")
    def chmod(self, path: str, mode: int) -> Stat:
        """Change permissions (owner only)."""
        def edit(attrs: MetadataAttrs) -> None:
            self._validate_mode(mode, attrs.ftype, attrs.acl)
            attrs.mode = mode

        return self._change_attrs(path, edit)

    def _refresh_parent_pointers(self, path: str, record: ObjectRecord,
                                 old_attrs: MetadataAttrs) -> None:
        """Update parent rows / superblocks if the pointer structure moved.

        Pointers embed the child's MEK and MVK, so rows refresh whenever
        (a) the scheme maps any parent chain to a different child
        selector/kind than before, or (b) the child's metadata keys
        rotated.  A plain permission tweak that keeps structure and keys
        touches no parent state -- the paper's Fig. 8 chmod cost.
        """
        scheme = self.volume.scheme
        sb = self._require_mounted()
        if record.attrs.inode == sb.root_inode:
            # The superblocks are this op's writes like any other: sent
            # inside it (under the journal, in its frame), and adopted
            # once they are on the SSP.
            self.blobs.send(self.volume.superblocks(self.provider, record),
                            grouped=True)

            def adopt() -> None:
                self.volume._root_record = record
                self._superblock = self.volume.superblock(
                    record, self.agent.user_id)

            self.mutation.on_landed(adopt)
            return
        parent_path, name = fspath.parent_and_name(path)
        parent = self._resolve(parent_path)

        old_pointers = {
            s: scheme.child_pointer(parent.attrs, old_attrs, s)
            for s in scheme.selectors(parent.attrs)}
        new_pointers = {
            s: scheme.child_pointer(parent.attrs, record.attrs, s)
            for s in scheme.selectors(parent.attrs)}
        if (old_pointers != new_pointers
                or self._pointer_keys_changed(record, parent, name)):
            add_row(self, parent, name, record, replace=True)
        if any(kind == SPLIT for kind, _ in new_pointers.values()) or (
                record.attrs.acl):
            self._write_lockboxes(record)

    def _pointer_keys_changed(self, record: ObjectRecord,
                              parent: ResolvedNode, name: str) -> bool:
        """Do the parent's current rows still carry the right MEK/MVK?"""
        table = fetch_table(self, parent)
        if table.style != "full":
            return True
        entry = table.entries.get(name)
        if entry is None or entry.pointer is None:
            return True
        expected_mek = record.selector_meks.get(entry.pointer.selector)
        return (expected_mek != entry.pointer.mek
                or entry.pointer.mvk != record.mvk.to_bytes())

    # ------------------------------------------------------------------ chown / acl

    @traced("chown")
    @mutating("chown")
    def chown(self, path: str, new_owner: str,
              new_group: str | None = None) -> Stat:
        """Transfer ownership: full rekey (the old owner knew every key)."""
        def edit(attrs: MetadataAttrs) -> None:
            self.volume.registry.user(new_owner)  # must exist
            attrs.owner = new_owner
            if new_group is not None:
                attrs.group = new_group

        return self._change_attrs(path, edit, rotate=True)

    @traced("set_acl")
    @mutating("set_acl")
    def set_acl(self, path: str, entries: tuple[AclEntry, ...]) -> Stat:
        """Replace the POSIX-ACL user entries (owner only).

        ACL grants are delivered through public-key lockboxes -- the
        paper's split-point machinery (section III-D).
        """
        def edit(attrs: MetadataAttrs) -> None:
            for entry in entries:
                self.volume.registry.user(entry.user_id)
            self._validate_mode(attrs.mode, attrs.ftype, entries)
            attrs.acl = tuple(entries)

        return self._change_attrs(path, edit)

    @traced("rekey")
    @mutating("rekey")
    def rekey(self, path: str) -> Stat:
        """Rotate every key of an object (owner only).

        Used after group-membership revocation: departed members knew the
        group replica's MEK, so metadata keys rotate and parent pointers
        are refreshed.
        """
        return self._change_attrs(path, lambda attrs: None, rotate=True)
