"""Comparator wide-area filesystems (paper section V's four baselines).

These share one implementation whose metadata/data protection is supplied
by :mod:`repro.baselines.codecs`.  The filesystem semantics mirror the
SHAROES client's operation vocabulary (so workloads drive either
identically), but there is a single metadata copy per object and key
distribution is out-of-band (the shared keystore) -- exactly the modelling
the paper uses: the baselines isolate the *cryptographic* cost differences
on the same networking substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.provider import CryptoProvider
from ..errors import (BlobNotFound, DirectoryNotEmpty, FileExists,
                      FileNotFound, FilesystemError, IsADirectory,
                      NotADirectory)
from ..fs import path as fspath
from ..fs.blobio import (_REQUEST_HEADER_BYTES, _RESPONSE_HEADER_BYTES,
                         BlobIO)
from ..fs.cache import LruCache
from ..fs.client import ClientConfig
from ..fs.inode import InodeAllocator
from ..fs.metadata import MetadataAttrs, Stat
from ..fs.permissions import DIRECTORY, FILE
from ..obs.metrics import (MetricsRegistry, bind_cache_stats,
                           bind_cost_model, bind_crypto_counters,
                           bind_server_stats)
from ..obs.tracing import Tracer, traced
from ..principals.users import User
from ..serialize import Reader, Writer
from ..sim.costmodel import CostModel
from ..storage.blobs import data_blob, meta_blob
from ..storage.server import StorageServer
from .codecs import (DataCodec, MetadataCodec, PlainData, PlainMetadata,
                     PubOptMetadata, PublicMetadata, SharedKeyStore,
                     SymmetricData)


def _table_payload(entries: dict[str, int]) -> bytes:
    writer = Writer()
    writer.put_int(len(entries))
    for name in sorted(entries):
        writer.put_str(name)
        writer.put_int(entries[name])
    return writer.getvalue()


def _parse_table(raw: bytes) -> dict[str, int]:
    reader = Reader(raw)
    entries = {reader.get_str(): reader.get_int()
               for _ in range(reader.get_int())}
    reader.expect_end()
    return entries


@dataclass
class BaselineVolume:
    """Deployment state shared by all clients of one baseline filesystem."""

    server: StorageServer
    keystore: SharedKeyStore = field(default_factory=SharedKeyStore)
    allocator: InodeAllocator = field(default_factory=InodeAllocator)
    root_inode: int | None = None

    def format(self, owner: str = "admin", group: str = "users",
               provider: CryptoProvider | None = None,
               metadata_codec: MetadataCodec | None = None,
               data_codec: DataCodec | None = None,
               admin_key=None) -> None:
        """Create the root directory object."""
        provider = provider or CryptoProvider()
        metadata_codec = metadata_codec or PlainMetadata()
        data_codec = data_codec or PlainData()
        inode = self.allocator.allocate()
        attrs = MetadataAttrs(inode=inode, ftype=DIRECTORY, owner=owner,
                              group=group, mode=0o755)
        writer = Writer()
        attrs.to_writer(writer)
        self.server.put(
            meta_blob(inode, "-"),
            metadata_codec.encode(provider, self.keystore, inode,
                                  writer.getvalue(), admin_key))
        self.server.put(
            data_blob(inode, "t"),
            data_codec.encode(provider, self.keystore, inode,
                              _table_payload({})))
        self.root_inode = inode


class BaselineFilesystem:
    """One mounted comparator client."""

    #: subclass hook: (metadata codec class, data codec class)
    metadata_codec_cls: type[MetadataCodec] = PlainMetadata
    data_codec_cls: type[DataCodec] = PlainData
    name = "baseline"

    def __init__(self, volume: BaselineVolume, user: User,
                 cost_model: CostModel | None = None,
                 config: ClientConfig | None = None):
        self.volume = volume
        self.user = user
        self.config = config or ClientConfig()
        self.provider = CryptoProvider()
        self.cost = cost_model
        if cost_model is not None:
            self.provider.add_listener(cost_model.on_crypto_event)
        self.cache = LruCache(self.config.cache_bytes)
        self._meta = self.metadata_codec_cls()
        self._data = self.data_codec_cls()
        #: same observability surface as the SHAROES client, so the
        #: comparator figures carry identical per-phase breakdowns.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(
            clock=cost_model.clock if cost_model is not None else None,
            registry=self.metrics)
        if cost_model is not None:
            cost_model.tracer = self.tracer
            bind_cost_model(self.metrics, cost_model)
        bind_cache_stats(self.metrics, self.cache)
        bind_crypto_counters(self.metrics, self.provider)
        bind_server_stats(self.metrics, volume.server)
        #: the same framed single ops as the SHAROES client (the shared
        #: networking substrate), with no readahead slots, journal or
        #: scheduler.
        self.blobs = BlobIO(volume.server, None, tracer=self.tracer,
                            metrics=self.metrics, cost=cost_model)

    def _charge_other(self) -> None:
        if self.cost is not None:
            self.cost.charge_other()

    # -- internals ---------------------------------------------------------------

    @traced("mount", path_arg=None)
    def mount(self) -> None:
        """Baselines have no superblock handshake; mount is a no-op hook."""

    def revalidate(self) -> None:
        """Close-to-open boundary: drop cached metadata and tables.

        Baselines always use the conservative model -- they have no
        signed versions to pin a verified cache on.
        """
        self.cache.invalidate_prefix(("meta",))
        self.cache.invalidate_prefix(("table",))

    def _root(self) -> int:
        if self.volume.root_inode is None:
            raise FilesystemError("volume is not formatted")
        return self.volume.root_inode

    def _fetch_attrs(self, inode: int) -> MetadataAttrs:
        key = ("meta", inode)
        cached = self.cache.get(key)
        if cached is not None:
            with self.tracer.span("cache", hit=True, kind="meta"):
                return cached
        blob = self.blobs.get(meta_blob(inode, "-"))
        payload = self._meta.decode(self.provider, self.volume.keystore,
                                    inode, blob, self.user.keypair)
        attrs = MetadataAttrs.from_reader(Reader(payload))
        self.cache.put(key, attrs, len(blob))
        return attrs

    def _write_attrs(self, attrs: MetadataAttrs) -> None:
        writer = Writer()
        attrs.to_writer(writer)
        blob = self._meta.encode(self.provider, self.volume.keystore,
                                 attrs.inode, writer.getvalue(),
                                 self.user.keypair)
        self.blobs.send([(meta_blob(attrs.inode, "-"), blob)],
                        grouped=False)
        # Write-through: no need to re-fetch our own write.
        self.cache.put(("meta", attrs.inode), attrs, len(blob))

    def _fetch_table(self, inode: int) -> dict[str, int]:
        key = ("table", inode)
        cached = self.cache.get(key)
        if cached is not None:
            with self.tracer.span("cache", hit=True, kind="table"):
                return cached
        blob = self.blobs.get(data_blob(inode, "t"))
        entries = _parse_table(self._data.decode(
            self.provider, self.volume.keystore, inode, blob))
        self.cache.put(key, entries, len(blob))
        return entries

    def _write_table(self, inode: int, entries: dict[str, int]) -> None:
        blob = self._data.encode(self.provider, self.volume.keystore,
                                 inode, _table_payload(entries))
        self.blobs.send([(data_blob(inode, "t"), blob)], grouped=False)
        # Write-through: no need to re-fetch our own write.
        self.cache.put(("table", inode), entries, len(blob))

    def _resolve(self, path: str) -> MetadataAttrs:
        with self.tracer.span("resolve", path=path):
            inode = self._root()
            attrs = self._fetch_attrs(inode)
            for name in fspath.split_path(path):
                if attrs.ftype != DIRECTORY:
                    raise NotADirectory(path)
                entries = self._fetch_table(attrs.inode)
                if name not in entries:
                    raise FileNotFound(path)
                attrs = self._fetch_attrs(entries[name])
            return attrs

    def _resolve_parent(self, path: str) -> tuple[MetadataAttrs, str]:
        parent_path, name = fspath.parent_and_name(path)
        parent = self._resolve(parent_path)
        if parent.ftype != DIRECTORY:
            raise NotADirectory(parent_path)
        return parent, name

    # -- operations ---------------------------------------------------------------

    @traced("getattr")
    def getattr(self, path: str) -> Stat:
        self._charge_other()
        return Stat.from_attrs(self._resolve(path))

    @traced("readdir")
    def readdir(self, path: str) -> list[str]:
        self._charge_other()
        attrs = self._resolve(path)
        if attrs.ftype != DIRECTORY:
            raise NotADirectory(path)
        return sorted(self._fetch_table(attrs.inode))

    def _create(self, path: str, mode: int, ftype: str) -> Stat:
        self._charge_other()
        parent, name = self._resolve_parent(path)
        entries = self._fetch_table(parent.inode)
        if name in entries:
            raise FileExists(path)
        inode = self.volume.allocator.allocate()
        attrs = MetadataAttrs(inode=inode, ftype=ftype,
                              owner=self.user.user_id, group=parent.group,
                              mode=mode)
        self._write_attrs(attrs)
        if ftype == DIRECTORY:
            self._write_table(inode, {})
        entries = dict(entries)
        entries[name] = inode
        self._write_table(parent.inode, entries)
        return Stat.from_attrs(attrs)

    @traced("mknod")
    def mknod(self, path: str, mode: int = 0o644) -> Stat:
        return self._create(path, mode, FILE)

    @traced("mkdir")
    def mkdir(self, path: str, mode: int = 0o755) -> Stat:
        return self._create(path, mode, DIRECTORY)

    @traced("read_file")
    def read_file(self, path: str) -> bytes:
        self._charge_other()
        attrs = self._resolve(path)
        if attrs.ftype != FILE:
            raise IsADirectory(path)
        key = ("data", attrs.inode)
        if self.config.data_cache:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        try:
            blob = self.blobs.get(data_blob(attrs.inode, "b"))
        except BlobNotFound:
            return b""
        content = self._data.decode(self.provider, self.volume.keystore,
                                    attrs.inode, blob)
        if self.config.data_cache:
            self.cache.put(key, content, len(content))
        return content

    @traced("write_file")
    def write_file(self, path: str, content: bytes) -> None:
        """Write + close: encrypt the file and send it (paper Fig. 8)."""
        self._charge_other()
        attrs = self._resolve(path)
        if attrs.ftype != FILE:
            raise IsADirectory(path)
        blob = self._data.encode(self.provider, self.volume.keystore,
                                 attrs.inode, content)
        self.blobs.send([(data_blob(attrs.inode, "b"), blob)],
                        grouped=False)
        if self.config.data_cache:
            self.cache.put(("data", attrs.inode), content, len(content))

    @traced("append_file")
    def append_file(self, path: str, content: bytes) -> None:
        existing = self.read_file(path)
        self.write_file(path, existing + content)

    @traced("create_file")
    def create_file(self, path: str, content: bytes = b"",
                    mode: int = 0o644) -> Stat:
        stat = self.mknod(path, mode)
        if content:
            self.write_file(path, content)
        return stat

    @traced("chmod")
    def chmod(self, path: str, mode: int) -> Stat:
        """Modify metadata, re-encode, send (paper Fig. 8's chmod)."""
        self._charge_other()
        attrs = self._resolve(path)
        attrs = attrs.copy()
        attrs.mode = mode
        attrs.version += 1
        self._write_attrs(attrs)
        return Stat.from_attrs(attrs)

    @traced("unlink")
    def unlink(self, path: str) -> None:
        self._charge_other()
        parent, name = self._resolve_parent(path)
        entries = dict(self._fetch_table(parent.inode))
        if name not in entries:
            raise FileNotFound(path)
        inode = entries.pop(name)
        victim = self._fetch_attrs(inode)
        if victim.ftype != FILE:
            raise IsADirectory(path)
        self._write_table(parent.inode, entries)
        if self.cost is not None:
            # One batched delete request for both blobs.
            self.cost.charge_request(2 * _REQUEST_HEADER_BYTES,
                                     _RESPONSE_HEADER_BYTES)
        self.volume.server.delete(meta_blob(inode, "-"))
        self.volume.server.delete(data_blob(inode, "b"))
        self.volume.keystore.forget(inode)
        self.cache.invalidate(("meta", inode))
        self.cache.invalidate(("data", inode))

    @traced("rmdir")
    def rmdir(self, path: str) -> None:
        self._charge_other()
        parent, name = self._resolve_parent(path)
        entries = dict(self._fetch_table(parent.inode))
        if name not in entries:
            raise FileNotFound(path)
        inode = entries[name]
        victim = self._fetch_attrs(inode)
        if victim.ftype != DIRECTORY:
            raise NotADirectory(path)
        if self._fetch_table(inode):
            raise DirectoryNotEmpty(path)
        del entries[name]
        self._write_table(parent.inode, entries)
        if self.cost is not None:
            self.cost.charge_request(2 * _REQUEST_HEADER_BYTES,
                                     _RESPONSE_HEADER_BYTES)
        self.volume.server.delete(meta_blob(inode, "-"))
        self.volume.server.delete(data_blob(inode, "t"))
        self.volume.keystore.forget(inode)


class NoEncMdD(BaselineFilesystem):
    """NO-ENC-MD-D: nothing encrypted (pure networking baseline)."""

    name = "no-enc-md-d"
    metadata_codec_cls = PlainMetadata
    data_codec_cls = PlainData


class NoEncMd(BaselineFilesystem):
    """NO-ENC-MD: plaintext metadata, symmetric data."""

    name = "no-enc-md"
    metadata_codec_cls = PlainMetadata
    data_codec_cls = SymmetricData


class PublicFs(BaselineFilesystem):
    """PUBLIC: public-key metadata (SiRiUS/SNAD/Farsite style)."""

    name = "public"
    metadata_codec_cls = PublicMetadata
    data_codec_cls = SymmetricData


class PubOptFs(BaselineFilesystem):
    """PUB-OPT: symmetric metadata, public-key-wrapped metadata keys."""

    name = "pub-opt"
    metadata_codec_cls = PubOptMetadata
    data_codec_cls = SymmetricData


BASELINES: dict[str, type[BaselineFilesystem]] = {
    cls.name: cls for cls in (NoEncMdD, NoEncMd, PublicFs, PubOptFs)}


def make_baseline_volume(name: str, server: StorageServer,
                         admin: User) -> BaselineVolume:
    """Create and format a volume for the named baseline."""
    cls = BASELINES[name]
    volume = BaselineVolume(server=server)
    volume.format(owner=admin.user_id,
                  metadata_codec=cls.metadata_codec_cls(),
                  data_codec=cls.data_codec_cls(),
                  admin_key=admin.keypair)
    return volume
