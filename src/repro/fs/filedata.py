"""A file's bytes (paper sections II-B and IV): the one block loader,
the write-back handle over a sparse map of a file's blocks, and the
writeback that seals what a handle wrote.

The paper's client caches all writes locally and encrypts them on
close; its block layout means an access costs the blocks it touches,
not the file.  Every function takes the mounted client (``fs``) first;
``SharoesFilesystem`` binds ``read_file``, ``open``, ``write_file`` and
``append_file`` as its own methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..caps.record import ObjectRecord
from ..errors import (BlobNotFound, FilesystemError, IntegrityError,
                      IsADirectory, PermissionDenied)
from . import layout
from .journal import TAIL
from .mutation import mutating
from .permissions import DIRECTORY, FILE


@dataclass
class OpenFile:
    """A write-back file handle over a sparse map of the file's blocks.

    This mirrors the paper's prototype ("we cache all writes locally and
    only encrypt the file before sending it to the SSP as the result of a
    file close"), and its block layout (section II-B) means an access
    costs the blocks it touches, not the file.  Nothing is loaded at
    ``open``; each access loads what it lacks through the filesystem's
    one block loader, which verifies and decrypts every block it returns:

    * ``read(size, offset)`` -- block 0 (it carries the block count) and
      the blocks the range covers; ``read()`` loads every block;
    * ``pwrite`` -- block 0 and the blocks the write touches (also the
      last block when the write starts beyond it: the gap is zero-filled
      from the file's end);
    * ``write`` (append) -- block 0 and the last block: its length is
      the only record of the file's size;
    * ``truncate`` -- block 0 and the new last block (to cut or pad it);
    * ``close`` -- nothing; it seals the written blocks (and block 0
      again when the count changed).  Only a pending lazy revocation
      loads the rest, to re-seal every block under the fresh key.

    Where the blocks an access needs depend on the count (``read()``,
    an append), the loader names them at the count the client last
    verified, so block 0 and they share one flight while it holds.

    The handle also logs its edits, so that a leased close can replay
    them over the blocks another writer left (:meth:`_rebase`).
    """

    fs: "SharoesFilesystem"
    path: str
    node: "ResolvedNode"
    #: "r", "w" (starts empty: close replaces the content), "a" or "rw".
    mode: str
    #: index -> content held (block 0 without its count prefix).  Every
    #: index below ``_count`` that is missing here is unchanged at the SSP.
    _blocks: dict[int, bytes] = field(default_factory=dict)
    #: written index -> what was loaded there (None: a new block), so
    #: close can skip a block rewritten with the bytes it already had.
    _written: dict[int, "bytes | None"] = field(default_factory=dict)
    #: the count block 0 carried when loaded (None: not loaded yet).
    _stored_count: int | None = None
    #: the block count now.
    _count: int = 0
    #: the edits since open, in order, as (offset, data): a pwrite;
    #: (None, data): an append; (size, None): a truncate; (None, None):
    #: the start of "w".  ``data`` is the caller's bytes, not a copy.
    _log: list = field(default_factory=list)
    _dirty: bool = False
    _closed: bool = False
    #: the stored content was discarded unread ("w") and this client did
    #: not last see the file empty, so ``_stored_count`` is a guess:
    #: close deletes the block tail whatever it sends.
    _blind: bool = False

    def __post_init__(self) -> None:
        self.readable = "r" in self.mode
        self.writable = self.mode != "r"
        if self.mode == "w":
            self._log.append((None, None))
            self._start_empty()

    def _require(self, verb: str, allowed: bool) -> None:
        if self._closed:
            raise FilesystemError(f"{verb} on closed handle")
        if not allowed:
            raise PermissionDenied(
                f"{self.path}: not opened for "
                f"{'reading' if verb == 'read' else 'writing'}")

    def _start_empty(self) -> None:
        """Discard the stored content unread ("w": close replaces it)."""
        self._stored_count = 0
        self._dirty = True
        self._blind = self.fs.mdcache.block_count(self.node.inode) != 0

    def _rebase(self) -> None:
        """Drop the block map and replay the edits over blocks loaded
        now: under the lease, over whatever the last writer left.  An
        append lands at the end it finds."""
        self._blocks, self._written = {}, {}
        self._stored_count, self._count = None, 0
        for offset, data in self._log:
            if data is not None:
                self._put(data, self._size() if offset is None else offset)
            elif offset is None:
                self._start_empty()
            else:
                self._resize(offset)

    # -- the block map --------------------------------------------------------

    def _fetch(self, wanted) -> None:
        count, blocks = load_blocks(self.fs, self.node, wanted,
                                    self._stored_count, self.writable)
        if self._stored_count is None:
            self._stored_count = self._count = count
        self._blocks.update(blocks)

    def _hold(self, first: int, last: int | None = None) -> None:
        """Have blocks ``first``..``last`` (None: through the end) in
        the map, as far as the file reaches."""
        if self._stored_count is None:
            # Block 0 for the count, with the range in the same flight;
            # an open end reaches as far as this client last saw.
            self._fetch(range(first, last + 1) if last is not None
                        else lambda count: range(first, count))
        end = self._count if last is None else min(last + 1, self._count)
        missing = [index for index in range(first, end)
                   if index not in self._blocks]
        if missing:
            self._fetch(missing)

    def _set(self, index: int, content: bytes) -> None:
        self._written.setdefault(index, self._blocks.get(index))
        self._blocks[index] = content

    def _size(self) -> int:
        """The length in bytes, which only the last block records."""
        if self._stored_count is None:
            # Block 0 for the count, in one flight with the block this
            # client last saw end the file.
            self._fetch(lambda count: [count - 1])
        if not self._count:
            return 0
        last = self._count - 1
        self._hold(last, last)
        return (last * self.fs.volume.block_size
                + len(self._blocks[last]))

    def _cut(self, size: int) -> None:
        """Shorten to ``size`` bytes (not beyond the current length);
        the block the cut lands in is held."""
        block_size = self.fs.volume.block_size
        self._count = -(-size // block_size)
        for index in [i for i in self._blocks if i >= self._count]:
            del self._blocks[index]
        if size % block_size:
            last = self._count - 1
            self._set(last, self._blocks[last][:size % block_size])

    def _grow(self, size: int) -> None:
        """Zero-extend to ``size`` bytes; the last block is held."""
        block_size = self.fs.volume.block_size
        count = -(-size // block_size)
        for index in range(max(self._count - 1, 0), count):
            length = min(block_size, size - index * block_size)
            self._set(index,
                      self._blocks.get(index, b"").ljust(length, b"\x00"))
        self._count = count

    def _put(self, data: bytes, offset: int) -> None:
        block_size = self.fs.volume.block_size
        end = offset + len(data)
        first, last = offset // block_size, (end - 1) // block_size
        self._hold(first, last)
        if last >= self._count - 1 and end > self._size():
            self._grow(end)
        for index in range(first, last + 1):
            base = index * block_size
            lo = max(offset, base)
            hi = min(end, base + block_size)
            block = self._blocks[index]
            self._set(index, block[:lo - base] + data[lo - offset:hi - offset]
                      + block[hi - base:])
        self._dirty = True

    def _resize(self, size: int) -> None:
        block_size = self.fs.volume.block_size
        # Block 0 for the count, in one flight with the block a cut
        # would land in.
        partial = size // block_size if size % block_size else 0
        self._hold(partial, partial)
        if (-(-size // block_size) < self._count
                or size <= self._size()):
            self._cut(size)
        else:
            self._grow(size)
        self._dirty = True

    # -- the handle -----------------------------------------------------------

    def read(self, size: int | None = None, offset: int = 0) -> bytes:
        with self.fs.tracer.span("read", path=self.path):
            self._require("read", self.readable)
            if size is not None and size <= 0:
                return b""
            block_size = self.fs.volume.block_size
            first = offset // block_size
            self._hold(first, None if size is None
                       else (offset + size - 1) // block_size)
            end = self._count if size is None else min(
                self._count, -(-(offset + size) // block_size))
            data = b"".join(self._blocks[index]
                            for index in range(first, end))
            return data[offset - first * block_size:][:size]

    def write(self, data: bytes) -> int:
        """Append ``data`` at the end of the file."""
        self._require("write", self.writable)
        return self.pwrite(data, self._size(), _append=True)

    def pwrite(self, data: bytes, offset: int, _append: bool = False) -> int:
        """Write at ``offset``; a gap past the end reads back as zeros."""
        with self.fs.tracer.span("write", path=self.path):
            self._require("write", self.writable)
            if data:
                self._log.append((None if _append else offset, data))
                self._put(data, offset)
            return len(data)

    def truncate(self, size: int = 0) -> None:
        """Cut or zero-extend to ``size`` bytes, like ftruncate(2)."""
        with self.fs.tracer.span("truncate", path=self.path):
            self._require("truncate", self.writable)
            self._log.append((size, None))
            self._resize(size)

    def close(self) -> None:
        """Encrypt dirty blocks and upload (the paper's ``close`` cost)."""
        if self._closed:
            return
        self._closed = True
        with self.fs.tracer.span("close", path=self.path,
                                 dirty=self._dirty):
            if self._dirty:
                flush_file(self.fs, self)

    def __enter__(self) -> "OpenFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- the filesystem's file ops ------------------------------------------------


def _file(fs, path: str, mode: str):
    """``path`` resolved to a file this user's CAP opens in ``mode``."""
    fs._charge_other()
    if mode not in ("r", "w", "a", "rw"):
        raise FilesystemError(f"bad open mode {mode!r}")
    node = fs._resolve(path)
    if node.attrs.ftype != FILE:
        raise IsADirectory(path)
    if "r" in mode and node.cap_id not in ("fr", "frw"):
        raise PermissionDenied(f"{path}: not readable (CAP {node.cap_id})")
    if mode != "r" and node.cap_id != "frw":
        raise PermissionDenied(f"{path}: not writable (CAP {node.cap_id})")
    return node


def read_file(fs, path: str) -> bytes:
    """Read a whole file (requires the read CAP)."""
    node = _file(fs, path, "r")
    return b"".join(load_blocks(fs, node, range)[1].values())


def open_file(fs, path: str, mode: str = "r") -> OpenFile:
    """Open a file; ``mode`` in {"r", "w", "a", "rw"}.

    "w" truncates.  Writes stay in the local handle until close.
    """
    return OpenFile(fs, path, _file(fs, path, mode), mode)


def write_file(fs, path: str, data: bytes) -> None:
    """Truncate + write a whole file."""
    with fs.open(path, "w") as handle:
        handle.pwrite(data, 0)


def append_file(fs, path: str, data: bytes) -> None:
    with fs.open(path, "a") as handle:
        # Lease first: a fresh acquisition drops the cached blocks
        # another writer may have outdated, so the base the append
        # extends is read under the lease.
        fs.mutation.touch(handle.node.inode)
        handle.write(data)


# -- blocks ------------------------------------------------------------------


def load_blocks(fs, node, wanted, count: int | None = None,
                for_write: bool = False) -> tuple[int, dict[int, bytes]]:
    """The one block loader: fetch, verify and decrypt the ``wanted``
    blocks of a file/symlink -> (count, index -> content), block 0
    first, then the wanted ones in the order named.

    ``wanted`` is a list of indices, or a function of the block
    count naming them (a whole-file read: ``range``; an append: the
    last block).  ``count`` is the block count when the caller
    already holds block 0; without it block 0 is loaded too, and
    the count it carries (no block 0 is the empty file) is the only
    authority on which blocks exist: a wanted index at or past it is
    not there to load; one below it that the SSP cannot produce is
    an attack.

    With a scheduler the blocks not in the data cache travel as one
    flight, block 0 included: with the indices a list names, or
    those a function names at the count this client last verified
    (``mdcache.block_count``) -- so a whole-file read or an append
    whose count did not move pays one wave.  Wanted blocks that
    flight missed (the file grew) take a second, as they would
    without the guess; speculated ones the count rules out (it
    shrank) are discarded unread (``BlobIO.discard``).  Without a
    scheduler nothing is speculated.  ``for_write`` (a writable
    handle's loads) refuses blocks served degraded: see
    ``SharoesFilesystem._was_degraded``.
    """
    if node.attrs.ftype == DIRECTORY:
        raise IsADirectory(f"inode {node.inode} is a directory")
    dek = node.view.require_dek()
    dvk = node.view.require_dvk()
    inode = node.inode
    pick = wanted if callable(wanted) else (lambda _count: wanted)

    def flight(indices) -> None:
        # Cold is decided here, once per index, without counting a
        # cache lookup; fewer than two leave nothing to overlap.
        cold = [layout.block_blob_id(inode, index) for index in indices
                if not fs.mdcache.has_block(inode, index)]
        if len(cold) > 1:
            fs.blobs.fetch_tail(cold)

    def load(index: int) -> bytes:
        plain: bytes | None = None
        if fs.mdcache.data:
            plain = fs.mdcache.get_block(inode, index)
        if plain is None:
            blob_id = layout.block_blob_id(inode, index)
            blob = fs.blobs.get(blob_id)
            with fs.tracer.span("crypto", op="decrypt_block"):
                plain = layout.open_block(fs.provider, dek, dvk,
                                          inode, index, blob)
            if for_write or fs.mdcache.data:
                if not fs._was_degraded(blob_id, for_write):
                    fs.mdcache.put_block(inode, index, plain)
        return plain

    blocks: dict[int, bytes] = {}
    ahead: list[int] = []
    if count is None:
        if callable(wanted):
            known = fs.mdcache.block_count(inode) or 0
            ahead = [index for index in wanted(known)
                     if 0 < index < known]
        else:
            ahead = list(wanted)
        ahead = sorted({0, *ahead})
        flight(ahead)
        try:
            count, blocks[0] = layout.split_count(load(0))
        except BlobNotFound:
            count = 0  # empty file: no blocks at all
        fs.mdcache.remember_count(inode, count)
    needed = [index for index in pick(count) if 0 < index < count]
    flight(needed)
    for index in needed:
        try:
            blocks[index] = load(index)
        except BlobNotFound:
            raise IntegrityError(
                f"inode {inode}: block {index} missing "
                f"(truncation attack?)") from None
    fs.blobs.discard(layout.block_blob_id(inode, index)
                     for index in ahead if index not in blocks)
    return count, blocks


def tail_blocks(inode: int, first: int, known_end: int) -> list:
    """The one block-tail sweep, as staged blobs that delete ``inode``'s
    blocks from ``first`` on: each below ``known_end``, then one
    :data:`~repro.fs.journal.TAIL` for the run the SSP holds from there
    (a stored count may be stale: a close does not rewrite metadata)."""
    end = max(first, known_end)
    return ([(layout.block_blob_id(inode, index), None)
             for index in range(first, end)]
            + [(layout.block_blob_id(inode, end), TAIL)])


@mutating("writeback")
def flush_file(fs, handle: OpenFile) -> None:
    """Encrypt and upload a handle's written blocks; update metadata
    if owner.

    Only blocks the handle wrote are re-encrypted and re-sent -- the
    point of the paper's per-block encryption -- and of those, not
    one that ends with the bytes it was loaded with.  Block 0 carries
    the total block count, so appends rewrite block 0 plus the new
    blocks, while an in-place change touches exactly one block.  The
    blocks a shrink leaves past the end go in the same frame
    (:func:`tail_blocks`).

    Leased, a handle whose lease this writeback takes over a chain
    another writer moved re-bases first: the blocks it loaded before
    may be outdated, so its edits are replayed over blocks loaded
    under the lease (docs/CACHING.md, "Handles").

    If a lazy revocation is pending (owner view, needs_rekey), this
    write is the moment it takes effect: fresh keys, full rewrite --
    the blocks the handle never needed are loaded for it now.
    """
    node = handle.node
    if fs.mutation.touch(node.inode) and not fs.lease.unbroken:
        handle._rebase()
    dek = node.view.require_dek()
    dsk = node.view.require_dsk()
    record = None
    rekeyed = False
    if node.view.is_owner_view:
        record = ObjectRecord.from_owner_view(node.view, node.mvk)
        if record.needs_rekey:
            handle._hold(0)
            record.rekey_data()
            dek, dsk = record.dek, record.dsk
            rekeyed = True
    old_count = handle._stored_count
    new_count = handle._count
    indices = set(range(new_count)) if rekeyed else {
        index for index in handle._written if index < new_count}
    if new_count and new_count != old_count:
        indices.add(0)
    outgoing = []
    with fs.tracer.span("crypto", op="encrypt_blocks"):
        for index in sorted(indices):
            content = handle._blocks[index]
            unchanged = (not rekeyed
                         and handle._written.get(index) == content
                         and (index > 0 or old_count == new_count))
            payload = (layout.count_prefixed(new_count, content)
                       if index == 0 else content)
            # Write-through: the plaintext is leaving this client.
            fs.mdcache.put_block(node.inode, index, payload)
            if unchanged:
                continue
            outgoing.append(layout.seal_block(
                fs.provider, dek, dsk, node.inode, index, payload))
    old_end = max(old_count, node.attrs.block_count)
    # A close that shrinks the file, or never read its stored end,
    # deletes the blocks past the new end, in the frame of the puts,
    # after them.  One that grows or rewrites in place over the end it
    # read has none of its own there.
    if handle._blind or new_count < old_end:
        outgoing += tail_blocks(node.inode, new_count, old_end)
    fs.blobs.send(outgoing, grouped=True)
    fs.mdcache.remember_count(node.inode, new_count)
    for index in range(new_count, old_end + 1):
        fs.mdcache.drop_block(node.inode, index)
    # Per the paper's Figure 8, close costs exactly "1-dataencrypt,
    # data send": metadata is NOT rewritten on close (writers other
    # than the owner could not sign it anyway -- MSK is owner-only).
    # Sizes in metadata may go stale; block 0 carries the
    # authoritative block count.  The exception: a pending lazy
    # revocation (the fresh DEK must reach the replicas).
    if record is not None and rekeyed:
        record.attrs.size = handle._size()
        record.attrs.block_count = new_count
        record.attrs.version += 1
        fs._write_metadata_replicas(record)
