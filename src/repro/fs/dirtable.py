"""Directory tables (paper Figure 3) and their per-CAP views.

The classic ext2 directory table maps names to inode numbers.  SHAROES
adds two columns -- the child's MEK and MVK -- so the table not only says
*where* a child's metadata lives but hands over the keys to decrypt and
verify it.  In this reproduction a row also names the child's *selector*
(which metadata replica to fetch) and may instead be a **split marker**
(resolve through a public-key lockbox, paper section III-D) or a **zero
marker** (this permission chain has no access to the child).

Three serialized view styles realize the directory CAPs:

* ``full``   -- all columns (read-exec and rwx CAPs);
* ``names``  -- the name column only (read-only CAP: ``ls`` works,
  traversal does not);
* ``hidden`` -- the name column removed and each row's (inode, selector,
  MEK, MVK) encrypted under a key derived from the child's *name*
  (exec-only CAP: you can ``cd`` to a child you can name, but not list).

A view too large for one stored page is kept as an immutable **base**
plus a small **head** (fs/layout.py decides when and stores both).  In
memory that is still one :class:`TableView` holding the merged rows; it
also remembers which base it overlays and, as rows change, the overlay
its head must carry: the base keys now dead and the keys added or
replaced (a key is a name, or a hidden row's locator).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..crypto import esign, hashes
from ..crypto.provider import CryptoProvider
from ..errors import (CryptoError, FileNotFound, IntegrityError,
                      PermissionDenied)
from ..serialize import Reader, SerializationError, Writer
from ..caps.model import VIEW_FULL, VIEW_HIDDEN, VIEW_NAMES

#: leads a serialized head, where an inline view or a base has its style.
_HEAD = "head"

# Row kinds.
DIRECT = "d"
SPLIT = "s"
ZERO = "z"


@dataclass(frozen=True)
class DirPointer:
    """Keys needed to fetch + open a child's metadata replica."""

    selector: str
    mek: bytes
    mvk: bytes  # serialized VerificationKey

    @cached_property
    def verification_key(self) -> esign.VerificationKey:
        """``mvk`` parsed, once per pointer: a cached table view's rows
        hand every walk through them the same key object, and a rekey
        writes new pointer bytes, so a new pointer and a new key."""
        return esign.VerificationKey.from_bytes(self.mvk)


@dataclass(frozen=True)
class DirEntry:
    """One row of one view: a named child and how (if) to reach it."""

    name: str
    inode: int
    kind: str  # DIRECT | SPLIT | ZERO
    pointer: DirPointer | None = None

    @cached_property
    def encoded(self) -> bytes:
        """The row as a full view serializes it, encoded once: a table
        rewritten on every create and unlink joins these bytes."""
        return Writer().put_str(self.name).getvalue() + self.hidden_payload()

    @classmethod
    def from_reader(cls, reader: Reader) -> "DirEntry":
        name = reader.get_str()
        inode = reader.get_int()
        kind = reader.get_str()
        pointer = None
        if kind == DIRECT:
            pointer = DirPointer(selector=reader.get_str(),
                                 mek=reader.get_bytes(),
                                 mvk=reader.get_bytes())
        return cls(name=name, inode=inode, kind=kind, pointer=pointer)

    def hidden_payload(self) -> bytes:
        """Row content for the exec-only view: everything but the name."""
        writer = Writer()
        writer.put_int(self.inode)
        writer.put_str(self.kind)
        if self.kind == DIRECT:
            assert self.pointer is not None
            writer.put_str(self.pointer.selector)
            writer.put_bytes(self.pointer.mek)
            writer.put_bytes(self.pointer.mvk)
        return writer.getvalue()

    @classmethod
    def from_hidden_payload(cls, name: str, raw: bytes) -> "DirEntry":
        reader = Reader(raw)
        inode = reader.get_int()
        kind = reader.get_str()
        pointer = None
        if kind == DIRECT:
            pointer = DirPointer(selector=reader.get_str(),
                                 mek=reader.get_bytes(),
                                 mvk=reader.get_bytes())
        reader.expect_end()
        return cls(name=name, inode=inode, kind=kind, pointer=pointer)


def _locator(row_key: bytes) -> bytes:
    """Blind index for a hidden row: find-by-name without revealing names."""
    return hashes.hmac(row_key, b"sharoes-row-locator")[:16]


class TableView:
    """One serialized view of a directory table.

    The in-memory representation depends on the style:

    * full:   ``entries`` dict (name -> DirEntry)
    * names:  ``names`` list
    * hidden: ``cells`` dict (locator -> encrypted row)

    ``base_gen`` is the generation of the stored base these rows overlay
    (0: the view is stored inline, whole); :meth:`to_bytes` of a view
    with a base is its head.
    """

    def __init__(self, style: str):
        if style not in (VIEW_FULL, VIEW_NAMES, VIEW_HIDDEN):
            raise ValueError(f"unknown table view style {style!r}")
        self.style = style
        self.entries: dict[str, DirEntry] = {}
        self.names: list[str] = []
        self.cells: dict[bytes, bytes] = {}
        self.base_gen = 0
        #: digest and length of the sealed base blob.
        self.base_digest = b""
        self.base_size = 0
        self._base_keys: frozenset = frozenset()
        #: base keys removed since, and keys added or replaced since.
        self._dead: set = set()
        self._added: set = set()

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(cls, style: str, entries: list[DirEntry],
              provider: CryptoProvider | None = None,
              table_dek: bytes | None = None) -> "TableView":
        """Build a view from per-this-view rows.

        ``provider`` and ``table_dek`` are required for the hidden style
        (rows are encrypted under name-derived keys, charged as crypto).
        """
        view = cls(style)
        if style == VIEW_FULL:
            view.entries = {e.name: e for e in entries}
        elif style == VIEW_NAMES:
            view.names = sorted(e.name for e in entries)
        else:
            if provider is None or table_dek is None:
                raise CryptoError("hidden view needs provider and table DEK")
            for entry in entries:
                view._insert_hidden(entry, provider, table_dek)
        return view

    def _insert_hidden(self, entry: DirEntry, provider: CryptoProvider,
                       table_dek: bytes) -> bytes:
        row_key = provider.derive_row_key(table_dek, entry.name)
        locator = _locator(row_key)
        self.cells[locator] = provider.sym_encrypt(row_key,
                                                   entry.hidden_payload())
        return locator

    def _keys(self):
        """The row keys held, in the style's own container."""
        if self.style == VIEW_FULL:
            return self.entries
        return self.names if self.style == VIEW_NAMES else self.cells

    # -- the overlay on a stored base ---------------------------------------------

    def _note_add(self, key) -> None:
        if self.base_gen:
            self._dead.discard(key)
            self._added.add(key)

    def _note_remove(self, key) -> None:
        # An add that is later removed cancels: the head is an overlay,
        # not a log.
        if self.base_gen:
            self._added.discard(key)
            if key in self._base_keys:
                self._dead.add(key)

    def overlay(self, base: "TableView", base_size: int) -> None:
        """Complete a freshly parsed head with the rows of the verified
        base it names (``base_size``: the sealed base's length)."""
        if base.base_gen or base.style != self.style:
            raise IntegrityError("table base does not fit its head")
        self._base_keys = frozenset(base._keys())
        if self.style == VIEW_NAMES:
            self.names = sorted(
                (self._base_keys - self._dead).union(self.names))
        else:
            rows = {key: row for key, row in base._keys().items()
                    if key not in self._dead}
            rows.update(self._keys())
            if self.style == VIEW_FULL:
                self.entries = rows
            else:
                self.cells = rows
        self.base_size = base_size

    def rebase(self, gen: int, digest: bytes = b"", size: int = 0) -> None:
        """The rows as they stand are what generation ``gen`` stores
        (0: no base, the view is inline): the overlay starts empty."""
        self.base_gen, self.base_digest, self.base_size = gen, digest, size
        self._base_keys = frozenset(self._keys()) if gen else frozenset()
        self._dead, self._added = set(), set()

    # -- queries ------------------------------------------------------------------

    def list_names(self) -> list[str]:
        """The ``ls`` operation on this view."""
        if self.style == VIEW_FULL:
            return sorted(self.entries)
        if self.style == VIEW_NAMES:
            return list(self.names)
        raise PermissionDenied(
            "exec-only directory: listing is not permitted "
            "(rows are name-keyed)")

    def lookup(self, name: str, provider: CryptoProvider | None = None,
               table_dek: bytes | None = None) -> DirEntry:
        """Traversal: find the row for ``name``.

        * full view: direct dictionary lookup;
        * hidden view: derive the row key from the name, locate and
          decrypt the row -- exactly the paper's exec-only semantics;
        * names view: denied (read permission grants listing only).
        """
        if self.style == VIEW_FULL:
            try:
                return self.entries[name]
            except KeyError:
                raise FileNotFound(name) from None
        if self.style == VIEW_HIDDEN:
            if provider is None or table_dek is None:
                raise CryptoError("hidden lookup needs provider and DEK")
            row_key = provider.derive_row_key(table_dek, name)
            cell = self.cells.get(_locator(row_key))
            if cell is None:
                raise FileNotFound(name)
            payload = provider.sym_decrypt(row_key, cell)
            return DirEntry.from_hidden_payload(name, payload)
        raise PermissionDenied(
            "read-only directory: traversal requires exec permission")

    def __contains__(self, name: str) -> bool:
        if self.style == VIEW_FULL:
            return name in self.entries
        if self.style == VIEW_NAMES:
            return name in self.names
        raise PermissionDenied("exec-only view cannot test membership")

    def entry_count(self) -> int:
        if self.style == VIEW_FULL:
            return len(self.entries)
        if self.style == VIEW_NAMES:
            return len(self.names)
        return len(self.cells)

    # -- mutation (writers) ------------------------------------------------------------

    def add(self, entry: DirEntry, provider: CryptoProvider | None = None,
            table_dek: bytes | None = None) -> None:
        if self.style == VIEW_FULL:
            self.entries[entry.name] = entry
            self._note_add(entry.name)
        elif self.style == VIEW_NAMES:
            if entry.name not in self.names:
                self.names.append(entry.name)
                self.names.sort()
                self._note_add(entry.name)
        else:
            if provider is None or table_dek is None:
                raise CryptoError("hidden add needs provider and DEK")
            self._note_add(self._insert_hidden(entry, provider, table_dek))

    def remove(self, name: str, provider: CryptoProvider | None = None,
               table_dek: bytes | None = None) -> None:
        if self.style == VIEW_FULL:
            self.entries.pop(name, None)
            self._note_remove(name)
        elif self.style == VIEW_NAMES:
            if name in self.names:
                self.names.remove(name)
                self._note_remove(name)
        else:
            if provider is None or table_dek is None:
                raise CryptoError("hidden remove needs provider and DEK")
            locator = _locator(provider.derive_row_key(table_dek, name))
            self.cells.pop(locator, None)
            self._note_remove(locator)

    # -- serialization -------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Every row (an inline view, a base), or -- over a base -- the
        head: its generation and digest, the added rows, the dead keys."""
        writer = Writer()
        keys = self._keys()
        if self.base_gen:
            writer.put_str(_HEAD)
            writer.put_int(self.base_gen)
            writer.put_bytes(self.base_digest)
            keys = self._added
        writer.put_str(self.style)
        writer.put_int(len(keys))
        if self.style == VIEW_FULL:
            for name in sorted(keys):
                writer.put_encoded(self.entries[name].encoded)
        elif self.style == VIEW_NAMES:
            for name in sorted(keys):
                writer.put_str(name)
        else:
            for locator in sorted(keys):
                writer.put_bytes(locator)
                writer.put_bytes(self.cells[locator])
        if self.base_gen:
            put = (writer.put_bytes if self.style == VIEW_HIDDEN
                   else writer.put_str)
            writer.put_int(len(self._dead))
            for key in sorted(self._dead):
                put(key)
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "TableView":
        """Inverse of :meth:`to_bytes`; a head comes back holding only
        its own rows until :meth:`overlay` gives it its base."""
        reader = Reader(raw)
        style = reader.get_str()
        gen, digest = 0, b""
        if style == _HEAD:
            gen, digest = reader.get_int(), reader.get_bytes()
            if gen < 1:
                raise SerializationError("table head names no base")
            style = reader.get_str()
        view = cls(style)
        count = reader.get_int()
        if style == VIEW_FULL:
            for _ in range(count):
                entry = DirEntry.from_reader(reader)
                view.entries[entry.name] = entry
        elif style == VIEW_NAMES:
            view.names = [reader.get_str() for _ in range(count)]
        else:
            for _ in range(count):
                locator = reader.get_bytes()
                view.cells[locator] = reader.get_bytes()
        if gen:
            get = (reader.get_bytes if style == VIEW_HIDDEN
                   else reader.get_str)
            view.base_gen, view.base_digest = gen, digest
            view._dead = {get() for _ in range(reader.get_int())}
            view._added = set(view._keys())
        reader.expect_end()
        return view
