"""A directory's table views (paper sections II-III): the one table
loader and the one table store, the row edits a mutation makes in a
parent, and the rebuild of every view under new keys.

Keys travel in-band -- a parent's rows carry each child's MEK and MVK
-- so a row edit needs the parent's write CAP (its table DEK map and
DSK), which is how the cryptography enforces the *nix w+x rule.  Every
function takes the mounted client (``fs``) first.
"""

from __future__ import annotations

import functools

from ..caps.record import ObjectRecord
from ..errors import (BlobNotFound, CryptoError, FileExists, FileNotFound,
                      IntegrityError, NotADirectory, PermissionDenied)
from . import layout
from .dirtable import DIRECT, SPLIT, DirEntry, DirPointer, TableView
from .metadata import MetadataAttrs
from .permissions import DIRECTORY


def fetch_table(fs, node) -> TableView:
    if node.attrs.ftype != DIRECTORY:
        raise NotADirectory(f"inode {node.inode} is not a directory")
    cached = fs.mdcache.get_table(node.inode, node.selector)
    if cached is not None:
        fs.mutation.note_cached_table(node.inode)
        return cached
    return load_table(fs, node.inode, node.selector,
                      node.view.require_dek(), node.view.require_dvk())


def require_free(fs, parent, name: str, path: str) -> None:
    """Raise :class:`FileExists` unless ``name`` is free in ``parent``.

    Lease first: "is the name free" must be read from a table no other
    writer can change under us (a kept cache is as good -- see
    ``MutationPipeline.touch``).
    """
    fs.mutation.touch(parent.inode)
    if name in fetch_table(fs, parent):
        raise FileExists(path)


def load_table(fs, inode: int, selector: str, dek: bytes, dvk,
               for_write: bool = False) -> TableView:
    """The one table loader: the blob at the view's id and, when
    that is a head, the base it names -- which must exist, have the
    digest the head carries and verify under its own context
    (fs/layout.py) -- merged into one view.

    A read caches the view (at head + base size) unless any of it
    was served degraded.  A load ``for_write`` refuses degraded
    bytes and caches nothing: its caller edits the view and caches
    what it stores.
    """
    blob_id = layout.table_blob_id(inode, selector)
    blob = fs.blobs.get(blob_id)
    with fs.tracer.span("crypto", op="open_table"):
        view = layout.open_table(fs.provider, dek, dvk, inode,
                                 selector, blob)
    degraded = fs._was_degraded(blob_id, for_write)
    if view.base_gen:
        base_id = layout.table_base_id(inode, selector, view.base_gen)
        try:
            base = fs.blobs.get(base_id)
        except BlobNotFound:
            raise IntegrityError(
                f"inode {inode}: table base {base_id} is missing "
                f"under its head (rollback or stale writer?)"
            ) from None
        with fs.tracer.span("crypto", op="open_table"):
            layout.open_table_base(fs.provider, dek, dvk, inode,
                                   selector, view, base)
        degraded = fs._was_degraded(base_id, for_write) or degraded
    if not (for_write or degraded):
        fs.mdcache.put_table(inode, selector, view,
                             len(blob) + view.base_size)
    return view


def store_tables(fs, inode: int, dsk,
                 views: dict[str, tuple[bytes, TableView]],
                 cache=(), prior_gen: int = 0) -> None:
    """The one table store: every view of a directory (selector ->
    (DEK, view)) goes out in the form ``layout.store_tables`` picks
    -- inline, heads only, or a fold -- as one grouped send.  The
    views of the ``cache`` selectors are written through first, at
    the size they were stored at; that also drops the listing.
    """
    blobs, sizes = layout.store_tables(fs.provider, dsk, inode,
                                       views, prior_gen)
    for selector in cache:
        fs.mdcache.put_table(inode, selector, views[selector][1],
                             sizes[selector])
    fs.blobs.send(blobs, grouped=True)


def write_empty_tables(fs, record: ObjectRecord) -> None:
    scheme = fs.volume.scheme
    store_tables(fs, record.attrs.inode, record.dsk,
                 layout.empty_views(scheme, fs.provider, record),
                 cache=[scheme.owner_selector(record.attrs)])


# -- row edits ----------------------------------------------------------------


def entry_for_selector(scheme, parent_attrs: MetadataAttrs,
                       child_record: ObjectRecord,
                       parent_selector: str, name: str) -> DirEntry:
    """The row the parent's ``parent_selector`` view holds for a child:
    a pointer carrying the child replica's MEK and MVK (DIRECT), or a
    SPLIT or ZERO marker."""
    kind, child_selector = scheme.child_pointer(
        parent_attrs, child_record.attrs, parent_selector)
    if kind == DIRECT:
        pointer = DirPointer(
            selector=child_selector,
            mek=child_record.selector_meks[child_selector],
            mvk=child_record.mvk.to_bytes())
        return DirEntry(name=name, inode=child_record.attrs.inode,
                        kind=DIRECT, pointer=pointer)
    return DirEntry(name=name, inode=child_record.attrs.inode, kind=kind)


def update_parent_tables(fs, parent, mutate) -> None:
    """Put every view of the parent's table through ``mutate`` and
    store them again (a view over a base re-ships its head only).

    ``mutate(view, selector, dek)`` edits one view in place.  Requires
    the parent write CAP (table DEK map + DSK), which is how the
    cryptography enforces the *nix w+x requirement.
    """
    fs.mutation.touch(parent.inode)
    attrs = parent.attrs
    dsk = parent.view.require_dsk()
    table_deks = parent.view.table_deks
    views = {}
    for selector in layout.table_views(fs.volume.scheme, attrs):
        dek = table_deks.get(selector)
        if dek is None:
            raise PermissionDenied(
                f"inode {parent.inode}: missing table key for "
                f"{selector!r}")
        view = fs.mdcache.get_table(attrs.inode, selector)
        if view is None:
            view = load_table(fs, attrs.inode, selector, dek,
                              parent.view.require_dvk(), for_write=True)
        mutate(view, selector, dek)
        views[selector] = (dek, view)
    # Write-through: the client just produced these views, no need
    # to re-fetch and re-verify its own write.
    store_tables(fs, attrs.inode, dsk, views, cache=views)


def add_row(fs, parent, name: str, record: ObjectRecord,
            replace: bool = False) -> bool:
    """Point every view of ``parent``'s table at ``record`` as
    ``name`` (``replace`` drops the name's previous row first).

    Returns whether any view got a SPLIT marker: the caller then owes
    the child's lockboxes.
    """
    split_seen = False

    def add(view: TableView, selector: str, dek: bytes) -> None:
        nonlocal split_seen
        entry = entry_for_selector(fs.volume.scheme, parent.attrs, record,
                                   selector, name)
        split_seen = split_seen or entry.kind == SPLIT
        if replace:
            view.remove(name, provider=fs.provider, table_dek=dek)
        view.add(entry, provider=fs.provider, table_dek=dek)

    update_parent_tables(fs, parent, add)
    return split_seen


def remove_row(fs, parent, name: str) -> None:
    update_parent_tables(
        fs, parent, lambda view, selector, dek: view.remove(
            name, provider=fs.provider, table_dek=dek))


# -- the re-key rebuild ------------------------------------------------------


def rebuild_tables(fs, record: ObjectRecord, node,
                   old_attrs: MetadataAttrs) -> int:
    """Rewrite every table view of a directory under new keys/styles
    (returns the base generation the old views were stored at).

    Each view's rows come, in order of preference, from:

    1. that view's *own* previous rows (a rekey or style change never
       alters which child replica a chain points at);
    2. for views that did not exist before (a chain upgraded from the
       zero CAP) -- re-derived pointers, which requires the child's
       owner replica and therefore works when the caller owns the
       child; otherwise the row is written as a SPLIT marker, to be
       resolved through lockboxes once the child's owner refreshes
       them.

    The canonical (owner, always-FULL) view supplies the name/inode
    census; crucially, its per-chain key material is *never* copied
    into other views -- that would hand the owner's MEKs to every
    reader.
    """
    attrs = record.attrs
    scheme = fs.volume.scheme
    old_record = ObjectRecord.from_owner_view(node.view, node.mvk)
    old_owner_sel = scheme.owner_selector(old_attrs)

    def fetch_old_view(selector: str, dek: bytes) -> TableView:
        return load_table(fs, attrs.inode, selector, dek,
                          old_record.dvk, for_write=True)

    canonical = fetch_old_view(old_owner_sel,
                               old_record.table_deks[old_owner_sel])
    names = sorted(canonical.entries)

    @functools.cache
    def child_record_for(name: str) -> ObjectRecord | None:
        """Child's full record, fetchable only if the caller owns it."""
        row = canonical.entries[name]
        if row.kind != DIRECT or row.pointer is None:
            return None
        try:
            mvk = row.pointer.verification_key
            child_view = fs._fetch_view(
                row.inode, row.pointer.selector, row.pointer.mek, mvk)
            if child_view.is_owner_view:
                return ObjectRecord.from_owner_view(child_view, mvk)
        except (PermissionDenied, CryptoError):
            pass
        return None

    old_views = layout.table_views(scheme, old_attrs)
    views = layout.empty_views(scheme, fs.provider, record)
    for selector, (dek, view) in views.items():
        old_view = None
        old_dek = old_record.table_deks.get(selector)
        if selector in old_views and old_dek is not None:
            try:
                old_view = fetch_old_view(selector, old_dek)
            except (BlobNotFound, CryptoError):
                old_view = None
        for name in names:
            entry = recover_row(fs, name, old_view, old_record, selector)
            if entry is None:
                entry = derive_row(fs, name, canonical, child_record_for,
                                   selector, attrs)
            view.add(entry, provider=fs.provider, table_dek=dek)
    # The fresh views number their bases after the generation they
    # replace (whose bases the same send deletes).
    store_tables(fs, attrs.inode, record.dsk, views,
                 prior_gen=canonical.base_gen)
    return canonical.base_gen


def recover_row(fs, name: str, old_view: TableView | None,
                old_record: ObjectRecord, selector: str) -> DirEntry | None:
    """Extract this view's previous row for ``name``, if recoverable."""
    if old_view is None:
        return None
    if old_view.style == "full":
        return old_view.entries.get(name)
    if old_view.style == "hidden":
        old_dek = old_record.table_deks.get(selector)
        if old_dek is None:
            return None
        try:
            return old_view.lookup(name, provider=fs.provider,
                                   table_dek=old_dek)
        except (FileNotFound, CryptoError):
            return None
    return None  # names-only views carry no pointers


def derive_row(fs, name: str, canonical: TableView, child_record_for,
               selector: str, parent_attrs: MetadataAttrs) -> DirEntry:
    """Mint a fresh row for a chain that had no previous view."""
    census_row = canonical.entries[name]
    child = child_record_for(name)
    if child is None:
        # Caller does not own the child: its per-chain MEKs are out
        # of reach, so readers must go through lockboxes.
        return DirEntry(name=name, inode=census_row.inode, kind=SPLIT)
    return entry_for_selector(fs.volume.scheme, parent_attrs, child,
                              selector, name)
