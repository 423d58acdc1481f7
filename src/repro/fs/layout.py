"""The stored form of one object -- the only module that knows it.

In the paper an object *is* its blob set at the SSP (sections III-D and
IV), and access control is which of those blobs and keys exist:

* ``meta/<inode>/<selector>`` -- one sealed metadata replica per CAP
  selector, owner's first (:func:`metadata_replicas`);
* ``data/<inode>/b<k>`` -- file or symlink content in ``block_size``
  pieces; block 0's plaintext leads with the total block count, so a
  reader needs no fresh metadata to know where the file ends;
* ``data/<inode>/t:<selector>`` -- one directory-table view per selector
  whose CAP can see the table at all (:func:`table_views`): the whole
  view while its sealed form fits one page (``TABLE_PAGE_BYTES``),
  else a small **head** over
* ``data/<inode>/t:<selector>@<g>`` -- the immutable **base** of
  generation ``g >= 1``: an ordinary view holding the rows as they
  stood at the last fold.  The head names ``g`` and the digest of the
  sealed base and carries what changed since (rows added, base keys
  dead), so a row change re-ships the heads, not the directory.  All
  views of a directory share one ``g`` (:func:`store_tables`);
* ``lockbox/<inode>/<user-hash>`` -- split points.  Their two writers
  (the client's, the migrator's) differ in dedup and reporting and stay
  where they are.

Every sealed blob is bound to its location by the context string
``sharoes/<meta|data|table>/<inode>/<qualifier>`` (see fs/sealed.py; a
base's qualifier is ``<selector>@<g>``).  A fold writes the bases
``@g+1``, then the heads, then deletes the bases ``@g`` -- one batch
whose every prefix leaves each view readable.
Ids, data and table contexts, the count prefix, the page and the selector
loops are spelled here and nowhere else (a replica's own seal stays with
``ObjectRecord.metadata_blob``: which keys it carries is CAP policy): the
volume formatter, the migrator, the client and fsck's census all call
in.  The ``seal_*`` functions return the ``(blob id, sealed bytes)`` pair
``BlobIO.send`` and ``put`` take.
"""

from __future__ import annotations

from typing import Iterator

from ..caps.model import VIEW_FULL, VIEW_NONE
from ..errors import IntegrityError
from ..storage.blobs import (DATA, META, BlobId, block_blob, data_blob,
                             meta_blob)
from .dirtable import TableView
from .permissions import DIRECTORY
from .sealed import bind_context, open_verified, seal_and_sign

_TABLE_PREFIX = "t:"
#: a table view whose sealed form outgrows this is stored as base + head,
#: and a head that outgrows it folds into the next base.
TABLE_PAGE_BYTES = 4096
#: width of the big-endian block count leading block 0's plaintext.
_COUNT_BYTES = 4


def table_blob_id(inode: int, selector: str) -> BlobId:
    """Blob id of one directory-table view."""
    return data_blob(inode, _TABLE_PREFIX + selector)


def _base_qualifier(selector: str, gen: int) -> str:
    return f"{selector}@{gen}"


def table_base_id(inode: int, selector: str, gen: int) -> BlobId:
    """Blob id of generation ``gen`` of one view's base."""
    return table_blob_id(inode, _base_qualifier(selector, gen))


def block_blob_id(inode: int, index: int) -> BlobId:
    """Blob id of one file data block."""
    return block_blob(inode, index)


# -- file data blocks -------------------------------------------------------------

def split_blocks(content: bytes, block_size: int) -> list[bytes]:
    """Cut content into blocks (an empty file has no blocks at all)."""
    return [content[i:i + block_size]
            for i in range(0, len(content), block_size)]


def count_prefixed(count: int, content: bytes) -> bytes:
    """Plaintext stored for block 0: the total block count, then its
    content (the inverse of :func:`split_count`)."""
    return count.to_bytes(_COUNT_BYTES, "big") + content


def block_payload(blocks: list[bytes], index: int) -> bytes:
    """Plaintext stored for block ``index``: block 0 carries the count."""
    if index == 0:
        return count_prefixed(len(blocks), blocks[0])
    return blocks[index]


def split_count(plain: bytes) -> tuple[int, bytes]:
    """Block 0's opened plaintext -> (total block count, its content)."""
    return (int.from_bytes(plain[:_COUNT_BYTES], "big"),
            plain[_COUNT_BYTES:])


def seal_block(provider, dek: bytes, dsk, inode: int, index: int,
               payload: bytes) -> tuple[BlobId, bytes]:
    context = bind_context("data", inode, f"b{index}")
    return (block_blob_id(inode, index),
            seal_and_sign(provider, dek, dsk, context, payload))


def open_block(provider, dek: bytes, dvk, inode: int, index: int,
               blob: bytes) -> bytes:
    """Verify + decrypt one block (block 0 still carries its count)."""
    context = bind_context("data", inode, f"b{index}")
    return open_verified(provider, dek, dvk, context, blob)


# -- directory-table views --------------------------------------------------------

def table_style(scheme, attrs, selector: str) -> str:
    """View style for one table replica.

    The owner's table view is always the full management copy: the
    owner needs canonical rows to rebuild every view on chmod/chown,
    and honest-client checks still apply the owner's actual CAP.
    Zero-CAP selectors have no table view at all (VIEW_NONE) -- their
    metadata replica exists for stat, but the directory's data block
    is unreachable.
    """
    if selector == scheme.owner_selector(attrs):
        return VIEW_FULL
    return scheme.cap_for_selector(attrs, selector).table_view


def table_views(scheme, attrs) -> dict[str, str]:
    """selector -> style for every table view the object has stored
    (owner's first; empty for files and symlinks)."""
    if attrs.ftype != DIRECTORY:
        return {}
    views = {}
    for selector in scheme.selectors(attrs):
        style = table_style(scheme, attrs, selector)
        if style != VIEW_NONE:
            views[selector] = style
    return views


def empty_views(scheme, provider, record) -> dict[str, tuple]:
    """Every table view of a directory ``record``, empty: selector ->
    (its table DEK, the view)."""
    return {selector: (record.table_deks[selector], TableView.build(
                style, [], provider=provider,
                table_dek=record.table_deks[selector]))
            for selector, style in table_views(scheme, record.attrs).items()}


def seal_table(provider, dek: bytes, dsk, inode: int, qualifier: str,
               view: TableView) -> tuple[BlobId, bytes]:
    """Seal what ``view`` serializes to -- every row, or its head -- at
    ``t:<qualifier>`` (a selector, or a base's ``<selector>@<g>``)."""
    context = bind_context("table", inode, qualifier)
    return (table_blob_id(inode, qualifier),
            seal_and_sign(provider, dek, dsk, context, view.to_bytes()))


def open_table(provider, dek: bytes, dvk, inode: int, selector: str,
               blob: bytes) -> TableView:
    """Verify + decrypt the blob at a view's own id.  A result with a
    ``base_gen`` is a head: its base is owed (:func:`open_table_base`)."""
    context = bind_context("table", inode, selector)
    return TableView.from_bytes(
        open_verified(provider, dek, dvk, context, blob))


def open_table_base(provider, dek: bytes, dvk, inode: int, selector: str,
                    head: TableView, blob: bytes) -> None:
    """Merge into a verified ``head`` the base it names: ``blob`` must
    have the digest the head carries and verify under its own context."""
    if provider.digest(blob) != head.base_digest:
        raise IntegrityError(
            f"inode {inode}: table base {selector}@{head.base_gen} is "
            f"not the one its head names (rollback or stale writer?)")
    context = bind_context("table", inode,
                           _base_qualifier(selector, head.base_gen))
    head.overlay(TableView.from_bytes(
        open_verified(provider, dek, dvk, context, blob)), len(blob))


def store_tables(provider, dsk, inode: int,
                 views: dict[str, tuple[bytes, TableView]],
                 prior_gen: int = 0
                 ) -> tuple[list[tuple[BlobId, "bytes | None"]],
                            dict[str, int]]:
    """The one table store: every view of a directory (selector -> (DEK,
    view)) -> the blobs to send, in order, and each view's stored size.

    The form follows from the sealed sizes alone.  Views that all fit
    the page are stored inline, byte for byte as they always were; views
    already over a base re-ship only their heads.  When a view outgrows
    the page (or a head does, or the directory emptied, or fresh views
    replace a stored generation ``prior_gen``) the directory *folds*,
    all views together: rows that fit again go back inline, otherwise
    they become the bases of the next generation under empty heads;
    either way the old bases are deleted last.  Views are left knowing
    the form they were stored in.  Fresh views with nothing stored
    before produce puts only.
    """
    stored = sorted({prior_gen, *(view.base_gen
                                  for _, view in views.values())} - {0})
    live = stored[-1] if stored else 0

    def heads() -> dict[str, tuple[BlobId, bytes]]:
        return {selector: seal_table(provider, dek, dsk, inode, selector,
                                     view)
                for selector, (dek, view) in views.items()}

    def sizes(sealed) -> dict[str, int]:
        return {selector: len(sealed[selector][1]) + view.base_size
                for selector, (_, view) in views.items()}

    def fits(sealed) -> bool:
        return all(len(blob) <= TABLE_PAGE_BYTES
                   for _, blob in sealed.values())

    if all(view.base_gen == live for _, view in views.values()) and (
            not live or any(view.entry_count()
                            for _, view in views.values())):
        sealed = heads()
        if fits(sealed):
            return list(sealed.values()), sizes(sealed)
    # Fold.  Sealed as bases first: a sealed size does not depend on
    # the context, so the large form is sealed once.
    bases = {}
    for selector, (dek, view) in views.items():
        view.rebase(0)
        bases[selector] = seal_table(
            provider, dek, dsk, inode,
            _base_qualifier(selector, live + 1), view)
    outgoing: list = []
    if not fits(bases):
        for selector, (_, view) in views.items():
            blob = bases[selector][1]
            view.rebase(live + 1, provider.digest(blob), len(blob))
        outgoing += bases.values()
    sealed = heads()
    outgoing += sealed.values()
    outgoing += [(table_base_id(inode, selector, gen), None)
                 for selector in views for gen in stored]
    return outgoing, sizes(sealed)


# -- metadata replicas and the census ---------------------------------------------

def metadata_replicas(scheme, provider,
                      record) -> Iterator[tuple[BlobId, bytes]]:
    """Seal the metadata replicas of ``record`` one by one, owner's
    first (lazily, so a bulk uploader's sends interleave with the
    sealing as they are charged)."""
    attrs = record.attrs
    owner_selector = scheme.owner_selector(attrs)
    for selector in scheme.selectors(attrs):
        cap = scheme.cap_for_selector(attrs, selector)
        yield (meta_blob(attrs.inode, selector),
               record.metadata_blob(provider, selector, cap,
                                    selector == owner_selector))


def replica_ids(scheme, attrs, base_gen: int = 0) -> list[BlobId]:
    """The census: every metadata-replica and table-view id an object
    with these attributes has stored, selector by selector
    (``base_gen``: the generation any one head of the directory names,
    0 while its views are inline).

    Every replica carries the full attributes (ACL included), so anyone
    who can stat the object can compute this; what an attribute change
    must delete is ``replica_ids(old) - replica_ids(new)``.
    """
    views = table_views(scheme, attrs)
    ids = []
    for selector in scheme.selectors(attrs):
        ids.append(meta_blob(attrs.inode, selector))
        if selector in views:
            ids.append(table_blob_id(attrs.inode, selector))
            if base_gen:
                ids.append(table_base_id(attrs.inode, selector, base_gen))
    return ids


def in_census(blob_id: BlobId) -> bool:
    """Is this id of a kind :func:`replica_ids` enumerates?"""
    return blob_id.kind == META or (
        blob_id.kind == DATA and blob_id.selector.startswith(_TABLE_PREFIX))
