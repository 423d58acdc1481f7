"""The stored form of one object -- the only module that knows it.

In the paper an object *is* its blob set at the SSP (sections III-D and
IV), and access control is which of those blobs and keys exist:

* ``meta/<inode>/<selector>`` -- one sealed metadata replica per CAP
  selector, owner's first (:func:`metadata_replicas`);
* ``data/<inode>/b<k>`` -- file or symlink content in ``block_size``
  pieces; block 0's plaintext leads with the total block count, so a
  reader needs no fresh metadata to know where the file ends;
* ``data/<inode>/t:<selector>`` -- one directory-table view per selector
  whose CAP can see the table at all (:func:`table_views`);
* ``lockbox/<inode>/<user-hash>`` -- split points.  Their two writers
  (the client's, the migrator's) differ in dedup and reporting and stay
  where they are.

Every sealed blob is bound to its location by the context string
``sharoes/<meta|data|table>/<inode>/<qualifier>`` (see fs/sealed.py).
Ids, data and table contexts, the count prefix and the selector loops
are spelled here and nowhere else (a replica's own seal stays with
``ObjectRecord.metadata_blob``: which keys it carries is CAP policy): the
volume formatter, the migrator, the client and fsck's census all call
in.  The ``seal_*`` functions return the ``(blob id, sealed bytes)`` pair
``BlobIO.send`` and ``put`` take.
"""

from __future__ import annotations

from typing import Iterator

from ..caps.model import VIEW_FULL, VIEW_NONE
from ..storage.blobs import DATA, META, BlobId, data_blob, meta_blob
from .dirtable import TableView
from .permissions import DIRECTORY
from .sealed import bind_context, open_verified, seal_and_sign

_TABLE_PREFIX = "t:"
#: width of the big-endian block count leading block 0's plaintext.
_COUNT_BYTES = 4


def table_blob_id(inode: int, selector: str) -> BlobId:
    """Blob id of one directory-table view."""
    return data_blob(inode, _TABLE_PREFIX + selector)


def block_blob_id(inode: int, index: int) -> BlobId:
    """Blob id of one file data block."""
    return data_blob(inode, f"b{index}")


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


def seal_table(provider, dek: bytes, dsk, inode: int, selector: str,
               view: TableView) -> tuple[BlobId, bytes]:
    context = bind_context("table", inode, selector)
    return (table_blob_id(inode, selector),
            seal_and_sign(provider, dek, dsk, context, view.to_bytes()))


def open_table(provider, dek: bytes, dvk, inode: int, selector: str,
               blob: bytes) -> TableView:
    context = bind_context("table", inode, selector)
    return TableView.from_bytes(
        open_verified(provider, dek, dvk, context, blob))


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


def replica_ids(scheme, attrs) -> list[BlobId]:
    """The census: every metadata-replica and table-view id an object
    with these attributes has stored, selector by selector.

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
    return ids


def in_census(blob_id: BlobId) -> bool:
    """Is this id of a kind :func:`replica_ids` enumerates?"""
    return blob_id.kind == META or (
        blob_id.kind == DATA and blob_id.selector.startswith(_TABLE_PREFIX))
