"""Golden object layout: what one fixed script leaves at the SSP.

The differential suites compare two configurations of *one* commit, so a
refactor that renames a blob, moves a signing context or drops a table
view on both sides passes them.  This test pins the stored form across
commits instead: the sorted blob-id list is committed below, and every
object blob is opened by a decoder spelled out here -- the literal
contexts ``sharoes/<meta|data|table>/<inode>/<qualifier>`` handed to
:func:`repro.fs.sealed.open_verified`, the 4-byte big-endian count
leading block 0, and a ``t:`` blob for exactly the selectors whose class
can see the table.  It deliberately does not import ``fs/layout.py`` and
pins no entropy (ids, contexts, prefix and view sets only).
"""

from __future__ import annotations

import pytest

from repro.crypto.provider import CryptoProvider
from repro.fs.client import SharoesFilesystem
from repro.fs.dirtable import TableView
from repro.fs.metadata import MetadataView
from repro.fs.permissions import AclEntry
from repro.fs.sealed import open_verified
from repro.fs.volume import SharoesVolume
from repro.migration.localfs import LocalTree
from repro.migration.migrate import MigrationTool
from repro.principals.groups import GroupKeyService
from repro.storage.blobs import BlobId
from repro.storage.server import StorageServer

BLOCK = 16
CONTENT = bytes(range(40))              # 16 + 16 + 8: three blocks
NOTE = b"migrated note"

# principal_hash(id), committed: the SSP indexes by these, never raw ids.
ALICE, BOB = "2bd806c97f0e00af", "81b637d8fcd2c6da"
CAROL, DAVE = "4c26d9074c27d89e", "61ea0803f8853523"
ENG, HR = "82fe032bd9337b5d", "1b52f3a2e1514873"
ACL_DAVE = "a:" + DAVE

_COMMON = [
    f"groupkey/0/{ENG}/{ALICE}", f"groupkey/0/{ENG}/{BOB}",
    f"groupkey/0/{HR}/{CAROL}",
    *(f"super/0/{u}" for u in (ALICE, BOB, CAROL, DAVE)),
    "meta/2/g", "meta/2/o", "meta/2/w",
    "data/2/t:g", "data/2/t:o", "data/2/t:w",
]

#: format; mkdir /proj 0750; create /proj/data.bin (3 blocks, 0640);
#: grant dave r--; rename to /proj/final.bin; symlink /proj/link.
CLIENT_BLOBS = sorted(_COMMON + [
    # /proj: the world class (---) has a replica but no table view
    "meta/3/g", "meta/3/o", "meta/3/w", "data/3/t:g", "data/3/t:o",
    # the file: one replica per class + dave's ACL chain, three blocks,
    # a lockbox per user (ACL grants are delivered through lockboxes)
    "meta/4/g", "meta/4/o", "meta/4/w", f"meta/4/{ACL_DAVE}",
    "data/4/b0", "data/4/b1", "data/4/b2",
    *(f"lockbox/4/{u}" for u in (ALICE, BOB, CAROL, DAVE)),
    # the symlink: its target is stored like file content
    "meta/5/g", "meta/5/o", "meta/5/w", "data/5/b0",
])

#: migrate LocalTree{/ 0755, /note.txt 0640}.
MIGRATED_BLOBS = sorted(_COMMON + [
    "meta/3/g", "meta/3/o", "meta/3/w", "data/3/b0",
])

#: rwx bits of a class -> the style of its directory-table view.
STYLE_OF_BITS = {0o7: "full", 0o5: "full", 0o6: "names", 0o4: "names",
                 0o1: "hidden", 0o2: None, 0o0: None}


@pytest.fixture
def client_volume(registry):
    volume = SharoesVolume(StorageServer(), registry, block_size=BLOCK)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, volume.server, CryptoProvider()).publish_all()
    fs = SharoesFilesystem(volume, registry.user("alice"))
    fs.mount()
    fs.mkdir("/proj", mode=0o750)
    fs.create_file("/proj/data.bin", CONTENT, mode=0o640)
    fs.set_acl("/proj/data.bin", (AclEntry("dave", 0o4),))
    fs.rename("/proj/data.bin", "/proj/final.bin")
    fs.symlink("/proj/final.bin", "/proj/link")
    return volume


@pytest.fixture
def migrated_volume(registry):
    volume = SharoesVolume(StorageServer(), registry, block_size=BLOCK)
    tree = LocalTree("alice", "eng", root_mode=0o755)
    tree.add_file("/note.txt", NOTE, owner="alice", group="eng", mode=0o640)
    MigrationTool(volume).migrate(tree)
    GroupKeyService(registry, volume.server, CryptoProvider()).publish_all()
    return volume


def _decode(volume, path: str) -> bytes | dict[str, TableView]:
    """Open every blob of one object with contexts spelled out here.

    Returns the file/symlink content, or the directory's decoded table
    views by selector.  Keys come from the owner's replica, the way the
    owner's client reaches them.
    """
    fs = SharoesFilesystem(volume, volume.registry.user("alice"))
    fs.mount()
    node = fs._resolve(path, follow_last=False)
    owner, inode, blobs = node.view, node.inode, volume.server.raw_blobs()
    provider = CryptoProvider()

    for selector, mek in owner.selector_meks.items():
        replica = MetadataView.from_bytes(open_verified(
            provider, mek, node.mvk,
            f"sharoes/meta/{inode}/{selector}".encode(),
            blobs[BlobId("meta", inode, selector)]))
        assert replica.selector == selector
        assert replica.attrs == owner.attrs
    assert {b.selector for b in blobs
            if b.kind == "meta" and b.inode == inode} \
        == set(owner.selector_meks)

    if owner.attrs.ftype == "dir":
        mode = owner.attrs.mode
        styles = {"o": "full",      # the owner's management copy
                  "g": STYLE_OF_BITS[(mode >> 3) & 0o7],
                  "w": STYLE_OF_BITS[mode & 0o7]}
        views = {}
        for selector, style in styles.items():
            blob = blobs.get(BlobId("data", inode, "t:" + selector))
            assert (blob is not None) == (style is not None), selector
            if blob is None:
                continue
            views[selector] = TableView.from_bytes(open_verified(
                provider, owner.table_deks[selector], owner.dvk,
                f"sharoes/table/{inode}/{selector}".encode(), blob))
            assert views[selector].style == style
        return views

    plain = open_verified(provider, owner.dek, owner.dvk,
                          f"sharoes/data/{inode}/b0".encode(),
                          blobs[BlobId("data", inode, "b0")])
    count, content = int.from_bytes(plain[:4], "big"), plain[4:]
    for index in range(1, count):
        content += open_verified(
            provider, owner.dek, owner.dvk,
            f"sharoes/data/{inode}/b{index}".encode(),
            blobs[BlobId("data", inode, f"b{index}")])
    assert BlobId("data", inode, f"b{count}") not in blobs
    return content


def test_client_script_blob_ids(client_volume):
    assert sorted(map(str, client_volume.server.raw_blobs())) \
        == CLIENT_BLOBS


def test_client_script_decodes(client_volume):
    root = _decode(client_volume, "/")
    assert set(root) == {"o", "g", "w"}
    assert all(sorted(view.entries) == ["proj"] for view in root.values())
    proj = _decode(client_volume, "/proj")
    assert set(proj) == {"o", "g"}
    assert all(sorted(view.entries) == ["final.bin", "link"]
               for view in proj.values())
    assert _decode(client_volume, "/proj/final.bin") == CONTENT
    assert _decode(client_volume, "/proj/link") == b"/proj/final.bin"


def test_block_zero_carries_the_count(client_volume):
    fs = SharoesFilesystem(client_volume,
                           client_volume.registry.user("alice"))
    fs.mount()
    view = fs._resolve("/proj/final.bin").view
    plain = open_verified(
        CryptoProvider(), view.dek, view.dvk, b"sharoes/data/4/b0",
        client_volume.server.get(BlobId("data", 4, "b0")))
    assert plain == b"\x00\x00\x00\x03" + CONTENT[:BLOCK]


def test_migrated_tree_has_the_same_layout(migrated_volume):
    assert sorted(map(str, migrated_volume.server.raw_blobs())) \
        == MIGRATED_BLOBS
    root = _decode(migrated_volume, "/")
    assert set(root) == {"o", "g", "w"}
    assert all(sorted(view.entries) == ["note.txt"]
               for view in root.values())
    assert _decode(migrated_volume, "/note.txt") == NOTE


# -- the split form: a view too large for one 4 KiB page -----------------------

SPLIT_FILES = 36

#: format; mkdir /big 0751 (inode 3); mknod /big/f00 .. f35.  The exec-only
#: world view (name-keyed cells, the largest rows) outgrows the page first
#: and every view of the directory folds with it: a base ``t:<sel>@1``
#: under a head at the view's old id.
SPLIT_BLOBS = sorted(_COMMON + [
    "meta/3/g", "meta/3/o", "meta/3/w",
    "data/3/t:g", "data/3/t:o", "data/3/t:w",
    "data/3/t:g@1", "data/3/t:o@1", "data/3/t:w@1",
    *(f"meta/{inode}/{sel}" for inode in range(4, 4 + SPLIT_FILES)
      for sel in "gow"),
])


def test_split_directory_layout(registry):
    import hashlib

    from repro.serialize import Reader

    volume = SharoesVolume(StorageServer(), registry, block_size=BLOCK)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, volume.server, CryptoProvider()).publish_all()
    fs = SharoesFilesystem(volume, registry.user("alice"))
    fs.mount()
    fs.mkdir("/big", mode=0o751)
    names = [f"f{i:02d}" for i in range(SPLIT_FILES)]
    for name in names:
        fs.mknod("/big/" + name, mode=0o644)
    blobs = volume.server.raw_blobs()
    assert sorted(map(str, blobs)) == SPLIT_BLOBS

    owner = fs._resolve("/big").view
    provider = CryptoProvider()
    for selector, style in (("o", "full"), ("g", "full"), ("w", "hidden")):
        dek = owner.table_deks[selector]
        base_blob = blobs[BlobId("data", 3, f"t:{selector}@1")]
        plain = open_verified(provider, dek, owner.dvk,
                              f"sharoes/table/3/{selector}".encode(),
                              blobs[BlobId("data", 3, "t:" + selector)])
        # The head, field by field: marker, generation, the sealed
        # base's SHA-256, then the rows added since in the ordinary view
        # encoding, then the base keys removed since.
        reader = Reader(plain)
        assert reader.get_str() == "head"
        assert reader.get_int() == 1
        assert reader.get_bytes() == hashlib.sha256(base_blob).digest()
        assert reader.get_str() == style
        added = reader.get_int()
        head = TableView.from_bytes(plain)
        assert (head.style, head.entry_count()) == (style, added)
        base = TableView.from_bytes(open_verified(
            provider, dek, owner.dvk,
            f"sharoes/table/3/{selector}@1".encode(), base_blob))
        assert (base.style, base.base_gen) == (style, 0)
        assert 0 < added < base.entry_count()
        head.overlay(base, len(base_blob))
        assert head.entry_count() == SPLIT_FILES
        if style == "full":
            assert sorted(head.entries) == names
