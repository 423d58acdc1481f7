"""Metadata objects, directory tables, superblock, sealed envelope,
path handling, inode allocation, LRU cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caps.model import VIEW_FULL, VIEW_HIDDEN, VIEW_NAMES
from repro.crypto import rsa
from repro.crypto.keys import new_signature_pair, new_symmetric_key
from repro.crypto.provider import CryptoProvider
from repro.errors import (CryptoError, FileNotFound, IntegrityError,
                          PermissionDenied)
from repro.fs import path as fspath
from repro.fs.cache import LruCache
from repro.fs.dirtable import DIRECT, SPLIT, ZERO, DirEntry, DirPointer, TableView
from repro.fs.inode import InodeAllocator
from repro.fs.metadata import MetadataAttrs, MetadataView, Stat
from repro.fs.permissions import AclEntry
from repro.fs.sealed import (bind_context, open_unverified, open_verified,
                             seal_and_sign)
from repro.fs.superblock import Superblock

provider = CryptoProvider()


def _attrs(**kwargs) -> MetadataAttrs:
    defaults = dict(inode=7, ftype="file", owner="alice", group="eng",
                    mode=0o640)
    defaults.update(kwargs)
    return MetadataAttrs(**defaults)


class TestMetadataSerialization:
    def test_attrs_roundtrip(self):
        attrs = _attrs(size=123, nlink=2, version=9, block_count=3,
                       acl=(AclEntry("dave", 0o4),))
        from repro.serialize import Reader, Writer
        w = Writer()
        attrs.to_writer(w)
        restored = MetadataAttrs.from_reader(Reader(w.getvalue()))
        assert restored == attrs

    def test_view_roundtrip_full(self):
        pair = new_signature_pair(64)
        meta_pair = new_signature_pair(64)
        view = MetadataView(
            attrs=_attrs(), cap_id="frw", selector="o",
            dek=new_symmetric_key(), dvk=pair.verification,
            dsk=pair.signing, msk=meta_pair.signing,
            selector_meks={"o": b"m" * 16, "g": b"g" * 16},
            table_deks={}, needs_rekey=True)
        restored = MetadataView.from_bytes(view.to_bytes())
        assert restored.attrs == view.attrs
        assert restored.cap_id == "frw"
        assert restored.dek == view.dek
        assert restored.dsk.to_bytes() == view.dsk.to_bytes()
        assert restored.msk.to_bytes() == view.msk.to_bytes()
        assert restored.selector_meks == view.selector_meks
        assert restored.needs_rekey is True

    def test_view_roundtrip_minimal(self):
        view = MetadataView(attrs=_attrs(), cap_id="f0", selector="w")
        restored = MetadataView.from_bytes(view.to_bytes())
        assert restored.dek is None
        assert restored.dvk is None
        assert not restored.is_owner_view

    def test_guarded_accessors_raise(self):
        from repro.errors import KeyAccessError
        view = MetadataView(attrs=_attrs(), cap_id="f0", selector="w")
        for accessor in (view.require_dek, view.require_dvk,
                         view.require_dsk, view.require_msk):
            with pytest.raises(KeyAccessError):
                accessor()

    def test_stat_from_attrs(self):
        stat = Stat.from_attrs(_attrs(size=10))
        assert stat.inode == 7
        assert stat.size == 10
        assert stat.mode == 0o640


def _entry(name: str, inode: int = 10) -> DirEntry:
    return DirEntry(name=name, inode=inode, kind=DIRECT,
                    pointer=DirPointer(selector="o", mek=b"m" * 16,
                                       mvk=b"v" * 20))


class TestTableViews:
    def test_full_view_roundtrip(self):
        view = TableView.build(VIEW_FULL, [_entry("a"), _entry("b", 11)])
        restored = TableView.from_bytes(view.to_bytes())
        assert restored.list_names() == ["a", "b"]
        assert restored.lookup("b").inode == 11
        assert restored.lookup("b").pointer.mek == b"m" * 16

    def test_full_view_missing_name(self):
        view = TableView.build(VIEW_FULL, [_entry("a")])
        with pytest.raises(FileNotFound):
            view.lookup("zzz")

    def test_names_view_lists_but_denies_lookup(self):
        view = TableView.build(VIEW_NAMES, [_entry("a"), _entry("b")])
        restored = TableView.from_bytes(view.to_bytes())
        assert restored.list_names() == ["a", "b"]
        with pytest.raises(PermissionDenied):
            restored.lookup("a")

    def test_hidden_view_denies_listing(self):
        dek = new_symmetric_key()
        view = TableView.build(VIEW_HIDDEN, [_entry("a")],
                               provider=provider, table_dek=dek)
        with pytest.raises(PermissionDenied):
            view.list_names()

    def test_hidden_view_lookup_by_exact_name(self):
        dek = new_symmetric_key()
        view = TableView.build(VIEW_HIDDEN, [_entry("secret.txt", 42)],
                               provider=provider, table_dek=dek)
        restored = TableView.from_bytes(view.to_bytes())
        found = restored.lookup("secret.txt", provider=provider,
                                table_dek=dek)
        assert found.inode == 42
        assert found.pointer.selector == "o"

    def test_hidden_view_unknown_name(self):
        dek = new_symmetric_key()
        view = TableView.build(VIEW_HIDDEN, [_entry("secret.txt")],
                               provider=provider, table_dek=dek)
        with pytest.raises(FileNotFound):
            view.lookup("Secret.txt", provider=provider, table_dek=dek)

    def test_hidden_view_wrong_dek_fails(self):
        dek = new_symmetric_key()
        view = TableView.build(VIEW_HIDDEN, [_entry("secret.txt")],
                               provider=provider, table_dek=dek)
        with pytest.raises(FileNotFound):
            view.lookup("secret.txt", provider=provider,
                        table_dek=new_symmetric_key())

    def test_hidden_cells_do_not_leak_names(self):
        dek = new_symmetric_key()
        view = TableView.build(VIEW_HIDDEN,
                               [_entry("quarterly-report.pdf")],
                               provider=provider, table_dek=dek)
        assert b"quarterly-report" not in view.to_bytes()

    def test_add_remove_full(self):
        view = TableView.build(VIEW_FULL, [_entry("a")])
        view.add(_entry("b"))
        view.remove("a")
        assert view.list_names() == ["b"]

    def test_add_remove_hidden(self):
        dek = new_symmetric_key()
        view = TableView.build(VIEW_HIDDEN, [], provider=provider,
                               table_dek=dek)
        view.add(_entry("x"), provider=provider, table_dek=dek)
        assert view.entry_count() == 1
        view.remove("x", provider=provider, table_dek=dek)
        assert view.entry_count() == 0

    def test_names_membership(self):
        view = TableView.build(VIEW_NAMES, [_entry("a")])
        assert "a" in view
        assert "b" not in view

    def test_hidden_membership_denied(self):
        dek = new_symmetric_key()
        view = TableView.build(VIEW_HIDDEN, [], provider=provider,
                               table_dek=dek)
        with pytest.raises(PermissionDenied):
            "a" in view  # noqa: B015

    def test_split_and_zero_entries_roundtrip(self):
        entries = [DirEntry(name="s", inode=1, kind=SPLIT),
                   DirEntry(name="z", inode=2, kind=ZERO)]
        view = TableView.from_bytes(
            TableView.build(VIEW_FULL, entries).to_bytes())
        assert view.lookup("s").kind == SPLIT
        assert view.lookup("z").kind == ZERO
        assert view.lookup("s").pointer is None

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            TableView("diagonal")

    def test_hidden_build_needs_keys(self):
        with pytest.raises(CryptoError):
            TableView.build(VIEW_HIDDEN, [_entry("a")])


class TestSealedEnvelope:
    def test_seal_open_roundtrip(self):
        pair = new_signature_pair(64)
        key = new_symmetric_key()
        ctx = bind_context("meta", 5, "o")
        blob = seal_and_sign(provider, key, pair.signing, ctx, b"payload")
        assert open_verified(provider, key, pair.verification, ctx,
                             blob) == b"payload"

    def test_context_swap_detected(self):
        """A signed blob served from the wrong location must not verify."""
        pair = new_signature_pair(64)
        key = new_symmetric_key()
        blob = seal_and_sign(provider, key, pair.signing,
                             bind_context("meta", 5, "o"), b"payload")
        with pytest.raises(IntegrityError):
            open_verified(provider, key, pair.verification,
                          bind_context("meta", 6, "o"), blob)

    def test_bitflip_detected(self):
        pair = new_signature_pair(64)
        key = new_symmetric_key()
        ctx = bind_context("data", 5, "b0")
        blob = bytearray(seal_and_sign(provider, key, pair.signing, ctx,
                                       b"payload"))
        blob[10] ^= 1
        with pytest.raises(IntegrityError):
            open_verified(provider, key, pair.verification, ctx,
                          bytes(blob))

    def test_unverified_open_skips_signature(self):
        pair = new_signature_pair(64)
        key = new_symmetric_key()
        ctx = bind_context("data", 5, "b0")
        blob = seal_and_sign(provider, key, pair.signing, ctx, b"payload")
        assert open_unverified(provider, key, blob) == b"payload"


class TestSuperblock:
    def test_roundtrip(self):
        sb = Superblock(root_inode=2, root_selector="o",
                        root_mek=b"m" * 16, root_mvk=b"v" * 30,
                        scheme_name="scheme2", block_size=65536)
        assert Superblock.from_bytes(sb.to_bytes()) == sb

    def test_wrap_unwrap(self):
        user = rsa.generate_keypair(512)
        sb = Superblock(root_inode=2, root_selector="o",
                        root_mek=b"m" * 16, root_mvk=b"v" * 30,
                        scheme_name="scheme2", block_size=65536)
        blob = sb.wrap(provider, user.public)
        assert Superblock.unwrap(provider, user.private, blob) == sb

    def test_wrong_user_cannot_unwrap(self):
        user = rsa.generate_keypair(512)
        other = rsa.generate_keypair(512)
        sb = Superblock(root_inode=2, root_selector="o",
                        root_mek=b"m" * 16, root_mvk=b"v" * 30,
                        scheme_name="scheme2", block_size=65536)
        blob = sb.wrap(provider, user.public)
        with pytest.raises(Exception):
            Superblock.unwrap(provider, other.private, blob)


class TestPath:
    def test_split_basic(self):
        assert fspath.split_path("/") == []
        assert fspath.split_path("/a/b/c") == ["a", "b", "c"]
        assert fspath.split_path("/a//b/") == ["a", "b"]
        assert fspath.split_path("/a/./b") == ["a", "b"]

    def test_relative_rejected(self):
        with pytest.raises(fspath.InvalidPath):
            fspath.split_path("a/b")
        with pytest.raises(fspath.InvalidPath):
            fspath.split_path("")

    def test_dotdot_rejected(self):
        with pytest.raises(fspath.InvalidPath):
            fspath.split_path("/a/../b")

    def test_nul_rejected(self):
        with pytest.raises(fspath.InvalidPath):
            fspath.split_path("/a\x00b")

    def test_parent_and_name(self):
        assert fspath.parent_and_name("/a/b/c") == ("/a/b", "c")
        assert fspath.parent_and_name("/a") == ("/", "a")
        with pytest.raises(fspath.InvalidPath):
            fspath.parent_and_name("/")

    def test_join_and_normalize(self):
        assert fspath.join("/a", "b", "c") == "/a/b/c"
        assert fspath.normalize("//x///y/") == "/x/y"


class TestInodeAllocator:
    def test_sequential_unique(self):
        alloc = InodeAllocator()
        first = alloc.allocate()
        assert first == InodeAllocator.ROOT_INODE
        seen = {first}
        for _ in range(100):
            inode = alloc.allocate()
            assert inode not in seen
            seen.add(inode)


class TestLruCache:
    def test_hit_miss(self):
        cache = LruCache(100)
        assert cache.get("a") is None
        cache.put("a", 1, 10)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_eviction_order(self):
        cache = LruCache(30)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.put("c", 3, 10)
        cache.get("a")               # refresh a
        cache.put("d", 4, 10)        # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables(self):
        cache = LruCache(0)
        cache.put("a", 1, 1)
        assert cache.get("a") is None

    def test_unbounded(self):
        cache = LruCache(None)
        for i in range(1000):
            cache.put(i, i, 1000)
        assert len(cache) == 1000

    def test_oversized_object_not_cached(self):
        cache = LruCache(10)
        cache.put("big", 1, 11)
        assert cache.get("big") is None
        assert cache.used_bytes == 0

    def test_replace_updates_bytes(self):
        cache = LruCache(100)
        cache.put("a", 1, 10)
        cache.put("a", 2, 20)
        assert cache.used_bytes == 20
        assert cache.get("a") == 2

    def test_invalidate_prefix(self):
        cache = LruCache(None)
        cache.put(("meta", 1, "o"), "x", 1)
        cache.put(("meta", 2, "o"), "y", 1)
        cache.put(("data", 1, 0), "z", 1)
        cache.invalidate_prefix(("meta", 1))
        assert cache.get(("meta", 1, "o")) is None
        assert cache.get(("meta", 2, "o")) == "y"
        assert cache.get(("data", 1, 0)) == "z"

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LruCache(-1)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 30)),
                    max_size=60),
           st.integers(min_value=1, max_value=100))
    def test_budget_invariant(self, operations, capacity):
        """used_bytes never exceeds capacity, whatever the op sequence."""
        cache = LruCache(capacity)
        for key, size in operations:
            cache.put(key, key, size)
            assert cache.used_bytes <= capacity
            total = sum(size for _, (_, size) in cache._entries.items())
            assert total == cache.used_bytes
