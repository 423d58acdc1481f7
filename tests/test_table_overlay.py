"""The overlay is the table.

A directory-table view stored in the split form is a small head over an
immutable base (fs/layout.py); in memory it is one ``TableView`` that
tracks, as rows change, what its head must carry.  Whatever the script
of adds, replaces, removes and re-adds, and wherever the folds fall,
``from_bytes(head)`` overlaid on the base must be byte for byte the view
a client would have built from the rows alone -- for all three styles,
and also when every step is taken by a client that just loaded the head
and base cold.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caps.model import VIEW_FULL, VIEW_HIDDEN, VIEW_NAMES
from repro.crypto import hashes
from repro.crypto.provider import CryptoProvider
from repro.errors import IntegrityError
from repro.fs.dirtable import (DIRECT, SPLIT, ZERO, DirEntry, DirPointer,
                              TableView)
from repro.serialize import SerializationError, Writer
from repro.tools.twin import pinned_entropy

DEK = b"k" * 16
NAMES = [f"n{i}" for i in range(6)]


class _RepeatableProvider(CryptoProvider):
    """Same row in, same cell out: a hidden view rebuilt from its rows
    then equals, byte for byte, one that was edited into the same state."""

    def sym_encrypt(self, key: bytes, plaintext: bytes) -> bytes:
        seed = int.from_bytes(hashes.digest(key + plaintext)[:8], "big")
        with pinned_entropy(seed):
            return super().sym_encrypt(key, plaintext)


def _entry(name: str, version: int) -> DirEntry:
    if version % 3 == 0:
        return DirEntry(name=name, inode=version, kind=ZERO)
    return DirEntry(name=name, inode=version, kind=DIRECT,
                    pointer=DirPointer(selector="o",
                                       mek=bytes([version]) * 16,
                                       mvk=b"mvk"))


SCRIPTS = st.lists(st.one_of(
    # add; over a live name it is the client's replace (remove + add)
    st.tuples(st.just("add"), st.sampled_from(NAMES),
              st.integers(min_value=1, max_value=200)),
    st.tuples(st.just("remove"), st.sampled_from(NAMES)),
    st.tuples(st.just("fold")),
    # go on from what a cold client parses out of the stored bytes
    st.tuples(st.just("reload")),
), min_size=1, max_size=40)


def _load(head_bytes: bytes, base_bytes: bytes) -> TableView:
    head = TableView.from_bytes(head_bytes)
    head.overlay(TableView.from_bytes(base_bytes), len(base_bytes))
    return head


@settings(max_examples=150, deadline=None)
@given(style=st.sampled_from([VIEW_FULL, VIEW_NAMES, VIEW_HIDDEN]),
       script=SCRIPTS)
def test_head_over_base_is_the_rebuilt_view(style, script):
    provider = _RepeatableProvider()
    keys = dict(provider=provider, table_dek=DEK)
    view = TableView.build(style, [], **keys)
    rows: dict[str, DirEntry] = {}
    gen, base_bytes = 0, b""
    for kind, *args in script:
        if kind == "add":
            name, version = args
            if name in rows:
                view.remove(name, **keys)
            rows[name] = _entry(name, version)
            view.add(rows[name], **keys)
        elif kind == "remove":
            rows.pop(args[0], None)
            view.remove(args[0], **keys)
        elif kind == "fold":
            gen += 1
            view.rebase(0)
            base_bytes = view.to_bytes()
            view.rebase(gen, hashes.digest(base_bytes), len(base_bytes))
        elif gen:
            view = _load(view.to_bytes(), base_bytes)

        model = TableView.build(style, list(rows.values()), **keys)
        if not gen:
            assert view.to_bytes() == model.to_bytes()
            continue
        loaded = _load(view.to_bytes(), base_bytes)
        assert loaded.base_gen == gen
        assert loaded.base_digest == hashes.digest(base_bytes)
        live = set(model._keys())
        held = set(TableView.from_bytes(base_bytes)._keys())
        # Nothing removed lingers among the added rows (an add that was
        # removed again left no trace); only base keys have tombstones.
        assert loaded._added <= live
        assert loaded._dead == held - live
        loaded.rebase(0)
        assert loaded.to_bytes() == model.to_bytes()


@pytest.mark.parametrize("style", [VIEW_FULL, VIEW_NAMES, VIEW_HIDDEN])
def test_untouched_head_holds_no_rows(style):
    provider = CryptoProvider()
    view = TableView.build(style, [_entry(n, 7) for n in NAMES],
                           provider=provider, table_dek=DEK)
    whole = view.to_bytes()
    view.rebase(3, hashes.digest(whole), len(whole))
    head = TableView.from_bytes(view.to_bytes())
    assert (head.base_gen, head.entry_count()) == (3, 0)
    head.overlay(TableView.from_bytes(whole), len(whole))
    assert head.entry_count() == len(NAMES)


def test_a_head_never_names_generation_zero():
    writer = Writer()
    writer.put_str("head")
    writer.put_int(0)
    writer.put_bytes(b"d" * 32)
    writer.put_str(VIEW_FULL)
    writer.put_int(0)
    writer.put_int(0)
    with pytest.raises(SerializationError):
        TableView.from_bytes(writer.getvalue())


def test_a_base_must_be_a_plain_view_of_the_head_s_style():
    head = TableView(VIEW_FULL)
    head.rebase(1, b"d" * 32, 10)
    with pytest.raises(IntegrityError):
        TableView.from_bytes(head.to_bytes()).overlay(
            TableView(VIEW_NAMES), 10)
    with pytest.raises(IntegrityError):
        TableView.from_bytes(head.to_bytes()).overlay(head, 10)


def _reference_bytes(view: TableView) -> bytes:
    """``TableView.to_bytes`` written out field by field, row by row."""
    writer = Writer()
    keys = view._keys()
    if view.base_gen:
        writer.put_str("head")
        writer.put_int(view.base_gen)
        writer.put_bytes(view.base_digest)
        keys = view._added
    writer.put_str(view.style)
    writer.put_int(len(keys))
    for key in sorted(keys):
        if view.style == VIEW_FULL:
            entry = view.entries[key]
            writer.put_str(entry.name)
            writer.put_int(entry.inode)
            writer.put_str(entry.kind)
            if entry.kind == DIRECT:
                writer.put_str(entry.pointer.selector)
                writer.put_bytes(entry.pointer.mek)
                writer.put_bytes(entry.pointer.mvk)
        elif view.style == VIEW_NAMES:
            writer.put_str(key)
        else:
            writer.put_bytes(key)
            writer.put_bytes(view.cells[key])
    if view.base_gen:
        put = writer.put_bytes if view.style == VIEW_HIDDEN else writer.put_str
        writer.put_int(len(view._dead))
        for key in sorted(view._dead):
            put(key)
    return writer.getvalue()


@pytest.mark.parametrize("style", [VIEW_FULL, VIEW_NAMES, VIEW_HIDDEN])
def test_a_row_encoded_once_serializes_field_by_field(style):
    provider = CryptoProvider()
    keys = dict(provider=provider, table_dek=DEK)
    rows = [_entry(name, version) for version, name in enumerate(NAMES, 1)]
    rows.append(DirEntry(name="split", inode=99, kind=SPLIT))
    view = TableView.build(style, rows, **keys)
    inline = view.to_bytes()
    assert inline == _reference_bytes(view)

    view.rebase(4, hashes.digest(inline), len(inline))
    view.remove(NAMES[0], **keys)
    view.remove(NAMES[1], **keys)
    view.add(_entry(NAMES[1], 50), **keys)
    view.add(_entry("new", 8), **keys)
    head = view.to_bytes()
    assert head == _reference_bytes(view)

    # The next base: the head parsed cold, laid over its base, folded.
    loaded = _load(head, inline)
    loaded.rebase(0)
    assert loaded.to_bytes() == _reference_bytes(loaded)
