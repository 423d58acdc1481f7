"""Model-based suite for the sparse block map behind ``OpenFile``.

A handle loads block 0 (it carries the count) plus the blocks an access
touches, and close re-seals what was written.  Random scripts of
open / ranged read / pwrite / append / truncate / close / reopen run
against a ``bytearray`` on a small-block volume, under every combination
of data cache, scheduler and journal; after every close

* a fresh mount's ``read_file`` equals the model;
* block 0's count equals ``ceil(len / block_size)`` and no
  ``data/<inode>/b<k>`` is stored for ``k >= count``;
* the handle issued at most ``touched blocks + 2`` data-blob gets (block
  0 for the count, the last block for the size).

The twin test replays one script on two stacks under pinned entropy:
cache and scheduler may change what is *fetched*, never what is stored.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.provider import CryptoProvider
from repro.errors import CryptoError, IntegrityError, PermissionDenied
from repro.fs import layout
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.sealed import open_unverified
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.principals.registry import PrincipalRegistry
from repro.principals.users import User
from repro.storage.server import StorageServer
from repro.tools.twin import pinned_entropy

BLOCK = 16
SPAN = 5 * BLOCK  # offsets and sizes stay within a few blocks

_offset = st.integers(min_value=0, max_value=SPAN)
_data = st.binary(max_size=3 * BLOCK)
_op = st.one_of(
    st.tuples(st.just("read"), st.none() | _offset, _offset),
    st.tuples(st.just("pwrite"), _data, _offset),
    st.tuples(st.just("write"), _data),
    st.tuples(st.just("truncate"), _offset))
_session = st.tuples(st.sampled_from(["r", "rw", "a", "w"]),
                     st.lists(_op, max_size=4))
_script = st.tuples(st.binary(max_size=SPAN),
                    st.lists(_session, min_size=1, max_size=4))

_SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture,
                           HealthCheck.too_slow])


def _blocks_of(start: int, end: int) -> set[int]:
    """Indices of the blocks bytes ``start``..``end`` (exclusive) lie in."""
    return set(range(start // BLOCK, -(-end // BLOCK))) if end > start \
        else set()


def _apply(handle, mode: str, op: tuple, local: bytearray) -> set[int]:
    """Run one op on the handle and on the model; the blocks it touched."""
    kind, *args = op
    allowed = ("r" in mode) if kind == "read" else (mode != "r")
    if not allowed:
        with pytest.raises(PermissionDenied):
            getattr(handle, kind)(*args)
        return set()
    if kind == "read":
        size, offset = args
        end = len(local) if size is None else offset + size
        assert handle.read(size, offset) == bytes(local[offset:end])
        return _blocks_of(offset, end)  # as asked: EOF is not known yet
    if kind == "truncate":
        size, = args
        handle.truncate(size)
        local.extend(b"\x00" * (size - len(local)))
        del local[size:]
        return _blocks_of(max(size - 1, 0), size)
    data = args[0]
    offset = len(local) if kind == "write" else args[1]
    written = handle.write(data) if kind == "write" else handle.pwrite(
        data, offset)
    assert written == len(data)
    if data:
        local.extend(b"\x00" * (offset - len(local)))
        local[offset:offset + len(data)] = data
    return _blocks_of(offset, offset + len(data))


def _play(fs: SharoesFilesystem, server: StorageServer, path: str,
          script, after_close=None) -> bytearray:
    """Replay ``script`` on ``path``; returns the model's final bytes."""
    content, sessions = script
    model = bytearray(content)
    fs.create_file(path, content)
    for mode, ops in sessions:
        handle = fs.open(path, mode)
        stats = server.stats
        fetched = stats.gets_by_kind.get("data", 0) + stats.misses
        local = bytearray() if mode == "w" else bytearray(model)
        touched: set[int] = set()
        for op in ops:
            touched |= _apply(handle, mode, op, local)
        handle.close()
        fetched = stats.gets_by_kind.get("data", 0) + stats.misses - fetched
        assert fetched <= len(touched) + 2, (mode, ops)
        model = local
        fs.flush_staged()
        if after_close is not None:
            after_close(model)
    return model


def _registry(session_keypairs, session_signing_pairs) -> PrincipalRegistry:
    registry = PrincipalRegistry()
    for name, keypair in session_keypairs.items():
        registry.add_user(User(user_id=name, keypair=keypair,
                               signing=session_signing_pairs[name]))
    registry.create_group("eng", {"alice", "bob"}, key_bits=512)
    return registry


def _stack(registry, config: ClientConfig):
    server = StorageServer()
    volume = SharoesVolume(server, registry, block_size=BLOCK)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    fs = SharoesFilesystem(volume, registry.user("alice"), config=config)
    fs.mount()
    return server, volume, fs


@pytest.fixture(scope="module")
def block_registry(session_keypairs, session_signing_pairs):
    return _registry(session_keypairs, session_signing_pairs)


@pytest.mark.parametrize("journal", [False, True])
@pytest.mark.parametrize("concurrency", [0, 8])
@pytest.mark.parametrize("data_cache", [True, False])
def test_handle_scripts_match_the_model(block_registry, data_cache,
                                        concurrency, journal):
    server, volume, fs = _stack(block_registry, ClientConfig(
        data_cache=data_cache, concurrency=concurrency, journal=journal))
    names = (f"/f{i}" for i in itertools.count())

    @_SETTINGS
    @given(_script)
    def run(script):
        path = next(names)

        def stored_state_matches(model: bytearray) -> None:
            fresh = SharoesFilesystem(volume, block_registry.user("alice"))
            fresh.mount()
            assert fresh.read_file(path) == bytes(model)
            node = fresh._resolve(path)
            count = -(-len(model) // BLOCK)
            stored = {blob_id for blob_id in server.raw_blobs()
                      if blob_id.inode == node.inode
                      and not layout.in_census(blob_id)}
            assert stored == {layout.block_blob_id(node.inode, index)
                              for index in range(count)}
            if count:
                plain = layout.open_block(
                    fresh.provider, node.view.require_dek(),
                    node.view.require_dvk(), node.inode, 0,
                    server.get(layout.block_blob_id(node.inode, 0)))
                assert layout.split_count(plain)[0] == count

        _play(fs, server, path, script, stored_state_matches)

    run()


@_SETTINGS
@given(_script)
def test_cache_and_scheduler_leave_identical_ssp_state(session_keypairs,
                                                       session_signing_pairs,
                                                       script):
    """The twin differential: what a handle fetches depends on the data
    cache and the scheduler; what it leaves at the SSP does not."""
    states = []
    for config in (ClientConfig(data_cache=True, concurrency=0),
                   ClientConfig(data_cache=False, concurrency=8)):
        with pinned_entropy(2008):
            server, _, fs = _stack(
                _registry(session_keypairs, session_signing_pairs), config)
            model = _play(fs, server, "/twin", script)
            assert fs.read_file("/twin") == bytes(model)
            fs.unmount()
        states.append(server.raw_blobs())
    assert states[0] == states[1]


def test_pending_lazy_revocation_reseals_every_block(block_registry):
    """A one-block patch by the owner with a lazy revocation pending is
    a full re-seal: the blocks the handle never touched are loaded at
    close, and the revoked reader's old DEK opens none of them."""
    server, volume, alice = _stack(
        block_registry, ClientConfig(immediate_revocation=False))
    content = bytes(range(5 * BLOCK))
    alice.create_file("/f", content, mode=0o644)
    carol = SharoesFilesystem(volume, block_registry.user("carol"))
    carol.mount()
    node = carol._resolve("/f")
    old_dek = node.view.require_dek()
    alice.chmod("/f", 0o600)
    alice.cache.clear()
    server.stats.reset()

    with alice.open("/f", "rw") as handle:
        handle.pwrite(b"!", 2 * BLOCK + 1)
        assert server.stats.gets_by_kind["data"] == 2 + 1  # + root table
    assert server.stats.puts_by_kind["data"] == 5

    for index in range(5):
        blob = server.get(layout.block_blob_id(node.inode, index))
        with pytest.raises((CryptoError, IntegrityError)):
            open_unverified(CryptoProvider(), old_dek, blob)
    fresh = SharoesFilesystem(volume, block_registry.user("alice"))
    fresh.mount()
    assert fresh.read_file("/f") == (content[:2 * BLOCK + 1] + b"!"
                                     + content[2 * BLOCK + 2:])
