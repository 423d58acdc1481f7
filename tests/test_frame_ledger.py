"""One ledger: every frame a mounted client sends is in ``request_count``.

``BlobIO`` (fs/blobio.py) is the only code in a client that counts a
frame.  A counting wrapper stands as the *volume's* server, below every
client, so a write that goes around the client's channel -- straight to
``volume.server`` -- is seen too.  Each row drives one stack -- plain
(one round trip per sub-op), batched, scheduled, journaled and leased
-- and checks that the wrapper saw exactly the clients'
``request_count`` frames: no probe or other frame goes uncounted.
"""

from __future__ import annotations

import functools

import pytest

from repro.crypto.provider import CryptoProvider
from repro.fs import client as fs_client
from repro.fs.blobio import BlobIO
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.profiles import PAPER_2008
from repro.storage.resilient import ServerWrapper
from repro.storage.server import StorageServer

BLOCK = 4096


class FrameCounter(ServerWrapper):
    """Counts frames: a named call is one, a batch is one."""

    def __init__(self, inner):
        super().__init__(inner)
        self.frames = 0

    def _forward(self, op):
        self.frames += 1
        return op.call(self.inner)

    def batch(self, ops):
        self.frames += 1
        return self.inner.batch(ops)


@pytest.fixture
def counted(registry):
    """A formatted volume over a :class:`FrameCounter`, and a factory
    of clients on it (each with its own cost model, as a bench client
    has); the counter is zeroed once setup is done."""
    counter = FrameCounter(StorageServer())
    volume = SharoesVolume(counter, registry, block_size=BLOCK,
                           clock=SimClock())
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, counter, CryptoProvider()).publish_all()
    clients: list[SharoesFilesystem] = []

    def client(user_id: str, consistency: bool = False,
               **config) -> SharoesFilesystem:
        fs = SharoesFilesystem(volume, registry.user(user_id),
                               cost_model=CostModel(PAPER_2008),
                               config=ClientConfig(**config))
        if consistency:
            fs.enable_consistency_log()
        fs.mount()
        clients.append(fs)
        return fs

    counter.frames = 0
    return counter, client, clients


def _workload(fs: SharoesFilesystem) -> None:
    """Creates, multi-block reads and writes, a shrinking close, a
    listing, a rename, a permission change and deletes, closed by the
    revalidation barrier."""
    fs.mkdir("/d", mode=0o755)
    payload = bytes(range(256)) * (3 * BLOCK // 256 + 7)
    fs.create_file("/d/f", payload, mode=0o644)
    fs.create_file("/d/g", b"small", mode=0o640)
    fs.revalidate()
    fs.cache.clear()
    assert fs.read_file("/d/f") == payload
    fs.append_file("/d/f", b"tail")
    with fs.open("/d/f", "rw") as handle:
        handle.pwrite(b"patch", BLOCK + 3)
    with fs.open("/d/f", "rw") as handle:
        handle.truncate(BLOCK + 1)
    assert sorted(fs.readdir("/d")) == ["f", "g"]
    fs.rename("/d/g", "/d/h")
    fs.chmod("/d/h", 0o600)
    fs.unlink("/d/h")
    fs.revalidate()


def _assert_one_ledger(counter, clients) -> None:
    counted = sum(fs.request_count for fs in clients)
    assert counter.frames == counted, (
        f"{counter.frames} frames at the SSP, "
        f"{counted} in the clients' request_count")


@pytest.mark.parametrize("config", [
    {"batching": False},
    {},
    {"concurrency": 8},
    {"journal": True, "lease": True},
], ids=["plain", "default", "concurrency8", "journal_lease"])
def test_every_frame_of_a_workload_is_counted(counted, config,
                                              monkeypatch):
    counter, client, clients = counted
    config = dict(config)
    if not config.pop("batching", True):
        monkeypatch.setattr(fs_client, "BlobIO",
                            functools.partial(BlobIO, batching=False))
    _workload(client("alice", **config))
    assert counter.frames > 10
    _assert_one_ledger(counter, clients)


def test_consistency_log_frames_are_counted(counted):
    """Mount resumes the statement chain; publish and sync are frames."""
    counter, client, clients = counted
    alice = client("alice", consistency=True)
    bob = client("bob", consistency=True)
    alice.create_file("/f", b"v1", mode=0o644)
    alice.publish_statement()
    bob.sync_statements(["alice", "carol"])
    bob.publish_statement()
    alice.sync_statements(["bob"])
    client("alice", consistency=True)  # remount: resumes from the SSP
    _assert_one_ledger(counter, clients)


@pytest.mark.parametrize("config", [{}, {"journal": True}],
                         ids=["default", "journal"])
def test_a_root_rekey_sends_its_superblocks_through_the_client(counted,
                                                               config):
    counter, client, clients = counted
    alice = client("alice", **config)
    alice.create_file("/f", b"root data", mode=0o644)
    alice.rekey("/")
    _assert_one_ledger(counter, clients)
    # The superblocks it sent are the ones a fresh mount opens.
    for user_id in ("alice", "bob"):
        assert client(user_id).read_file("/f") == b"root data"
    _assert_one_ledger(counter, clients)
