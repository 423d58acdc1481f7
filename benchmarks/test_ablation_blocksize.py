"""Ablation: block size vs partial-update cost (paper section II-B).

"Larger files are divided into multiple blocks and each block is
encrypted separately.  This helps accommodate updates efficiently by
avoiding re-encrypting entire files after a write."  This harness
quantifies that design choice: a 1 MB file receives a 1 KB in-place
update under different block sizes, including "one block per file"
(no blocking at all -- what the design avoids).

The update is measured twice: with the data cache warm from the create
(the upload half alone -- the handle finds block 0 and the touched block
in the cache) and with a cold handle (data family invalidated before the
``open``), which also pays the download: block 0 plus the touched block,
not the file.
"""

import random

import pytest

from repro.crypto.provider import CryptoProvider
from repro.fs.client import SharoesFilesystem
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.principals.registry import PrincipalRegistry
from repro.sim.costmodel import CostModel
from repro.sim.profiles import PAPER_2008
from repro.storage.server import StorageServer
from repro.workloads.report import format_table

from .common import emit

FILE_BYTES = 1_000_000
UPDATE_BYTES = 1_000
#: swept block sizes; the last entry means "whole file in one block"
BLOCK_SIZES = (16 * 1024, 64 * 1024, 256 * 1024, FILE_BYTES + 1)


def _update(fs, cost, fill: bytes) -> float:
    with cost.span() as span:
        with fs.open("/big", "rw") as handle:
            handle.pwrite(fill * UPDATE_BYTES, FILE_BYTES // 2)
    return span.total


def _measure(block_size: int) -> tuple[float, float, float]:
    """(warm update, cold update, cold re-read) in simulated seconds."""
    registry = PrincipalRegistry()
    alice = registry.create_user("alice", key_bits=512)
    registry.create_group("eng", {"alice"}, key_bits=512)
    server = StorageServer()
    volume = SharoesVolume(server, registry, block_size=block_size)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    cost = CostModel(PAPER_2008)
    fs = SharoesFilesystem(volume, alice, cost_model=cost)
    fs.mount()
    payload = random.Random(3).randbytes(FILE_BYTES)
    fs.create_file("/big", payload, mode=0o600)
    warm_update = _update(fs, cost, b"Z")
    with cost.span() as read_span:
        fs.cache.invalidate_prefix(("data",))
        fs.read_file("/big")
    fs.cache.invalidate_prefix(("data",))
    cold_update = _update(fs, cost, b"Y")
    return warm_update, cold_update, read_span.total


@pytest.fixture(scope="module")
def sweep():
    return {size: _measure(size) for size in BLOCK_SIZES}


def test_report_blocksize(sweep):
    rows = []
    for size, (warm_s, cold_s, read_s) in sweep.items():
        label = ("whole-file" if size > FILE_BYTES
                 else f"{size // 1024} KiB")
        rows.append([label, f"{warm_s:.2f}", f"{cold_s:.2f}",
                     f"{read_s:.2f}"])
    emit("ablation_blocksize", format_table(
        "Block size vs 1 KB in-place update of a 1 MB file (seconds)",
        ["block size", "update+close (warm cache)",
         "update+close (cold handle)", "cold re-read"], rows))


class TestShape:
    def test_blocking_makes_updates_cheap(self, sweep):
        """The paper's rationale: with blocks, a small update re-encrypts
        and re-uploads one block, not the whole megabyte."""
        whole_file = sweep[BLOCK_SIZES[-1]][0]
        blocked = sweep[64 * 1024][0]
        assert whole_file > 8 * blocked

    def test_cold_update_costs_its_blocks_not_the_file(self, sweep):
        """A cold handle downloads block 0 and the touched block; with no
        blocking it downloads (and re-uploads) the whole megabyte."""
        whole_file = sweep[BLOCK_SIZES[-1]][1]
        blocked = sweep[64 * 1024][1]
        assert 4 * blocked < whole_file

    def test_update_cost_scales_with_block_size(self, sweep):
        u16 = sweep[16 * 1024][0]
        u64 = sweep[64 * 1024][0]
        u256 = sweep[256 * 1024][0]
        assert u16 < u64 < u256

    def test_read_cost_roughly_flat(self, sweep):
        """Blocking should not tax sequential reads (same bytes moved)."""
        reads = [read for (_, _, read) in sweep.values()]
        assert max(reads) < 1.35 * min(reads)
