"""An unobserved client does the same work as a recorded one.

A tracer builds span trees only while something reads them; otherwise a
span is a depth counter and the outermost one feeds the per-op metrics
from the simulated clock.  Twin run: one scripted op mix -- create,
write, read, readdir, rename, a nested create, a refused op and a read
of a tampered blob -- on two identical volumes under one entropy seed,
one pair of clients recording spans and one not.  Everything but the
span trees must come out the same: the metrics (histogram buckets
included), the simulated clock, the cost ledger and the SSP's bytes.
"""

from __future__ import annotations

import pytest

from repro.crypto.provider import CryptoProvider
from repro.errors import IntegrityError, PermissionDenied
from repro.fs.client import SharoesFilesystem
from repro.fs.volume import SharoesVolume
from repro.obs.metrics import Histogram
from repro.principals.groups import GroupKeyService
from repro.sim.costmodel import CostModel
from repro.sim.profiles import PAPER_2008
from repro.storage.faults import TamperingServer
from repro.tools.twin import pinned_entropy

_SEED = 0x5BA7


def _mix(alice: SharoesFilesystem, bob: SharoesFilesystem,
         server: TamperingServer) -> None:
    alice.mkdir("/d", mode=0o755)
    alice.create_file("/d/f", b"alpha " * 300, mode=0o644)
    alice.write_file("/d/f", b"beta " * 200)
    with alice.open("/d/f", "rw") as handle:  # bare write/close spans
        handle.pwrite(b"patch", 7)
    assert alice.read_file("/d/f").startswith(b"beta bepatch")
    assert alice.readdir("/d") == ["f"]
    alice.rename("/d/f", "/d/g")
    alice.mkdir("/d/sub", mode=0o755)
    alice.mkdir("/d/sub/deep", mode=0o755)
    alice.create_file("/d/sub/deep/h", b"nested", mode=0o600)
    assert alice.read_file("/d/sub/deep/h") == b"nested"
    assert bob.read_file("/d/g").startswith(b"beta bepatch")
    with pytest.raises(PermissionDenied):
        bob.write_file("/d/g", b"not bob's")
    server._should_tamper = lambda bid: bid.kind == "data"
    alice.cache.clear()
    with pytest.raises(IntegrityError):
        alice.read_file("/d/g")
    server._should_tamper = lambda bid: False


def _histograms(fs: SharoesFilesystem) -> dict[str, tuple]:
    out = {}
    for name in fs.metrics.snapshot():
        if name.endswith(".count"):
            metric = fs.metrics.get(name.removesuffix(".count"))
            if isinstance(metric, Histogram):
                out[metric.name] = (list(metric.counts), metric.count,
                                    metric.total, metric.minimum,
                                    metric.maximum)
    return out


def _run(registry, record: bool) -> dict:
    with pinned_entropy(_SEED):
        server = TamperingServer(should_tamper=lambda bid: False)
        cost = CostModel(PAPER_2008)
        volume = SharoesVolume(server, registry, clock=cost.clock)
        volume.format(root_owner="alice", root_group="eng")
        GroupKeyService(registry, server, CryptoProvider()).publish_all()
        clients = []
        for user in ("alice", "bob"):
            fs = SharoesFilesystem(volume, registry.user(user),
                                   cost_model=cost)
            if record:
                fs.tracer.record()
            fs.mount()
            clients.append(fs)
        _mix(*clients, server)
    return {
        "clients": clients,
        "metrics": [fs.metrics.snapshot() for fs in clients],
        "histograms": [_histograms(fs) for fs in clients],
        "now": cost.clock.now,
        "ledger": dict(cost.totals.seconds),
        "blobs": server.inner.raw_blobs(),
    }


def test_recording_changes_nothing_but_the_span_trees(registry):
    recorded = _run(registry, record=True)
    quiet = _run(registry, record=False)

    for ledger in ("metrics", "histograms", "now", "ledger", "blobs"):
        assert quiet[ledger] == recorded[ledger], ledger
    alice = recorded["metrics"][0]
    assert alice["ops.errors"] == 1
    assert alice["client.integrity_failures"] == 1
    assert recorded["metrics"][1]["ops.errors"] == 1
    assert {"client.resolve.depth2.walks", "ops.write.seconds.count",
            "ops.close.seconds.count"} <= alice.keys()

    for fs in recorded["clients"]:
        assert len(fs.tracer.finished) == fs.metrics.value("ops.count")
    for fs in quiet["clients"]:
        assert len(fs.tracer.finished) == 0
        assert fs.tracer.current is None and fs.tracer.depth == 0
