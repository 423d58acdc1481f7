"""Differential harness: batching changes round trips, never semantics.

Every seeded workload is run twice -- the client as shipped (multi-blob
writes ride one ``OP_BATCH`` frame) against ``BlobIO(batching=False)``
(the honest one-round-trip-per-blob reference execution, a constructor
seam only the ``reference_run`` fixture below reaches).  The two runs must
be indistinguishable to everyone except the network:

* the final SSP state is **byte-identical** (same blob ids, same
  ciphertext bytes);
* the visible filesystem semantics are identical (same tree, same
  stats, same file contents);
* fsck audits the batched volume clean;
* the batched run issues **at most** as many requests, and the saved
  round trips reconcile *exactly* against the ``client.batch.size``
  histogram: every frame of n sub-ops saves n-1 requests, so
  ``unbatched = batched + (sum(n) - frames)``.

Byte-identical ciphertext across two independently-keyed runs needs the
crypto layer pinned: the harness swaps the ``secrets`` entropy calls for
a seeded generator per run, so both runs mint the same keys, IVs, and
signature nonces in the same order (batching happens strictly below the
crypto layer, so the call sequences match).
"""

from __future__ import annotations

import functools

import pytest

from repro.fs import client as fs_client
from repro.fs.blobio import _BATCH_SIZE_BUCKETS, BlobIO
from repro.fs.client import ClientConfig
from repro.tools.fsck import VolumeAuditor
from repro.tools.twin import pinned_entropy, visible_tree
from repro.workloads.runner import make_env
from tests.differential import SEED, WORKLOADS, differential_env


@pytest.fixture
def reference_run(monkeypatch):
    """``_differential_run`` on the reference execution: every client
    it mounts builds its blob channel as ``BlobIO(batching=False)``."""
    def run(workload: str):
        with monkeypatch.context() as patch:
            patch.setattr(fs_client, "BlobIO",
                          functools.partial(BlobIO, batching=False))
            return _differential_run(workload)
    return run


def _differential_run(workload: str, readahead: bool = False):
    with differential_env(workload, SEED,
                          {"readahead": readahead}) as env:
        fs = env.fs
        hist = fs.metrics.histogram("client.batch.size",
                                    buckets=_BATCH_SIZE_BUCKETS)
        return {
            "blobs": env.server.raw_blobs(),
            "tree": visible_tree(fs),
            "requests": fs.request_count,
            "frames": hist.count,
            "frame_ops": hist.total,
            "volume": env._volume,
        }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_batching_differential(workload, reference_run):
    batched = _differential_run(workload)
    unbatched = reference_run(workload)

    # Byte-identical final SSP state: same blob ids, same ciphertext.
    assert set(batched["blobs"]) == set(unbatched["blobs"])
    assert batched["blobs"] == unbatched["blobs"]

    # Identical visible semantics.
    assert batched["tree"] == unbatched["tree"]

    # The reference run observes no frames...
    assert unbatched["frames"] == 0
    # ...and the batched run never issues more requests,
    assert batched["requests"] <= unbatched["requests"]
    # ...with the savings reconciling exactly against the histogram:
    # a frame of n sub-ops replaced n single-op round trips.
    saved = batched["frame_ops"] - batched["frames"]
    assert unbatched["requests"] == batched["requests"] + saved

    # Multi-blob mutations exist in every one of these workloads, so
    # batching must actually have batched something.
    assert batched["frames"] > 0
    assert batched["requests"] < unbatched["requests"]

    # The batched volume audits clean.
    report = VolumeAuditor(batched["volume"]).audit()
    assert report.clean, report


def test_readahead_differential_createlist():
    """Readahead is purely speculative: same state, same semantics,
    fewer round trips on the list-heavy phase."""
    plain = _differential_run("createlist", readahead=False)
    eager = _differential_run("createlist", readahead=True)
    assert eager["blobs"] == plain["blobs"]
    assert eager["tree"] == plain["tree"]
    assert eager["requests"] < plain["requests"]
    report = VolumeAuditor(eager["volume"]).audit()
    assert report.clean, report


def test_readahead_cold_component_falls_back():
    """A prefetch miss (cold/absent blob) must degrade to the demand
    path silently: same answers, fsck clean."""
    with pinned_entropy(SEED):
        env = make_env("sharoes", config=ClientConfig(readahead=True))
        fs = env.fs
        fs.mkdir("/d", mode=0o755)
        fs.create_file("/d/f", b"x" * 100, mode=0o644)
        # Deep walk: intermediate components prefetch meta+table; the
        # file component has no table blob, so that sub-op misses.
        fs.mkdir("/d/e", mode=0o755)
        fs.create_file("/d/e/g", b"y" * 100, mode=0o644)
        assert fs.read_file("/d/e/g") == b"y" * 100
        assert sorted(fs.readdir("/d")) == ["e", "f"]
        hits = fs.metrics.counter("client.readahead.hits").value
        assert hits >= 0  # counter exists; misses never raised
        assert VolumeAuditor(env._volume).audit().clean
