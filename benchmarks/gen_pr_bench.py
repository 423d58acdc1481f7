"""Regenerate the per-PR performance snapshot (BENCH_<pr>.json).

Runs the four standard workloads at the same scale as the previous
snapshots and bundles the ``run_observed`` payloads into one file, so
``benchmarks/results/BENCH_<n>.json`` files form a comparable series
across PRs (same workloads, same params, same schema).

Usage::

    PYTHONPATH=src:. python benchmarks/gen_pr_bench.py [out_dir]

PR 5 note: batching is on by default (it only changes framing, not
request counts -- the client already priced multi-blob writes as one
round trip); the createlist entry additionally enables speculative
readahead, which is what turns batched ``get_many`` frames into fewer
round trips on the list phase.  The toggle is recorded in the entry's
``params``.

PR 6 note: runs are wire-traced (``wire_trace=True``), which adds the
schema-v2 ``trace`` section (server decode/disk/verify phase totals and
per-depth resolve attribution) without perturbing the measurement --
server spans live on a synthetic timeline, so wall seconds and request
counts are identical to an untraced run (asserted by
``tests/test_trace_differential.py``; gated in CI by
``repro bench --diff`` against the previous snapshot).

PR 7 note: readahead is now the client default (the createlist override
is kept so the recorded params stay comparable across snapshots), and
the andrew entry mounts the verified metadata cache
(``mdcache=True``, recorded in its params) -- phase-boundary
revalidation keeps entries warm instead of dropping them, which is what
collapses the resolve seconds the CI gate now locks in at <= 50% of the
BENCH_6 baseline (``--resolve-gate andrew=0.5``).

PR 8 note: ``mdcache`` is the client default now, so every entry runs
with it (the andrew param is kept so its recorded params stay
comparable).  A fifth entry, ``postmark_sharded``, runs postmark on a
``ShardedServer`` (shards=4, replicas=2) and records the
**replication-overhead column**: physical backend requests/bytes across
every shard vs the logical single-SSP view the client sees.  The wall
seconds and request counts the ``repro bench --diff`` gate reads are
the client-side (logical) numbers, identical to an unsharded run by
construction (the kill-any-shard differential in tests/test_shards.py
is the proof); the replication section makes the k-way write
amplification visible instead of letting it hide in the backends.

PR 10 note: a seventh entry, ``postmark_concurrent``, reruns the
standard postmark with the pipelined request scheduler on
(``concurrency=8``): write-behind staging plus fetch flights overlap
independent wire frames, so its wall seconds must land at <= 75% of
the plain postmark entry (the acceptance claim, gated in CI by
``repro bench --diff --overlap-gate postmark=0.75``; byte-identical
SSP state is proven by tests/test_concurrency_differential.py).  A
``throughput`` entry records the many-client axis: 100 mounted
clients (journal + lease + concurrency=8) driving a seeded interleave
on one shared volume, reporting ops/sec, exact latency percentiles,
lease conflicts and the final fsck verdict (gated non-regressing by
the same ``--diff``).

PR 9 note: a sixth entry, ``postmark_rebalance``, runs the sharded
postmark with an **online rebalance** (grow 4 -> 6 shards) proposed,
staged and completed mid-workload by a mutation-count trigger
(``run_observed(setup=...)`` interposes the trigger under the client).
Its **rebalance-overhead column** records the request/byte
amplification of backend traffic over logical client traffic *while
the plan was active* (dual-placement writes plus the copy/verify/drop
pipeline), next to the end-state replication section.  Logical client
numbers stay identical to unsharded postmark by construction (the
acceptance trio in tests/test_shards.py is the proof).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.fs.client import ClientConfig
from repro.workloads.runner import run_observed

PR = 10

#: (entry name, workload, params, ClientConfig overrides, backend
#: arguments of ``make_env``) -- the last two are recorded in params
RUNS = (
    ("andrew", "andrew", {"mdcache": True}, {}, {}),
    ("createlist", "createlist", {"files": 100, "dirs": 5},
     {"readahead": True}, {}),
    ("office", "office", {}, {}, {}),
    ("postmark", "postmark", {"files": 100, "transactions": 100}, {}, {}),
    ("postmark_sharded", "postmark",
     {"files": 100, "transactions": 100}, {},
     {"shards": 4, "replicas": 2}),
    ("postmark_rebalance", "postmark",
     {"files": 100, "transactions": 100}, {},
     {"shards": 4, "replicas": 2}),
    ("postmark_concurrent", "postmark",
     {"files": 100, "transactions": 100}, {"concurrency": 8}, {}),
)

#: many-client harness scale recorded as the ``throughput`` entry.
THROUGHPUT = {"clients": 100, "ops_per_client": 20, "concurrency": 8}

#: client-mutation counts at which the rebalance trigger fires: the
#: plan is proposed + staged at the first mark and driven to DONE at
#: the second, so a window of real workload traffic runs under dual
#: placement.
REBALANCE_STAGES = (150, 400)


def _replication_section(server) -> dict:
    """Physical-vs-logical replication overhead for a sharded run."""
    logical_requests = (server.stats.puts + server.stats.gets
                        + server.stats.deletes)
    logical_bytes = sum(len(p) for p in server.raw_blobs().values())
    physical_requests = server.physical_requests()
    physical_bytes = server.physical_bytes()
    return {
        "shards": len(server.shards),
        "replicas": server.replicas,
        "logical_requests": logical_requests,
        "physical_requests": physical_requests,
        "request_amplification": (physical_requests / logical_requests
                                  if logical_requests else 0.0),
        "logical_bytes": logical_bytes,
        "physical_bytes": physical_bytes,
        "byte_amplification": (physical_bytes / logical_bytes
                               if logical_bytes else 0.0),
    }


def _traffic(server) -> tuple[int, int]:
    """(requests, traffic bytes) seen by one server's stats."""
    s = server.stats
    return (s.puts + s.gets + s.deletes,
            s.bytes_received + s.bytes_served)


def _physical_traffic(server) -> tuple[int, int]:
    """Summed backend (requests, traffic bytes) across every shard."""
    requests = bytes_ = 0
    for shard in server.shards:
        r, b = _traffic(shard.backend)
        requests += r
        bytes_ += b
    return requests, bytes_


def _rebalance_setup(marks: dict):
    """A ``run_observed`` setup hook arming the mid-postmark rebalance.

    Grows the ring 4 -> 6 at the ``REBALANCE_STAGES`` mutation marks
    and snapshots logical/physical traffic at plan start and plan end,
    so the overhead column measures exactly the active-plan window.
    """
    from repro.crypto import rsa
    from repro.storage.rebalance import VERIFIED, Rebalancer
    from repro.storage.resilient import MutationTrigger

    def setup(env):
        key = rsa.generate_keypair(512)
        server = env.server
        for _ in range(2):
            server.add_shard()
        holder = {}

        def stage_plan():
            marks["logical_start"] = _traffic(server)
            marks["physical_start"] = _physical_traffic(server)
            reb = Rebalancer(server, keypair=key)
            reb.propose(tuple(range(6)), server.replicas)
            reb.execute(until=VERIFIED)
            holder["reb"] = reb

        def finish_plan():
            holder["reb"].execute()
            marks["logical_end"] = _traffic(server)
            marks["physical_end"] = _physical_traffic(server)
            marks["snapshot"] = server.shard_snapshot()

        env._client_server = MutationTrigger(
            server, dict(zip(REBALANCE_STAGES, (stage_plan, finish_plan))))
    return setup


def _rebalance_section(server, marks: dict) -> dict:
    """Request/byte amplification while the rebalance plan was active."""
    logical_req = marks["logical_end"][0] - marks["logical_start"][0]
    logical_bytes = marks["logical_end"][1] - marks["logical_start"][1]
    physical_req = (marks["physical_end"][0]
                    - marks["physical_start"][0])
    physical_bytes = (marks["physical_end"][1]
                      - marks["physical_start"][1])
    snap = marks["snapshot"]
    return {
        "plan": {"from_shards": 4, "to_shards": 6,
                 "replicas": server.replicas},
        "window_logical_requests": logical_req,
        "window_physical_requests": physical_req,
        "request_amplification": (physical_req / logical_req
                                  if logical_req else 0.0),
        "window_logical_bytes": logical_bytes,
        "window_physical_bytes": physical_bytes,
        "byte_amplification": (physical_bytes / logical_bytes
                               if logical_bytes else 0.0),
        "moved": snap["rebalance.moved"],
        "verified": snap["rebalance.verified"],
        "dropped": snap["rebalance.dropped"],
        "dual_reads": snap["rebalance.dual_reads"],
        "dual_writes": snap["rebalance.dual_writes"],
    }


def main(out_dir: str = "benchmarks/results") -> int:
    workloads = {}
    for entry, name, params, overrides, backend in RUNS:
        config = ClientConfig(**overrides) if overrides else None
        env_out: list = []
        marks: dict = {}
        setup = (_rebalance_setup(marks)
                 if entry == "postmark_rebalance" else None)
        payload, _spans = run_observed(name, params=params, config=config,
                                       wire_trace=True, setup=setup,
                                       _env_out=env_out, **backend)
        payload["params"].update(overrides, **backend)
        if backend:
            payload["replication"] = _replication_section(
                env_out[0].server)
        if marks:
            assert "snapshot" in marks, \
                "rebalance trigger never completed inside the workload"
            payload["rebalance"] = _rebalance_section(
                env_out[0].server, marks)
        workloads[entry] = payload
        print(f"{entry}: requests="
              f"{payload['metrics'].get('client.requests')}")
    from repro.workloads.throughput import run_throughput
    tput = run_throughput(**THROUGHPUT)
    assert tput["fsck_clean"], "throughput run left the volume dirty"
    workloads["throughput"] = tput
    print(f"throughput: {tput['ops_per_sec']:.3f} ops/s, "
          f"p95 {tput['latency_s']['p95']:.3f}s, "
          f"{tput['lease_conflicts']} lease conflicts")
    doc = {
        "pr": PR,
        "description": ("per-PR performance snapshot: standard "
                        "workloads, default scale, sharoes impl, "
                        "default ClientConfig (batching, readahead and "
                        "the verified metadata cache all on); "
                        "postmark_sharded runs on a 4-shard/2-replica "
                        "ShardedServer and records the replication-"
                        "overhead column (physical vs logical "
                        "requests/bytes); postmark_rebalance adds an "
                        "online grow 4->6 rebalance completed mid-"
                        "workload and records the rebalance-overhead "
                        "column (request/byte amplification during the "
                        "active plan); postmark_concurrent reruns "
                        "postmark with the pipelined request scheduler "
                        "(concurrency=8, gated at <= 75% of the "
                        "sequential wall); throughput is the 100-client "
                        "many-client harness (journal+lease+"
                        "concurrency=8: ops/sec, exact latency "
                        "percentiles, lease conflicts, fsck verdict); "
                        "runs are wire-traced, adding "
                        "the schema-v2 trace section at zero simulated "
                        "cost"),
        "workloads": workloads,
    }
    out = Path(out_dir) / f"BENCH_{PR}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
