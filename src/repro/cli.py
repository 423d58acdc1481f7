"""Command-line interface: ``python -m repro`` (or ``sharoes-repro``).

Subcommands:

* ``selftest``  -- run the cryptographic self-test (AES vectors, RSA,
  ESIGN, IBE roundtrips);
* ``demo``      -- a compact end-to-end sharing demo on an in-memory SSP;
* ``bench``     -- regenerate one of the paper's figures (fig9, fig10,
  fig11, fig12, fig13) at a chosen scale, run a named workload with
  ``--workload`` and write a machine-readable ``BENCH_<name>.json``,
  diff two BENCH documents as a perf-regression gate (``--diff``), or
  print the committed benchmark trajectory (``--list``);
* ``stats``     -- run a workload and print the per-operation cost
  table plus the unified metrics registry;
* ``trace``     -- run a workload and emit its operation spans as
  JSON-lines (one root span per line, child phases nested);
* ``profile``   -- run a workload wire-traced (client + server spans
  stitched into one tree) and render it as folded stacks, speedscope
  JSON, a top-N self-time table, or the per-depth resolve-attribution
  report;
* ``inspect``   -- build a demo volume and dump what the untrusted SSP
  actually sees;
* ``matrix``    -- sweep one seeded correctness matrix (``crash``,
  ``interleave``, ``campaign``, ``rebalance``) and print its outcomes
  table.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .crypto import aes, esign, ibe, rsa, stream

    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plain = bytes.fromhex("00112233445566778899aabbccddeeff")
    expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    assert aes.AES(key).encrypt_block(plain) == expected
    print("AES-128 FIPS-197 vector          ok")

    msg = b"selftest payload" * 4
    assert aes.decrypt_ctr(key, aes.encrypt_ctr(key, msg)) == msg
    assert stream.open_sealed(key, stream.seal(key, msg)) == msg
    print("AES-CTR / stream seal roundtrip  ok")

    pair = rsa.generate_keypair(512)
    assert rsa.decrypt_blob(pair.private,
                            rsa.encrypt_blob(pair.public, msg)) == msg
    rsa.verify(pair.public, msg, rsa.sign(pair.private, msg))
    print("RSA encrypt/sign roundtrip       ok")

    sig_pair = esign.generate_keypair(prime_bits=96)
    esign.verify(sig_pair.verification, msg,
                 esign.sign(sig_pair.signing, msg))
    print("ESIGN sign/verify roundtrip      ok")

    authority = ibe.KeyAuthority(modulus_bits=256)
    identity = "selftest@example"
    blob = ibe.encrypt(authority.params, identity, b"bootstrap-key-16")
    assert ibe.decrypt(authority.params, authority.extract(identity),
                       blob) == b"bootstrap-key-16"
    print("Cocks IBE roundtrip              ok")
    print("all self-tests passed")
    return 0


def _demo_stack():
    from .crypto.provider import CryptoProvider
    from .fs.client import SharoesFilesystem
    from .fs.volume import SharoesVolume
    from .principals.groups import GroupKeyService
    from .principals.registry import PrincipalRegistry
    from .storage.server import StorageServer

    registry = PrincipalRegistry()
    alice = registry.create_user("alice", key_bits=512)
    bob = registry.create_user("bob", key_bits=512)
    registry.create_user("carol", key_bits=512)
    registry.create_group("eng", {"alice", "bob"}, key_bits=512)
    server = StorageServer()
    volume = SharoesVolume(server, registry)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    fs = SharoesFilesystem(volume, alice)
    fs.mount()
    return registry, server, volume, fs


def _cmd_demo(args: argparse.Namespace) -> int:
    from .errors import PermissionDenied
    from .fs.client import SharoesFilesystem

    registry, server, volume, alice_fs = _demo_stack()
    alice_fs.mkdir("/projects", mode=0o750)
    alice_fs.create_file("/projects/plan.txt", b"ship it", mode=0o640)
    print("alice created /projects/plan.txt (rw-r----- alice:eng)")

    bob_fs = SharoesFilesystem(volume, registry.user("bob"))
    bob_fs.mount()
    print("bob (group eng) reads:",
          bob_fs.read_file("/projects/plan.txt").decode())

    carol_fs = SharoesFilesystem(volume, registry.user("carol"))
    carol_fs.mount()
    try:
        carol_fs.read_file("/projects/plan.txt")
    except PermissionDenied:
        print("carol (other) denied at the 750 directory")

    leaked = any(b"ship it" in payload
                 for payload in server.raw_blobs().values())
    print(f"SSP blobs: {server.blob_count()}, plaintext leaked: {leaked}")
    return 0


def _workload_params(workload: str, scale: float) -> dict:
    """Scaled parameters for one named workload (andrew has none)."""
    if workload == "postmark":
        return {"files": max(10, int(500 * scale)),
                "transactions": max(10, int(500 * scale))}
    if workload == "createlist":
        return {"files": max(4, int(500 * scale)),
                "dirs": max(1, int(25 * scale))}
    return {}


def _cmd_bench_throughput(args: argparse.Namespace) -> int:
    from .obs.bench import write_bench_json
    from .workloads.throughput import run_throughput

    clients = max(4, int(100 * args.scale))
    ops = 20 if args.scale >= 1 else 10
    result = run_throughput(clients=clients, ops_per_client=ops,
                            concurrency=args.concurrency)
    lat = result["latency_s"]
    print(f"throughput: {clients} clients x {ops} ops, "
          f"concurrency={args.concurrency}")
    print(f"  {result['ops_per_sec']:.3f} ops/s over "
          f"{result['sim_seconds']:.1f} simulated s; latency p50 "
          f"{lat['p50']:.3f}s p95 {lat['p95']:.3f}s p99 "
          f"{lat['p99']:.3f}s; {result['lease_conflicts']} lease "
          f"conflicts; fsck {'clean' if result['fsck_clean'] else 'DIRTY'}")
    path = write_bench_json({"name": "throughput", **result},
                            args.out_dir)
    print(f"wrote {path}")
    return 0 if result["fsck_clean"] else 1


def _cmd_bench_workload(args: argparse.Namespace) -> int:
    from .obs.bench import write_bench_json
    from .obs.export import op_table
    from .workloads import run_observed

    if args.workload == "throughput":
        return _cmd_bench_throughput(args)
    config = None
    if args.concurrency:
        from .fs.client import ClientConfig
        config = ClientConfig(concurrency=args.concurrency)
    payload, _spans = run_observed(
        args.workload, impl=args.impl,
        params=_workload_params(args.workload, args.scale),
        flaky_p=args.flaky_p, flaky_seed=args.flaky_seed,
        config=config, shards=args.shards, replicas=args.replicas)
    print(op_table(payload, title=f"{args.workload} per-operation costs "
                                  f"({args.impl})"))
    path = write_bench_json(payload, args.out_dir)
    print(f"wrote {path}")
    return 0


def _parse_resolve_gates(specs: list[str] | None,
                         flag: str = "--resolve-gate"
                         ) -> dict[str, float]:
    """``["andrew=0.5", ...]`` -> ``{"andrew": 0.5}``."""
    gates: dict[str, float] = {}
    for spec in specs or ():
        workload, sep, ratio = spec.partition("=")
        if not sep or not workload:
            raise SystemExit(
                f"{flag} {spec!r}: expected WORKLOAD=RATIO")
        try:
            gates[workload] = float(ratio)
        except ValueError:
            raise SystemExit(
                f"{flag} {spec!r}: {ratio!r} is not a number")
    return gates


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from .obs.bench import diff_bench, format_diff_table, load_bench

    old_path, new_path = args.diff
    diff = diff_bench(load_bench(old_path), load_bench(new_path),
                      wall_tol=args.wall_tol,
                      request_tol=args.request_tol,
                      phase_tol=args.phase_tol,
                      resolve_gates=_parse_resolve_gates(
                          args.resolve_gate),
                      overlap_gates=_parse_resolve_gates(
                          args.overlap_gate, flag="--overlap-gate"))
    print(format_diff_table(
        diff, title=f"bench diff: {old_path} -> {new_path}"))
    for line in diff["regressions"]:
        print(f"REGRESSION: {line}", file=sys.stderr)
    if not diff["ok"]:
        return 1
    print("no regressions")
    return 0


def _cmd_bench_list(args: argparse.Namespace) -> int:
    from .obs.bench import bench_trajectory, format_trajectory_table

    rows = bench_trajectory(args.out_dir)
    if not rows:
        print(f"no BENCH_<pr>.json documents under {args.out_dir}",
              file=sys.stderr)
        return 1
    print(format_trajectory_table(
        rows, title=f"bench trajectory ({args.out_dir})"))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .workloads import (IMPLEMENTATIONS, LABELS, OPERATIONS,
                            PAPER_FIG9, PAPER_FIG12, make_env, run_andrew,
                            run_create_and_list, run_op_costs,
                            run_postmark)
    from .workloads.report import (ComparisonRow, format_comparison,
                                   format_table)

    if args.list:
        return _cmd_bench_list(args)
    if args.diff is not None:
        return _cmd_bench_diff(args)
    if args.workload is not None:
        return _cmd_bench_workload(args)
    figure = args.figure
    scale = args.scale
    if figure is None:
        print("bench: provide a figure (fig9..fig13), --workload, "
              "--diff OLD NEW, or --list", file=sys.stderr)
        return 2
    if figure == "fig9":
        files, dirs = int(500 * scale), max(1, int(25 * scale))
        for phase in ("create", "list"):
            rows = []
            for impl in IMPLEMENTATIONS:
                result = run_create_and_list(make_env(impl), files=files,
                                             dirs=dirs)
                rows.append(ComparisonRow(
                    LABELS[impl], PAPER_FIG9[impl][phase] * scale,
                    getattr(result, f"{phase}_seconds")))
            print(format_comparison(
                f"Figure 9 {phase} ({files} files; paper scaled "
                f"x{scale:g})", rows))
    elif figure == "fig10":
        from .workloads import FIG10_CACHE_FRACTIONS, FIG10_IMPLS
        files = tx = int(500 * scale)
        headers = ["implementation"] + [
            f"{int(f * 100)}%" for f in FIG10_CACHE_FRACTIONS]
        rows = []
        for impl in FIG10_IMPLS:
            env = make_env(impl)
            rows.append([LABELS[impl]] + [
                f"{run_postmark(env, files=files, transactions=tx, cache_fraction=f).total_seconds:.0f}"
                for f in FIG10_CACHE_FRACTIONS])
        print(format_table(f"Figure 10 Postmark ({files} files/{tx} tx)",
                           headers, rows))
    elif figure in ("fig11", "fig12"):
        impls = ("no-enc-md-d", "no-enc-md", "sharoes", "pub-opt")
        results = {impl: run_andrew(make_env(impl)) for impl in impls}
        if figure == "fig11":
            headers = ["implementation", "mkdir", "copy", "stat", "read",
                       "compile"]
            rows = [[LABELS[i]] + [f"{results[i].phase_seconds[p]:.1f}"
                                   for p in ("mkdir", "copy", "stat",
                                             "read", "compile")]
                    for i in impls]
            print(format_table("Figure 11 Andrew phases (s)", headers,
                               rows))
        else:
            rows = [ComparisonRow(LABELS[i], PAPER_FIG12[i],
                                  results[i].total_seconds)
                    for i in impls]
            print(format_comparison("Figure 12 Andrew cumulative", rows))
    else:  # fig13 (argparse admits no other figure)
        costs = run_op_costs(make_env("sharoes"))
        rows = [[op, f"{costs[op].network_s * 1000:.0f}",
                 f"{costs[op].crypto_s * 1000:.0f}",
                 f"{costs[op].other_s * 1000:.0f}",
                 f"{costs[op].crypto_fraction * 100:.1f}%"]
                for op in OPERATIONS]
        print(format_table("Figure 13 SHAROES op costs (ms)",
                           ["operation", "NETWORK", "CRYPTO", "OTHER",
                            "crypto%"], rows))
    return 0


#: Metric prefixes that make up the ``repro stats`` cache section: the
#: byte-budgeted store, the PR 7 verified metadata cache, the readahead
#: buffer it shares a coherence surface with, and the resolve walk
#: hit/miss split those caches feed.
_CACHE_METRIC_PREFIXES = ("client.cache.", "client.mdcache.",
                          "client.readahead.", "client.resolve.")


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs.export import metrics_table, op_table
    from .obs.metrics import MetricsRegistry
    from .workloads import run_observed

    params = _workload_params(args.workload, args.scale)
    if args.mdcache:
        if args.workload != "andrew":
            print("stats: --mdcache applies to --workload andrew (the "
                  "other harnesses fix their own client configs)",
                  file=sys.stderr)
            return 2
        params["mdcache"] = True
    payload, _spans = run_observed(
        args.workload, impl=args.impl, params=params,
        flaky_p=args.flaky_p, flaky_seed=args.flaky_seed)
    # The run's registry snapshot travels in the payload; rehydrate it
    # as plain gauges so both tables render the same numbers.
    registry = MetricsRegistry()
    cache_registry = MetricsRegistry()
    for name, value in payload["metrics"].items():
        registry.gauge(name).set(value)
        if name.startswith(_CACHE_METRIC_PREFIXES):
            cache_registry.gauge(name).set(value)
    prefetched = payload["metrics"].get("client.readahead.prefetched")
    if prefetched:
        # Speculation's waste: blobs fetched ahead that their load then
        # ruled out unread.
        cache_registry.gauge("client.readahead.waste").set(
            payload["metrics"].get("client.readahead.dropped", 0.0)
            / prefetched)
    print(op_table(payload, title=f"{args.workload} per-operation costs "
                                  f"({args.impl})"))
    if len(cache_registry.snapshot()):
        print(metrics_table(cache_registry,
                            title=f"{args.workload} cache behaviour "
                                  "(see docs/CACHING.md)"))
    print(metrics_table(registry,
                        title=f"{args.workload} metrics snapshot"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.export import spans_to_jsonl
    from .workloads import run_observed

    _payload, spans = run_observed(
        args.workload, impl=args.impl,
        params=_workload_params(args.workload, args.scale))
    text = spans_to_jsonl(spans)
    if args.out is not None:
        import pathlib
        pathlib.Path(args.out).write_text(text + "\n")
        print(f"wrote {len(spans)} spans to {args.out}")
    else:
        print(text)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json as _json
    import pathlib

    from .obs import profile as prof

    if args.input is not None:
        roots = prof.load_spans_jsonl(args.input)
        source = args.input
    else:
        from .workloads import run_traced
        _payload, roots, orphans, _env = run_traced(
            args.workload, impl=args.impl,
            params=_workload_params(args.workload, args.scale))
        if orphans:
            print(f"warning: {len(orphans)} unstitched server spans",
                  file=sys.stderr)
        source = f"{args.workload} ({args.impl})"
    if args.format == "folded":
        text = prof.folded_stacks(roots)
    elif args.format == "speedscope":
        text = _json.dumps(prof.speedscope_document(roots, name=source),
                           indent=1, sort_keys=True) + "\n"
    elif args.format == "top":
        text = prof.format_self_time_table(
            prof.self_time_report(roots, top=args.top),
            title=f"top self time: {source}") + "\n"
    else:  # resolve
        report = prof.resolve_attribution(roots)
        if args.out is not None and args.out.endswith(".json"):
            text = _json.dumps(report, indent=2, sort_keys=True) + "\n"
        else:
            text = prof.format_resolve_table(
                report, title=f"resolve attribution: {source}") + "\n"
    if args.out is not None:
        pathlib.Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    registry, server, volume, fs = _demo_stack()
    fs.mkdir("/data", mode=0o755)
    for i in range(args.files):
        fs.create_file(f"/data/file{i}.bin", bytes(range(256)) * 4,
                       mode=0o640)
    by_kind: dict[str, tuple[int, int]] = {}
    for blob_id, payload in server.raw_blobs().items():
        count, size = by_kind.get(blob_id.kind, (0, 0))
        by_kind[blob_id.kind] = (count + 1, size + len(payload))
    print(f"SSP view of a {args.files}-file volume "
          f"({server.blob_count()} blobs, {server.stored_bytes()} B):")
    for kind in sorted(by_kind):
        count, size = by_kind[kind]
        print(f"  {kind:10s} {count:4d} blobs  {size:8d} B")
    sample_id = next(iter(server.list_kind("meta")))
    sample = server.get(sample_id)
    printable = sum(32 <= b < 127 for b in sample) / len(sample)
    print(f"sample metadata blob {sample_id}: {len(sample)} B, "
          f"{printable:.0%} printable bytes (ciphertext)")
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from .fs.volume import block_blob_id
    from .tools.fsck import VolumeAuditor

    registry, server, volume, fs = _demo_stack()
    fs.mkdir("/docs", mode=0o755)
    fs.create_file("/docs/a.txt", b"content a", mode=0o644)
    fs.create_file("/docs/b.txt", b"content b", mode=0o600)
    if args.corrupt:
        inode = fs.getattr("/docs/a.txt").inode
        blob = bytearray(server.get(block_blob_id(inode, 0)))
        blob[10] ^= 1
        server.put(block_blob_id(inode, 0), bytes(blob))
        print("injected a bit flip into /docs/a.txt's data block")
    if args.stranded:
        # A journaled client dies mid-rename: its sealed intent stays
        # pending at the SSP for --repair to roll forward.
        from .errors import ClientCrashed
        from .fs.client import ClientConfig, SharoesFilesystem
        from .storage.resilient import MutationTrigger, crash
        # Mutations: the lease CAS, the frame's compared head and its
        # fence check, the intent, then the apply.
        crasher = MutationTrigger(server, {5: crash})
        dying = SharoesFilesystem(volume, registry.user("alice"),
                                  config=ClientConfig(journal=True,
                                                      lease=True),
                                  server=crasher)
        dying.mount()
        try:
            dying.rename("/docs/a.txt", "/docs/renamed.txt")
        except ClientCrashed:
            print("stranded a dying client's rename mid-apply")
    auditor = VolumeAuditor(volume)
    report = auditor.audit()
    print(report.summary())
    for err in report.integrity_errors:
        print("  integrity:", err)
    for err in report.structural_errors:
        print("  structure:", err)
    for blob in report.orphaned_blobs:
        print("  orphan:", blob)
    for intent in report.pending_intents:
        print("  pending intent:", intent)
    if args.repair:
        repair = auditor.repair()
        print(repair.summary())
        for item in repair.completed_intents:
            print("  completed intent:", item)
        for item in repair.rejected_journals:
            print("  rejected journal:", item)
        for item in repair.reclaimed_blobs:
            print("  reclaimed:", item)
        for item in repair.advanced_epochs:
            print("  advanced epoch:", item)
        report = repair.audit
        print(report.summary())
        return 0 if report.clean and not report.orphaned_blobs else 1
    return 0 if report.clean else 1


def _choose(flag: str, wanted: str | None,
            known) -> tuple[str, ...] | None:
    """Parse a ``--<flag> a,b,c`` list against the known names.

    Returns the chosen names in their known order (all of ``known``
    when the flag is absent), or None after saying what was unknown:
    the caller exits 2.
    """
    if not wanted:
        return tuple(known)
    names = set(wanted.split(","))
    unknown = sorted(names - set(known))
    if unknown:
        print(f"unknown {flag}: {unknown}; choose from {list(known)}")
        return None
    return tuple(name for name in known if name in names)


#: ``repro matrix <kind>``: what each kind sweeps (its help line).
_MATRIX_KINDS = {
    "crash": "kill a journaled client at every mutation of every op and "
             "assert recovery (modes: mount, fsck)",
    "interleave": "sweep multi-client op interleavings under leases and "
                  "assert no lost updates (modes: sequential, preempt, "
                  "crash, zombie)",
    "campaign": "the interleave matrix over a sharded backend with "
                "outage/flaky/rollback/tamper/rebalance shards armed per "
                "cell",
    "rebalance": "kill the rebalancer at every pipeline action and assert "
                 "byte-identical recovery vs an unsharded twin (modes: "
                 "resume, repair, writes, shard-down)",
}


def _matrix(args: argparse.Namespace):
    """The sweep ``repro matrix <kind>`` runs (None: exit 2)."""
    if args.kind == "crash":
        from .tools.crashmatrix import CrashMatrix
        return CrashMatrix(seed=args.seed)
    if args.kind == "interleave":
        from .tools.interleave import InterleaveMatrix
        return InterleaveMatrix(seed=args.seed)
    if args.kind == "rebalance":
        from .tools.rebalancematrix import RebalanceMatrix
        return RebalanceMatrix(seed=args.seed)
    from .tools.campaign import DEFAULT_SCENARIOS, Campaign
    wanted = _choose("scenarios", args.scenarios,
                     [s.name for s in DEFAULT_SCENARIOS])
    if wanted is None:
        return None
    return Campaign(seed=args.seed, shards=args.shards,
                    replicas=args.replicas, read_quorum=args.read_quorum,
                    flaky_p=args.flaky_p,
                    scenarios=tuple(s for s in DEFAULT_SCENARIOS
                                    if s.name in wanted))


def _cmd_matrix(args: argparse.Namespace) -> int:
    """Sweep one matrix and print its table (``--out``: write it too).

    Exit 0 when every cell is consistent, 1 when any is not, 2 for an
    unknown case, mode or scenario.
    """
    matrix = _matrix(args)
    if matrix is None:
        return 2
    modes = _choose("modes", args.modes, matrix.MODES)
    names = _choose("cases", args.cases, [c.name for c in matrix.cases])
    if modes is None or names is None:
        return 2
    outcomes = matrix.run(modes, [c for c in matrix.cases
                                  if c.name in names])
    table = matrix.table(outcomes)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        print(f"wrote {args.out}")
    print(table)
    return 0 if matrix.ok(outcomes) else 1


def _cmd_shard_repair(args: argparse.Namespace) -> int:
    """Demo: lose a shard mid-workload, bring it back, anti-entropy."""
    from .crypto.provider import CryptoProvider
    from .fs.client import SharoesFilesystem
    from .fs.volume import SharoesVolume
    from .principals.groups import GroupKeyService
    from .principals.registry import PrincipalRegistry
    from .storage.shards import ShardedServer
    from .tools.fsck import VolumeAuditor

    registry = PrincipalRegistry()
    alice = registry.create_user("alice", key_bits=512)
    registry.create_group("eng", {"alice"}, key_bits=512)
    server = ShardedServer(shards=args.shards, replicas=args.replicas)
    volume = SharoesVolume(server, registry)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    fs = SharoesFilesystem(volume, alice)
    fs.mount()
    fs.mkdir("/docs", mode=0o755)
    for i in range(args.files // 2):
        fs.create_file(f"/docs/pre{i}.txt", f"before outage {i}".encode())
    down = args.down % args.shards
    server.outage(down)
    print(f"shard {down} of {args.shards} down "
          f"(replicas={args.replicas}); workload continues:")
    for i in range(args.files - args.files // 2):
        fs.create_file(f"/docs/post{i}.txt", f"during outage {i}".encode())
    gaps = server.under_replicated()
    print(f"  {len(gaps)} blobs under-replicated while it was out")
    server.clear_wrappers()
    print(f"shard {down} back; running anti-entropy:")
    report = server.repair()
    if not report.fully_replicated:
        report = server.repair()
    print(f"  {report.summary()}")
    for blob_id in report.remaining:
        print(f"  still pending: {blob_id}")
    audit = VolumeAuditor(volume).audit()
    print(f"post-repair audit: {audit.summary()}")
    snap = server.shard_snapshot()
    print(f"reads: {snap['reads.failover']:.0f} failovers, "
          f"{snap['reads.quorum']:.0f} quorum; writes: "
          f"{snap['writes.partial']:.0f} partial")
    return 0 if (report.fully_replicated and audit.clean
                 and not server.under_replicated()) else 1


def _cmd_shard_rebalance(args: argparse.Namespace) -> int:
    """Demo: change N or k online, under live writes, crash-safely."""
    from .crypto.provider import CryptoProvider
    from .errors import ClientCrashed
    from .fs.client import SharoesFilesystem
    from .fs.volume import SharoesVolume
    from .principals.groups import GroupKeyService
    from .principals.registry import PrincipalRegistry
    from .storage.faults import CrashingRebalancer
    from .storage.rebalance import FLIPPED, VERIFIED, Rebalancer
    from .storage.shards import ShardedServer
    from .tools.fsck import VolumeAuditor

    registry = PrincipalRegistry()
    alice = registry.create_user("alice", key_bits=512)
    registry.create_group("eng", {"alice"}, key_bits=512)
    server = ShardedServer(shards=args.from_shards,
                           replicas=args.from_replicas)
    volume = SharoesVolume(server, registry)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    fs = SharoesFilesystem(volume, alice)
    fs.mount()
    fs.mkdir("/docs", mode=0o755)
    contents = {}
    for i in range(args.files):
        path = f"/docs/pre{i}.txt"
        contents[path] = f"before rebalance {i}".encode()
        fs.create_file(path, contents[path])
    while len(server.shards) < args.shards:
        server.add_shard()
    target = tuple(range(args.shards))
    print(f"rebalancing {args.from_shards} shards x k="
          f"{args.from_replicas} -> {args.shards} x k={args.replicas} "
          f"under live writes:")

    hook = CrashingRebalancer(crash_after=args.crash_at)
    reb = Rebalancer(server, keypair=alice.keypair, hook=hook)
    crashed = False
    try:
        plan = reb.propose(target, args.replicas)
        print(f"  plan epoch {plan.epoch} signed: "
              f"{len(plan.moves)} blobs to move")
        reb.execute(until=VERIFIED)
        path = "/docs/during-copy.txt"
        contents[path] = b"written while the plan was staging"
        fs.create_file(path, contents[path])
        reb.execute(until=FLIPPED)
        path = "/docs/during-flip.txt"
        contents[path] = b"written after the authority flip"
        fs.create_file(path, contents[path])
        reb.execute()
    except ClientCrashed as exc:
        crashed = True
        print(f"  CRASH: {exc}")
        print("  recovering from the stored plan:")
        reb2 = Rebalancer.recover(server, alice.keypair.public,
                                  keypair=alice.keypair)
        report = reb2.resume()
        print(f"  {report.summary()}")
    snap = server.shard_snapshot()
    print(f"  moved {snap['rebalance.moved']:.0f}, verified "
          f"{snap['rebalance.verified']:.0f}, dropped "
          f"{snap['rebalance.dropped']:.0f}; dual reads "
          f"{snap['rebalance.dual_reads']:.0f}, dual writes "
          f"{snap['rebalance.dual_writes']:.0f}"
          + (" (after crash + resume)" if crashed else ""))

    ring_ok = (server.ring.members == target
               and server.ring.replicas == args.replicas)
    print(f"ring now {server.ring.members} x k={server.ring.replicas}"
          f" ({'target reached' if ring_ok else 'NOT the target'})")
    repair = server.repair()
    if not repair.fully_replicated:
        repair = server.repair()
    print(f"anti-entropy: {repair.summary()}")
    bytes_ok = all(fs.read_file(path) == payload
                   for path, payload in contents.items())
    print(f"file contents: {'byte-identical' if bytes_ok else 'CORRUPT'}"
          f" ({len(contents)} files)")
    audit = VolumeAuditor(volume).audit()
    print(f"post-rebalance audit: {audit.summary()}")
    return 0 if (ring_ok and bytes_ok and audit.clean
                 and repair.fully_replicated
                 and not server.under_replicated()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharoes-repro",
        description="SHAROES (ICDE 2008) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selftest", help="cryptographic self-test")
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("demo", help="end-to-end sharing demo")
    p.set_defaults(func=_cmd_demo)

    workloads = ["postmark", "andrew", "createlist", "office",
                 "throughput"]
    impls = ["sharoes", "no-enc-md-d", "no-enc-md", "public", "pub-opt"]

    p = sub.add_parser("bench",
                       help="regenerate a paper figure, or run a named "
                            "workload and write BENCH_<name>.json")
    p.add_argument("figure", nargs="?",
                   choices=["fig9", "fig10", "fig11", "fig12", "fig13"])
    p.add_argument("--scale", type=float, default=0.2,
                   help="workload scale vs the paper (default 0.2; "
                        "1.0 = full paper parameters)")
    p.add_argument("--workload", choices=workloads,
                   help="run this workload with span tracing and write a "
                        "machine-readable BENCH_<workload>.json instead "
                        "of a figure")
    p.add_argument("--impl", choices=impls, default="sharoes",
                   help="implementation for --workload (default sharoes)")
    p.add_argument("--flaky-p", type=float, default=0.0,
                   help="inject transient SSP faults at this per-request "
                        "probability (with --workload; sharoes only)")
    p.add_argument("--flaky-seed", type=int, default=0,
                   help="seed for fault injection + retry jitter")
    p.add_argument("--shards", type=int, default=0,
                   help="run --workload over a sharded multi-SSP "
                        "backend of this many servers (sharoes only; "
                        "0 = the paper's single SSP)")
    p.add_argument("--replicas", type=int, default=2,
                   help="replicas per blob with --shards (default 2)")
    p.add_argument("--concurrency", type=int, default=0,
                   help="pipelined request window for --workload "
                        "(ClientConfig.concurrency; 0 = sequential; "
                        "also the window for --workload throughput)")
    p.add_argument("--out-dir", default="benchmarks/results",
                   help="directory for BENCH_*.json "
                        "(default benchmarks/results)")
    p.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                   help="diff two BENCH_*.json documents and exit "
                        "non-zero on perf regression (the CI gate)")
    p.add_argument("--wall-tol", type=float, default=0.02,
                   help="relative wall-clock slowdown tolerated by "
                        "--diff (default 0.02)")
    p.add_argument("--request-tol", type=float, default=0.0,
                   help="relative request-count growth tolerated by "
                        "--diff (default 0.0: any extra request fails)")
    p.add_argument("--phase-tol", type=float, default=None,
                   help="gate per-phase seconds too at this relative "
                        "tolerance (default: phases are report-only)")
    p.add_argument("--resolve-gate", action="append",
                   metavar="WORKLOAD=RATIO",
                   help="with --diff: demand NEW resolve seconds <= "
                        "RATIO x OLD for this workload (repeatable; "
                        "e.g. andrew=0.5 locks in the PR 7 mdcache "
                        "win; fails if either side lacks a trace "
                        "section)")
    p.add_argument("--overlap-gate", action="append",
                   metavar="WORKLOAD=RATIO",
                   help="with --diff: demand the NEW document's "
                        "WORKLOAD_concurrent entry finish in <= RATIO "
                        "x the plain WORKLOAD entry's wall seconds "
                        "(repeatable; e.g. postmark=0.75 locks in the "
                        "PR 10 pipelining win)")
    p.add_argument("--list", action="store_true",
                   help="print the committed per-PR benchmark "
                        "trajectory from --out-dir and exit")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("stats",
                       help="run a workload, dump the metrics registry "
                            "and per-op cost table")
    p.add_argument("--workload", choices=workloads, default="postmark")
    p.add_argument("--impl", choices=impls, default="sharoes")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--flaky-p", type=float, default=0.0,
                   help="inject transient SSP faults at this per-request "
                        "probability (sharoes only)")
    p.add_argument("--flaky-seed", type=int, default=0,
                   help="seed for fault injection + retry jitter")
    p.add_argument("--mdcache", action="store_true",
                   help="mount the verified metadata cache for the run "
                        "(andrew only) so the client.mdcache.* section "
                        "is populated -- see docs/CACHING.md")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("trace",
                       help="run a workload, emit operation spans as "
                            "JSON-lines")
    p.add_argument("--workload", choices=workloads, default="office")
    p.add_argument("--impl", choices=impls, default="sharoes")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--out", help="write spans here instead of stdout")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("profile",
                       help="run a workload wire-traced and render the "
                            "stitched client+server span tree as a "
                            "profile")
    p.add_argument("--workload", choices=workloads, default="andrew")
    p.add_argument("--impl", choices=impls, default="sharoes")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--format",
                   choices=["folded", "speedscope", "top", "resolve"],
                   default="top",
                   help="folded stacks (flamegraph.pl), speedscope "
                        "JSON, top-N self-time table (default), or the "
                        "per-depth resolve-attribution report")
    p.add_argument("--top", type=int, default=15,
                   help="row count for --format top (default 15)")
    p.add_argument("--input",
                   help="render this spans JSONL file (from ``repro "
                        "trace --out``) instead of running a workload")
    p.add_argument("--out", help="write here instead of stdout "
                                 "(--format resolve with a .json path "
                                 "writes machine-readable JSON)")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("inspect", help="dump the SSP's view of a volume")
    p.add_argument("--files", type=int, default=10)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("fsck",
                       help="audit a demo volume (with optional injected "
                            "corruption)")
    p.add_argument("--corrupt", action="store_true",
                   help="flip a bit in one data block first")
    p.add_argument("--stranded", action="store_true",
                   help="leave a dead client's pending intent behind")
    p.add_argument("--repair", action="store_true",
                   help="roll pending intents forward and reclaim "
                        "orphans (see docs/ROBUSTNESS.md)")
    p.set_defaults(func=_cmd_fsck)

    p = sub.add_parser("shard-repair",
                       help="demo: lose one shard of a replicated "
                            "multi-SSP volume mid-workload, bring it "
                            "back, and anti-entropy-repair to full "
                            "replication")
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument("--down", type=int, default=0,
                   help="which shard suffers the outage (default 0)")
    p.add_argument("--files", type=int, default=12,
                   help="files created across the outage (default 12)")
    p.set_defaults(func=_cmd_shard_repair)

    p = sub.add_parser("shard-rebalance",
                       help="demo: change the shard count or "
                            "replication factor online under live "
                            "writes (optionally crashing the "
                            "rebalancer and recovering)")
    p.add_argument("--shards", type=int, default=6,
                   help="target shard count (default 6)")
    p.add_argument("--replicas", type=int, default=3,
                   help="target replication factor (default 3)")
    p.add_argument("--from-shards", type=int, default=4,
                   help="initial shard count (default 4)")
    p.add_argument("--from-replicas", type=int, default=2,
                   help="initial replication factor (default 2)")
    p.add_argument("--files", type=int, default=12,
                   help="files created before the rebalance")
    p.add_argument("--crash-at", type=int, default=None,
                   help="kill the rebalancer at its k-th pipeline "
                        "action, then recover from the stored plan")
    p.set_defaults(func=_cmd_shard_rebalance)

    p = sub.add_parser("matrix",
                       help="sweep a seeded correctness matrix and print "
                            "its outcomes table (exit 1 on any "
                            "inconsistent cell)")
    kinds = p.add_subparsers(dest="kind", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0,
                        help="fixes payloads and fault draws (outcomes "
                             "are deterministic per seed)")
    shared.add_argument("--cases", help="comma-separated case subset "
                                        "(default all)")
    shared.add_argument("--modes", help="comma-separated mode subset "
                                        "(default all)")
    shared.add_argument("--out", help="also write the outcomes table here")
    for kind, text in _MATRIX_KINDS.items():
        kinds.add_parser(kind, parents=[shared], help=text,
                         description=text).set_defaults(func=_cmd_matrix)
    p = kinds.choices["campaign"]
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--replicas", type=int, default=3)
    p.add_argument("--read-quorum", type=int, default=2)
    p.add_argument("--flaky-p", type=float, default=0.1,
                   help="per-request failure rate of the flaky shard")
    p.add_argument("--scenarios",
                   help="comma-separated subset of outage+flaky,"
                        "rollback,tamper,rebalance (default all)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)

