"""The command-line interface."""

import copy
import json
import pathlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_requires_figure_or_workload(self, capsys):
        # The figure positional became optional when --workload arrived;
        # asking for neither is still an error.
        assert main(["bench"]) == 2
        assert "figure" in capsys.readouterr().err

    def test_bench_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])


class TestCommands:
    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all self-tests passed" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "bob (group eng) reads: ship it" in out
        assert "plaintext leaked: False" in out

    def test_inspect(self, capsys):
        assert main(["inspect", "--files", "3"]) == 0
        out = capsys.readouterr().out
        assert "SSP view" in out
        assert "meta" in out
        assert "ciphertext" in out

    def test_bench_fig13(self, capsys):
        assert main(["bench", "fig13"]) == 0
        out = capsys.readouterr().out
        assert "getattr" in out
        assert "read-1MB" in out

    def test_bench_fig9_tiny(self, capsys):
        assert main(["bench", "fig9", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "SHAROES" in out
        assert "PUBLIC" in out

    def test_bench_fig12(self, capsys):
        assert main(["bench", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out

    def test_bench_workload_writes_json(self, capsys, tmp_path):
        assert main(["bench", "--workload", "postmark", "--scale", "0.02",
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "per-operation costs" in out
        data = json.loads((tmp_path / "BENCH_postmark.json").read_text())
        assert data["name"] == "postmark"
        assert "mknod" in data["ops"]
        assert data["cost_model"]["total"] > 0

    def test_stats_table(self, capsys):
        assert main(["stats", "--workload", "office"]) == 0
        out = capsys.readouterr().out
        assert "per-operation costs" in out
        assert "metrics snapshot" in out

    def test_trace_jsonl(self, capsys):
        assert main(["trace", "--workload", "office"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.strip()]
        records = [json.loads(line) for line in lines]
        assert records and all("name" in r and "duration" in r
                               for r in records)

    def test_fsck_clean(self, capsys):
        assert main(["fsck"]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_fsck_corrupt(self, capsys):
        assert main(["fsck", "--corrupt"]) == 1
        out = capsys.readouterr().out
        assert "ERRORS FOUND" in out
        assert "integrity:" in out

    def test_fsck_stranded_repair(self, capsys):
        assert main(["fsck", "--stranded", "--repair"]) == 0
        out = capsys.readouterr().out
        assert "1 pending intents" in out
        assert "fsck --repair: CLEAN -- 1 intents completed" in out
        assert out.rstrip().endswith("0 pending intents")

    @pytest.mark.parametrize("argv, code, last_line", [
        (["stats", "--workload", "andrew", "--mdcache", "--scale",
          "0.02"], 0, "ssp.puts_by_kind.super"),
        (["shard-rebalance"], 0, "post-rebalance audit: fsck: CLEAN"),
        (["bench", "--workload", "createlist", "--scale", "0.02",
          "--concurrency", "4", "--out-dir", "{tmp}"], 0,
         "wrote {tmp}/BENCH_createlist.json"),
        (["bench", "--list", "--out-dir", "{tmp}"], 1, ""),
    ], ids=["stats-mdcache", "rebalance-no-crash", "bench-concurrency",
            "empty-trajectory"])
    def test_operator_options(self, capsys, tmp_path, argv, code,
                              last_line):
        """Options no CI step passes still run end to end."""
        fill = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(fill) == code
        out = capsys.readouterr().out.strip().splitlines()
        assert (out[-1] if out else "").startswith(
            last_line.format(tmp=tmp_path))

    def test_trace_file_feeds_profile(self, capsys, tmp_path):
        spans = tmp_path / "spans.jsonl"
        assert main(["trace", "--workload", "office", "--scale", "0.02",
                     "--out", str(spans)]) == 0
        assert capsys.readouterr().out.startswith("wrote ")
        for fmt, row in (("folded", "readdir "), ("top", "write_file ")):
            assert main(["profile", "--input", str(spans),
                         "--format", fmt]) == 0
            assert row in capsys.readouterr().out

    @pytest.mark.parametrize("figure, title", [
        ("fig10", "Figure 10 Postmark"), ("fig11", "Figure 11 Andrew")])
    def test_bench_fig10_fig11_tiny(self, capsys, figure, title):
        assert main(["bench", figure, "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(title) and "SHAROES" in out


class TestMatrix:
    """``repro matrix <kind>``: one command for the four sweeps."""

    @pytest.mark.parametrize("kind", ["crash", "interleave", "campaign",
                                      "rebalance"])
    def test_unknown_case_exits_2_naming_the_known_ones(self, kind,
                                                       capsys):
        assert main(["matrix", kind, "--cases", "bogus"]) == 2
        out = capsys.readouterr().out
        assert "unknown cases: ['bogus']; choose from [" in out
        known = {"crash": "writeback-truncate",
                 "interleave": "create-same-name",
                 "campaign": "create-same-name",
                 "rebalance": "grow-4x2-6x3"}[kind]
        assert f"'{known}'" in out

    def test_out_writes_the_printed_table(self, capsys, tmp_path):
        out = tmp_path / "table.txt"
        assert main(["matrix", "crash", "--cases", "mkdir",
                     "--modes", "mount", "--out", str(out)]) == 0
        table = out.read_text()
        assert table.endswith(" crash points, 0 inconsistent\n")
        assert table in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["crash-matrix"], ["interleave"], ["campaign"],
        ["rebalance-matrix"], ["matrix", "crash", "--recovery", "both"],
        ["matrix", "interleave", "--shards", "4"]])
    def test_old_commands_and_foreign_flags_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestBenchDiffResolveGate:
    """``repro bench --diff --resolve-gate WORKLOAD=RATIO`` (PR 7)."""

    @staticmethod
    def _bench_doc(path, resolve_s, wall=100.0, requests=50):
        doc = {"schema": 2, "name": "andrew", "params": {}, "ops": {},
               "totals": {"spans": 1, "seconds": wall, "phases": {}},
               "cost_model": {"total": wall},
               "metrics": {"client.requests": requests}}
        if resolve_s is not None:
            doc["trace"] = {"resolve_depth": {
                "0": {"walks": 10, "hits": 9, "misses": 1,
                      "seconds": resolve_s}}}
        path.write_text(json.dumps(doc))
        return str(path)

    def test_gate_passes_on_halved_resolve(self, capsys, tmp_path):
        old = self._bench_doc(tmp_path / "old.json", resolve_s=50.0)
        new = self._bench_doc(tmp_path / "new.json", resolve_s=20.0)
        assert main(["bench", "--diff", old, new,
                     "--resolve-gate", "andrew=0.5"]) == 0
        assert "50.000 -> 20.000" in capsys.readouterr().out

    def test_gate_fails_above_floor(self, capsys, tmp_path):
        old = self._bench_doc(tmp_path / "old.json", resolve_s=50.0)
        new = self._bench_doc(tmp_path / "new.json", resolve_s=30.0)
        assert main(["bench", "--diff", old, new,
                     "--resolve-gate", "andrew=0.5"]) == 1
        assert "resolve 50.000s -> 30.000s" in capsys.readouterr().err

    def test_gate_fails_loud_without_attribution(self, capsys, tmp_path):
        old = self._bench_doc(tmp_path / "old.json", resolve_s=None)
        new = self._bench_doc(tmp_path / "new.json", resolve_s=20.0)
        assert main(["bench", "--diff", old, new,
                     "--resolve-gate", "andrew=0.5"]) == 1
        assert "no resolve attribution" in capsys.readouterr().err

    def test_ungated_workloads_unaffected(self, tmp_path):
        old = self._bench_doc(tmp_path / "old.json", resolve_s=50.0)
        new = self._bench_doc(tmp_path / "new.json", resolve_s=50.0)
        assert main(["bench", "--diff", old, new]) == 0

    def test_bad_gate_spec_rejected(self, tmp_path):
        old = self._bench_doc(tmp_path / "old.json", resolve_s=1.0)
        with pytest.raises(SystemExit, match="WORKLOAD=RATIO"):
            main(["bench", "--diff", old, old,
                  "--resolve-gate", "andrew"])
        with pytest.raises(SystemExit, match="not a number"):
            main(["bench", "--diff", old, old,
                  "--resolve-gate", "andrew=fast"])

    def test_stats_mdcache_rejected_off_andrew(self, capsys):
        assert main(["stats", "--workload", "office",
                     "--mdcache"]) == 2
        assert "andrew" in capsys.readouterr().err


class TestBenchDiffGates:
    """Each gate CI's same-numbers and perf-regression steps rely on
    fails on a copy of the committed BENCH_10.json doctored in the one
    field it gates; the untouched copy passes them all."""

    BENCH_10 = (pathlib.Path(__file__).resolve().parents[1]
                / "benchmarks" / "results" / "BENCH_10.json")

    @staticmethod
    def _scale_wall(doc):
        doc["workloads"]["postmark"]["cost_model"]["total"] *= 1.05

    @staticmethod
    def _one_more_request(doc):
        doc["workloads"]["postmark"]["metrics"]["client.requests"] += 1

    @staticmethod
    def _drop_workload(doc):
        del doc["workloads"]["office"]

    @staticmethod
    def _halve_throughput(doc):
        doc["workloads"]["throughput"]["ops_per_sec"] /= 2

    @staticmethod
    def _unclean_fsck(doc):
        doc["workloads"]["throughput"]["fsck_clean"] = False
        doc["workloads"]["throughput"]["fsck_errors"] = 1

    def _diff(self, tmp_path, capsys, doctor, *flags) -> tuple[int, str]:
        old = json.loads(self.BENCH_10.read_text())
        new = copy.deepcopy(old)
        if doctor is not None:
            doctor(new)
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        old_path.write_text(json.dumps(old))
        new_path.write_text(json.dumps(new))
        code = main(["bench", "--diff", str(old_path), str(new_path),
                     *flags])
        return code, capsys.readouterr().err

    def test_the_committed_snapshot_passes(self, capsys, tmp_path):
        assert self._diff(tmp_path, capsys, None, "--overlap-gate",
                          "postmark=0.75") == (0, "")

    @pytest.mark.parametrize("doctor, flags, regression", [
        (_scale_wall, (),
         "postmark: wall 151.133s -> 158.690s (+5.0% > 2.0%)"),
        (_one_more_request, (),
         "postmark: requests 1164 -> 1165 (+0.1% > 0.0%)"),
        (_drop_workload, (), "office: workload removed from new run"),
        (_halve_throughput, (),
         "throughput: throughput 0.988 -> 0.494 ops/s"),
        (_unclean_fsck, (),
         "throughput: final fsck was not clean (1 errors)"),
        (None, ("--overlap-gate", "postmark=0.1"),
         "postmark: concurrent wall 110.486s exceeds x0.1 floor"),
    ], ids=["wall", "requests", "removed", "throughput", "fsck",
            "overlap"])
    def test_each_gate_fails_its_doctored_copy(self, capsys, tmp_path,
                                               doctor, flags, regression):
        code, err = self._diff(tmp_path, capsys, doctor, *flags)
        lines = err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(
            f"REGRESSION: {regression}"), err


class TestBenchTrajectory:
    """``repro bench --list`` over the committed benchmarks/results/."""

    RESULTS = (pathlib.Path(__file__).resolve().parents[1]
               / "benchmarks" / "results")

    def test_every_committed_entry_has_wall_and_requests(self):
        from repro.obs.bench import bench_trajectory
        rows = bench_trajectory(self.RESULTS)
        assert {row["pr"] for row in rows} == {9, 10}
        for row in rows:
            assert row["wall_s"] > 0, row
            assert row["requests"], row

    def test_throughput_entry_reads_its_own_fields(self, capsys):
        from repro.obs.bench import bench_trajectory
        (row,) = [r for r in bench_trajectory(self.RESULTS)
                  if (r["pr"], r["workload"]) == (10, "throughput")]
        assert row["wall_s"] == pytest.approx(2024.977, abs=1e-3)
        assert row["requests"] == 5082
        assert main(["bench", "--list",
                     "--out-dir", str(self.RESULTS)]) == 0
        out = capsys.readouterr().out
        assert "2024.977" in out and "5082" in out
