"""Trace record/replay workloads."""

import pytest

from repro.errors import SharoesError
from repro.workloads import make_env
from repro.workloads.trace import (Trace, TraceOp, replay_timed,
                                   synthesize_office_trace)


class TestTraceFormat:
    def test_roundtrip_text(self):
        trace = (Trace()
                 .mkdir("/a", 0o750)
                 .create("/a/f", 1024, 0o640)
                 .read("/a/f")
                 .append("/a/f", 128)
                 .write("/a/f", 2048)
                 .getattr("/a/f")
                 .readdir("/a")
                 .chmod("/a/f", 0o600)
                 .unlink("/a/f")
                 .rmdir("/a"))
        restored = Trace.loads(trace.dumps())
        assert restored.ops == trace.ops

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nmkdir\t/a\t755\n"
        trace = Trace.loads(text)
        assert len(trace.ops) == 1
        assert trace.ops[0] == TraceOp("mkdir", "/a", arg=0o755)

    def test_bad_line_rejected(self):
        with pytest.raises(SharoesError):
            Trace.loads("teleport\t/a\n")
        with pytest.raises(SharoesError):
            Trace.loads("mkdir\t/a\t755\textra\n")

    def test_synthesized_trace_shape(self):
        trace = synthesize_office_trace(users_dirs=2, files_per_dir=3,
                                        churn=10)
        kinds = {op.op for op in trace.ops}
        assert "mkdir" in kinds and "create" in kinds
        assert len(trace.ops) == 2 + 6 + 10

    def test_synthesis_deterministic(self):
        a = synthesize_office_trace(seed=5)
        b = synthesize_office_trace(seed=5)
        assert a.ops == b.ops


class TestReplay:
    def test_replay_on_sharoes(self):
        env = make_env("sharoes")
        trace = (Trace().mkdir("/p", 0o750)
                 .create("/p/f", 500, 0o640)
                 .append("/p/f", 100).read("/p/f"))
        assert trace.replay(env.fs) == 4
        assert len(env.fs.read_file("/p/f")) == 600

    def test_replay_deterministic_payloads(self):
        env_a = make_env("sharoes")
        env_b = make_env("no-enc-md-d")
        trace = Trace().create("/f", 256, 0o600)
        trace.replay(env_a.fs, seed=7)
        trace.replay(env_b.fs, seed=7)
        assert env_a.fs.read_file("/f") == env_b.fs.read_file("/f")

    def test_replay_timed_comparison(self):
        """The point of traces: identical streams across implementations,
        with the expected cost ordering at a realistic cache size.  (With
        an unbounded cache PUB-OPT becomes competitive, exactly as the
        paper's Figure 10 notes -- so the cache is bounded here.)"""
        from repro.fs.client import ClientConfig
        trace = synthesize_office_trace(users_dirs=2, files_per_dir=3,
                                        churn=20)
        config = ClientConfig(cache_bytes=2048)
        times = {}
        for impl in ("no-enc-md-d", "sharoes", "pub-opt"):
            env = make_env(impl)
            times[impl] = replay_timed(env, trace, config=config)
        assert (times["no-enc-md-d"] < times["sharoes"]
                < times["pub-opt"])

    def test_full_vocabulary_on_baseline(self):
        env = make_env("no-enc-md")
        trace = (Trace().mkdir("/a", 0o755).create("/a/f", 64, 0o644)
                 .getattr("/a/f").readdir("/a").write("/a/f", 32)
                 .chmod("/a/f", 0o600).unlink("/a/f").rmdir("/a"))
        assert trace.replay(env.fs) == 8
