"""Operation traces: record once, replay against any implementation.

The evaluation's comparisons are only meaningful if every implementation
sees exactly the same operation stream.  A :class:`Trace` captures such a
stream (either programmatically or by recording a live client), can be
saved to and loaded from a portable text format, and replays against any
filesystem that speaks the common operation vocabulary -- the SHAROES
client or any of the four baselines.

Trace format: one op per line, tab-separated, sizes instead of contents
(payloads are regenerated deterministically from the line number, so
traces stay small but replays are byte-reproducible)::

    mkdir   /a      755
    create  /a/f    644     1024
    read    /a/f
    append  /a/f    128
    write   /a/f    2048
    getattr /a/f
    readdir /a
    chmod   /a/f    600
    unlink  /a/f
    rmdir   /a
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import SharoesError
from .runner import BenchEnv, flush_client

_ARITY = {
    "mkdir": 2, "create": 3, "read": 1, "append": 2, "write": 2,
    "getattr": 1, "readdir": 1, "chmod": 2, "unlink": 1, "rmdir": 1,
}


@dataclass(frozen=True)
class TraceOp:
    """One recorded operation."""

    op: str
    path: str
    arg: int | None = None    # mode for mkdir/create/chmod; size for I/O
    size: int | None = None   # create's initial size

    def to_line(self) -> str:
        fields = [self.op, self.path]
        if self.op in ("mkdir", "chmod"):
            fields.append(f"{self.arg:o}")
        elif self.op == "create":
            fields.append(f"{self.arg:o}")
            fields.append(str(self.size))
        elif self.op in ("append", "write"):
            fields.append(str(self.arg))
        return "\t".join(fields)

    @classmethod
    def from_line(cls, line: str) -> "TraceOp":
        fields = line.rstrip("\n").split("\t")
        if not fields or fields[0] not in _ARITY:
            raise SharoesError(f"bad trace line: {line!r}")
        op = fields[0]
        if len(fields) != _ARITY[op] + 1:
            raise SharoesError(f"bad arity for {op}: {line!r}")
        path = fields[1]
        if op in ("mkdir", "chmod"):
            return cls(op=op, path=path, arg=int(fields[2], 8))
        if op == "create":
            return cls(op=op, path=path, arg=int(fields[2], 8),
                       size=int(fields[3]))
        if op in ("append", "write"):
            return cls(op=op, path=path, arg=int(fields[2]))
        return cls(op=op, path=path)


@dataclass
class Trace:
    """A replayable operation stream."""

    ops: list[TraceOp] = field(default_factory=list)

    # -- construction ----------------------------------------------------------

    def mkdir(self, path: str, mode: int = 0o755) -> "Trace":
        self.ops.append(TraceOp("mkdir", path, arg=mode))
        return self

    def create(self, path: str, size: int, mode: int = 0o644) -> "Trace":
        self.ops.append(TraceOp("create", path, arg=mode, size=size))
        return self

    def read(self, path: str) -> "Trace":
        self.ops.append(TraceOp("read", path))
        return self

    def append(self, path: str, size: int) -> "Trace":
        self.ops.append(TraceOp("append", path, arg=size))
        return self

    def write(self, path: str, size: int) -> "Trace":
        self.ops.append(TraceOp("write", path, arg=size))
        return self

    def getattr(self, path: str) -> "Trace":
        self.ops.append(TraceOp("getattr", path))
        return self

    def readdir(self, path: str) -> "Trace":
        self.ops.append(TraceOp("readdir", path))
        return self

    def chmod(self, path: str, mode: int) -> "Trace":
        self.ops.append(TraceOp("chmod", path, arg=mode))
        return self

    def unlink(self, path: str) -> "Trace":
        self.ops.append(TraceOp("unlink", path))
        return self

    def rmdir(self, path: str) -> "Trace":
        self.ops.append(TraceOp("rmdir", path))
        return self

    # -- persistence --------------------------------------------------------------

    def dumps(self) -> str:
        return "".join(op.to_line() + "\n" for op in self.ops)

    @classmethod
    def loads(cls, text: str) -> "Trace":
        ops = [TraceOp.from_line(line) for line in text.splitlines()
               if line.strip() and not line.startswith("#")]
        return cls(ops=ops)

    # -- replay -----------------------------------------------------------------------

    def replay(self, fs, seed: int = 0) -> int:
        """Replay every op against ``fs``; returns ops executed.

        Payload bytes are derived from (seed, op index): identical for
        every implementation replayed with the same seed.
        """
        for index, op in enumerate(self.ops):
            payload_rng = random.Random((seed << 20) | index)
            if op.op == "mkdir":
                fs.mkdir(op.path, mode=op.arg)
            elif op.op == "create":
                fs.create_file(op.path,
                               payload_rng.randbytes(op.size),
                               mode=op.arg)
            elif op.op == "read":
                fs.read_file(op.path)
            elif op.op == "append":
                fs.append_file(op.path, payload_rng.randbytes(op.arg))
            elif op.op == "write":
                fs.write_file(op.path, payload_rng.randbytes(op.arg))
            elif op.op == "getattr":
                fs.getattr(op.path)
            elif op.op == "readdir":
                fs.readdir(op.path)
            elif op.op == "chmod":
                fs.chmod(op.path, op.arg)
            elif op.op == "unlink":
                fs.unlink(op.path)
            elif op.op == "rmdir":
                fs.rmdir(op.path)
        return len(self.ops)


def synthesize_office_trace(users_dirs: int = 4, files_per_dir: int = 6,
                            churn: int = 60, seed: int = 21) -> Trace:
    """A small office-style day: project dirs, edits, reviews, cleanup."""
    rng = random.Random(seed)
    trace = Trace()
    paths = []
    for d in range(users_dirs):
        trace.mkdir(f"/proj{d}", mode=0o750)
        for f in range(files_per_dir):
            path = f"/proj{d}/doc{f}.txt"
            trace.create(path, rng.randint(200, 4000), mode=0o640)
            paths.append(path)
    for _ in range(churn):
        action = rng.random()
        path = rng.choice(paths)
        if action < 0.5:
            trace.read(path)
        elif action < 0.75:
            trace.append(path, rng.randint(50, 500))
        elif action < 0.9:
            trace.getattr(path)
        else:
            trace.readdir(path.rsplit("/", 1)[0])
    return trace


def replay_timed(env: BenchEnv, trace: Trace, seed: int = 0,
                 config=None) -> float:
    """Replay on a fresh client; returns simulated seconds."""
    fs = env.fresh_client(config=config)
    start = env.cost.clock.now
    trace.replay(fs, seed=seed)
    flush_client(fs)
    return env.cost.clock.now - start
