"""Create-and-List microbenchmark (paper Figure 9).

Measures the core metadata encryption/decryption costs: the create phase
makes 500 empty files across 25 directories, the list phase performs a
recursive ``ls -lR`` (stat of every file and directory).

Files are created owner-only (a single CAP replica), matching the paper's
single-user microbenchmark; the Andrew benchmark exercises the multi-CAP
create path instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.costmodel import CostModel
from .runner import BenchEnv, flush_client

#: Published results (seconds), transcribed from Figure 9.
PAPER_FIG9 = {
    "no-enc-md-d": {"create": 121.0, "list": 60.0},
    "no-enc-md": {"create": 127.0, "list": 60.0},
    "sharoes": {"create": 131.0, "list": 63.0},
    "public": {"create": 245.0, "list": 2253.0},
    "pub-opt": {"create": 159.0, "list": 196.0},
}


@dataclass
class CreateListResult:
    impl: str
    create_seconds: float
    list_seconds: float
    files: int
    dirs: int


def run_create_and_list(env: BenchEnv, files: int = 500,
                        dirs: int = 25) -> CreateListResult:
    """Run both phases; returns simulated seconds per phase.

    Like every workload, it measures a client it mounts itself, with the
    environment's configuration (Figure 9's ``readahead=False`` pin
    included), so the run's spans and its cost model both count the
    mount.
    """
    fs, cost = env.fresh_client(config=env.fs.config), env.cost
    per_dir = files // dirs

    start = cost.clock.now
    for d in range(dirs):
        fs.mkdir(f"/dir{d:03d}", mode=0o700)
        for f in range(per_dir):
            fs.mknod(f"/dir{d:03d}/file{f:03d}", mode=0o600)
    flush_client(fs)
    create_seconds = cost.clock.now - start

    # The list phase models a fresh `ls -lR` pass: everything created
    # above must be fetched and decrypted again, so the client cache is
    # dropped (as if freshly mounted).
    fs.cache.clear()
    start = cost.clock.now
    _recursive_list(fs, cost)
    list_seconds = cost.clock.now - start

    return CreateListResult(impl=env.impl, create_seconds=create_seconds,
                            list_seconds=list_seconds,
                            files=dirs * per_dir, dirs=dirs)


def _recursive_list(fs, cost: CostModel) -> int:
    """``ls -lR /``: readdir + stat every entry, recursively.

    Metadata caching means each object is decrypted once, exactly like
    the real benchmark's single pass.
    """
    stats = 0
    pending = ["/"]
    while pending:
        path = pending.pop()
        for name in fs.readdir(path):
            child = path.rstrip("/") + "/" + name
            st = fs.getattr(child)
            stats += 1
            if st.ftype == "dir":
                pending.append(child)
    return stats
