"""Andrew benchmark (paper Figures 11 and 12).

The classic five-phase software-development workload:

1. recursively create the directory skeleton;
2. copy a source tree into the filesystem;
3. stat every file (no data reads);
4. read every byte of every file;
5. compile and link (CPU-bound locally, with source reads and object
   writes through the filesystem).

Consistency model: close-to-open, phase-granular -- metadata and
directory tables are cached within a phase but revalidated at every phase
boundary (and once more for the compile's make-style timestamp scan).
That is what exposes PUB-OPT's private-key-per-stat cost in phases 2-4
exactly as the paper observes ("PUB-OPT overheads for Phase-2 and
Phase-4 are almost equal to the Phase-3 overheads").  Data caching stays
on throughout.

Default modes are the usual development umask (0o755 dirs / 0o644 files),
so SHAROES creates multiple CAP replicas per object -- the multi-CAP
create path that the Create-and-List microbenchmark deliberately avoids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..fs.client import ClientConfig
from .runner import BenchEnv, flush_client

#: Source tree shape: ~70 files across 20 directories, ~700 KB total.
SRC_DIRS = 20
SRC_FILES = 70
MIN_SRC_BYTES = 2_000
MAX_SRC_BYTES = 18_000

#: Local CPU seconds charged for the compile itself (phase 5).  The same
#: constant applies to every implementation -- compilation speed does not
#: depend on the filesystem -- so it shifts all bars equally, as in the
#: paper's Figure 11.
COMPILE_CPU_SECONDS = 140.0

#: Object files written by the compile phase.
OBJ_FILES = 35
OBJ_RATIO = 0.6  # object size relative to its source

PHASES = ("mkdir", "copy", "stat", "read", "compile")

#: Published cumulative results (Figure 12).
PAPER_FIG12 = {
    "no-enc-md-d": 239.0,
    "no-enc-md": 248.0,
    "sharoes": 266.0,
    "pub-opt": 384.0,
}

#: Published overhead percentages vs NO-ENC-MD-D (Figure 12).
PAPER_FIG12_OVERHEADS = {
    "no-enc-md": 0.037,
    "sharoes": 0.11,
    "pub-opt": 0.60,
}


@dataclass
class AndrewResult:
    impl: str
    phase_seconds: dict[str, float]

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())


def _source_tree(seed: int = 5) -> tuple[list[str], dict[str, bytes]]:
    """Deterministic synthetic source tree (dirs, {path: content})."""
    rng = random.Random(seed)
    dirs = ["/src"]
    for d in range(SRC_DIRS):
        dirs.append(f"/src/mod{d:02d}")
    files: dict[str, bytes] = {}
    for i in range(SRC_FILES):
        directory = dirs[1 + i % SRC_DIRS]
        size = rng.randint(MIN_SRC_BYTES, MAX_SRC_BYTES)
        files[f"{directory}/unit{i:03d}.c"] = rng.randbytes(size)
    return dirs, files


def _revalidate(fs) -> None:
    """Phase boundary: close-to-open revalidation.

    For the strict (default) client and the baselines this drops every
    cached metadata view and directory table; with the verified
    metadata cache (``ClientConfig(mdcache=True)``) entries stay warm
    and coherence is event-driven instead -- see docs/CACHING.md.
    """
    fs.revalidate()


def run_andrew(env: BenchEnv, seed: int = 5,
               mdcache: bool = False) -> AndrewResult:
    """Run all five phases; returns simulated seconds per phase.

    ``readahead`` is pinned off so Figures 11/12 reproduce the paper's
    2008 prototype bar-for-bar.  ``mdcache=True`` mounts the verified
    metadata cache instead (BENCH_7's configuration): phase boundaries
    keep entries warm, collapsing the path-resolve re-verification the
    strict model pays -- see docs/CACHING.md.
    """
    config = ClientConfig(data_cache=True, readahead=False,
                          mdcache=mdcache)
    fs = env.fresh_client(config=config)
    cost = env.cost
    dirs, files = _source_tree(seed)
    phase_seconds: dict[str, float] = {}

    # Phase 1: make the directory skeleton.
    start = cost.clock.now
    for d in dirs:
        fs.mkdir(d, mode=0o755)
    fs.mkdir("/obj", mode=0o755)
    flush_client(fs)
    phase_seconds["mkdir"] = cost.clock.now - start

    # Phase 2: copy the source tree in.
    _revalidate(fs)
    start = cost.clock.now
    for path, content in files.items():
        fs.mknod(path, mode=0o644)
        fs.write_file(path, content)
    flush_client(fs)
    phase_seconds["copy"] = cost.clock.now - start

    # Phase 3: stat everything (no data).
    _revalidate(fs)
    start = cost.clock.now
    for d in dirs:
        fs.getattr(d)
    for path in files:
        fs.getattr(path)
    phase_seconds["stat"] = cost.clock.now - start

    # Phase 4: read every byte.
    _revalidate(fs)
    start = cost.clock.now
    for path in files:
        fs.read_file(path)
    phase_seconds["read"] = cost.clock.now - start

    # Phase 5: compile and link.
    _revalidate(fs)
    start = cost.clock.now
    rng = random.Random(seed + 1)
    source_paths = list(files)
    for path in source_paths:
        fs.getattr(path)  # make's dependency/timestamp scan
        fs.read_file(path)  # sources re-read (data cache helps)
    for i in range(OBJ_FILES):
        src = source_paths[i % len(source_paths)]
        obj_size = int(len(files[src]) * OBJ_RATIO)
        obj_path = f"/obj/unit{i:03d}.o"
        fs.mknod(obj_path, mode=0o644)
        fs.write_file(obj_path, rng.randbytes(obj_size))
    _revalidate(fs)
    for path in source_paths:
        fs.getattr(path)  # make's final freshness check
    flush_client(fs)
    # Its own root span, so the run's spans count the compile CPU the
    # cost model charges.
    with fs.tracer.span("compile"):
        cost.charge_compute(COMPILE_CPU_SECONDS)
    phase_seconds["compile"] = cost.clock.now - start

    return AndrewResult(impl=env.impl, phase_seconds=phase_seconds)
