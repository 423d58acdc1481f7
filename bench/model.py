"""The harness's plaintext model: what every read must return.

File contents are never stored.  Each file is a *recipe* -- the seeds of
the random payloads written to it, in order -- so expected bytes can be
regenerated on demand while the model itself stays a few hundred bytes
per file and does not drown the program's memory in ``peak_rss_mb``.
Every mutation refreshes the file's ``(length, sha256)``; reads are
checked against that pair.  Modes are the workloads' business: they know
which constant each path was created with.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

LEAK_SNIPPET_BYTES = 32


def rand_bytes(seed: int, length: int) -> bytes:
    """The payload a recipe entry stands for."""
    return random.Random(seed).randbytes(length)


@dataclass
class FileState:
    #: (offset, seed, length) of every write since the last truncate, in
    #: order; offset None appends.
    recipe: list[tuple[int | None, int, int]] = field(default_factory=list)
    length: int = 0
    sha: bytes = b""

    def materialize(self) -> bytes:
        buf = bytearray()
        for offset, seed, n in self.recipe:
            if offset is None:
                buf += rand_bytes(seed, n)
            else:
                buf[offset:offset + n] = rand_bytes(seed, n)
        return bytes(buf)

    def _seal(self, data: bytes) -> None:
        self.length = len(data)
        self.sha = hashlib.sha256(data).digest()

    def matches(self, content: bytes) -> bool:
        return (len(content) == self.length
                and hashlib.sha256(content).digest() == self.sha)


class Model:
    """path -> expected state, plus directory listings."""

    def __init__(self) -> None:
        self.files: dict[str, FileState] = {}
        self.dirs: dict[str, set[str]] = {"/": set()}

    @staticmethod
    def _split(path: str) -> tuple[str, str]:
        parent, _, name = path.rpartition("/")
        return parent or "/", name

    def mkdir(self, path: str) -> None:
        parent, name = self._split(path)
        self.dirs[parent].add(name)
        self.dirs[path] = set()

    def create(self, path: str, seed: int, length: int) -> bytes:
        """Register a new file; returns the payload to write."""
        payload = rand_bytes(seed, length)
        state = FileState(recipe=[(None, seed, length)])
        state._seal(payload)
        parent, name = self._split(path)
        self.dirs[parent].add(name)
        self.files[path] = state
        return payload

    def write(self, path: str, seed: int, length: int) -> bytes:
        payload = rand_bytes(seed, length)
        state = self.files[path]
        state.recipe = [(None, seed, length)]
        state._seal(payload)
        return payload

    def append(self, path: str, seed: int, length: int) -> bytes:
        payload = rand_bytes(seed, length)
        state = self.files[path]
        state.recipe.append((None, seed, length))
        state._seal(state.materialize())
        return payload

    def patch(self, path: str, offset: int, seed: int,
              length: int) -> bytes:
        payload = rand_bytes(seed, length)
        state = self.files[path]
        state.recipe.append((offset, seed, length))
        state._seal(state.materialize())
        return payload

    def unlink(self, path: str) -> None:
        parent, name = self._split(path)
        self.dirs[parent].discard(name)
        del self.files[path]

    def rename(self, old: str, new: str) -> None:
        self.files[new] = self.files.pop(old)
        parent, name = self._split(old)
        self.dirs[parent].discard(name)
        parent, name = self._split(new)
        self.dirs[parent].add(name)

    def live_bytes(self) -> int:
        return sum(state.length for state in self.files.values())

    def sample(self, rng: random.Random, share: float) -> list[str]:
        """A seeded ``share`` of the live paths (at least one)."""
        paths = sorted(self.files)
        count = max(1, round(len(paths) * share))
        return rng.sample(paths, min(count, len(paths)))


def leaked_paths(model: Model, blobs: dict, rng: random.Random,
                 samples: int = 32) -> list[str]:
    """Paths whose plaintext shows up verbatim in an SSP blob.

    Takes one LEAK_SNIPPET_BYTES window out of up to ``samples`` live
    files (payloads are random bytes, so a chance match is impossible)
    and searches everything the SSP stores for it.
    """
    candidates = sorted(p for p, s in model.files.items()
                        if s.length >= LEAK_SNIPPET_BYTES)
    chosen = rng.sample(candidates, min(samples, len(candidates)))
    values = list(blobs.values())
    leaked = []
    for path in chosen:
        data = model.files[path].materialize()
        offset = rng.randrange(len(data) - LEAK_SNIPPET_BYTES + 1)
        snippet = data[offset:offset + LEAK_SNIPPET_BYTES]
        if any(snippet in value for value in values):
            leaked.append(path)
    return leaked
