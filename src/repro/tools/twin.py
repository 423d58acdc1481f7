"""Twin-run rig shared by the matrices and the differential suites.

Two stacks that replay one op sequence under one entropy seed draw
identical keys, IVs and signature nonces in identical order, so their
SSP state is byte-comparable; what an application can see of each is
compared as a tree, and an op's effect is judged by oracles that treat
a missing path as "predicate false".
"""

from __future__ import annotations

import random
import secrets
from contextlib import contextmanager
from typing import Callable

from ..errors import FilesystemError
from ..fs.client import SharoesFilesystem
from ..fs.permissions import DIRECTORY


class _SeededEntropy:
    """Drop-in for the ``secrets`` functions the crypto stack uses."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def token_bytes(self, n: int) -> bytes:
        return self._rng.randbytes(n)

    def randbelow(self, n: int) -> int:
        return self._rng.randrange(n)

    def randbits(self, k: int) -> int:
        return self._rng.getrandbits(k)


@contextmanager
def pinned_entropy(seed: int):
    """Route ``secrets`` through a seeded stream (twin-run determinism).

    Both stacks replay the same op sequence under the same seed, so
    they draw identical keys/IVs in identical order and produce
    byte-identical ciphertext -- the property every differential
    judgement rests on.
    """
    det = _SeededEntropy(seed)
    saved = (secrets.token_bytes, secrets.randbelow, secrets.randbits)
    secrets.token_bytes = det.token_bytes
    secrets.randbelow = det.randbelow
    secrets.randbits = det.randbits
    try:
        yield
    finally:
        secrets.token_bytes, secrets.randbelow, secrets.randbits = saved


def visible_tree(fs: SharoesFilesystem, path: str = "/") -> dict:
    """Everything an application can see below ``path``."""
    out = {}
    for name in sorted(fs.readdir(path)):
        child = path.rstrip("/") + "/" + name
        stat = fs.getattr(child)
        entry = {"stat": stat}
        if stat.ftype == DIRECTORY:
            entry["children"] = visible_tree(fs, child)
        else:
            try:
                entry["content"] = fs.read_file(child)
            except FilesystemError as exc:  # symlinks etc.: the shape
                entry["content"] = type(exc).__name__
        out[name] = entry
    return out


def path_exists(fs: SharoesFilesystem, path: str) -> bool:
    """Does ``path`` name anything (a dangling symlink included)?"""
    try:
        fs.lstat(path)
        return True
    except FilesystemError:
        return False


def holds(pred: Callable[[SharoesFilesystem], bool],
          fs: SharoesFilesystem) -> bool:
    """Evaluate an oracle; a missing path means 'predicate false'.

    Integrity errors are deliberately NOT caught -- a signature failure
    after recovery is a real bug, never a benign 'other state'.
    """
    try:
        return bool(pred(fs))
    except FilesystemError:
        return False
