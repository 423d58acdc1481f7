"""The rig the seeded sweeps and the differential suites share.

* :class:`Rig` -- a small enterprise volume that every cell of a sweep
  restores to pristine, and the clients, probe and audit a cell judges
  it with;
* :class:`Sweep` -- count a case's T once, then run one cell per mode
  and per point k = 1..T, and render the cells as one table;
* twin runs -- two stacks that replay one op sequence under one entropy
  seed draw identical keys, IVs and signature nonces in identical
  order, so their SSP state is byte-comparable; what an application can
  see of each is compared as a tree, and an op's effect is judged by
  oracles that treat a missing path as "predicate false".
"""

from __future__ import annotations

import random
import secrets
from contextlib import contextmanager
from typing import Any, Callable

from ..crypto import rsa
from ..crypto.provider import CryptoProvider
from ..errors import FilesystemError
from ..fs.client import ClientConfig, SharoesFilesystem
from ..fs.permissions import DIRECTORY
from ..fs.volume import SharoesVolume
from ..principals.groups import GroupKeyService
from ..principals.registry import PrincipalRegistry
from ..principals.users import User
from ..sim.clock import SimClock
from ..storage.server import StorageServer
from .fsck import VolumeAuditor

#: block size of every sweep volume: small, so one op spans several puts.
BLOCK = 256


def principals(users) -> PrincipalRegistry:
    """The sweeps' enterprise: ``users`` (512-bit keys), all in ``eng``."""
    registry = PrincipalRegistry()
    for name in users:
        registry.add_user(User(user_id=name,
                               keypair=rsa.generate_keypair(512)))
    registry.create_group("eng", set(users), key_bits=512)
    return registry


class Rig:
    """One sweep volume, restorable to its pristine state.

    The volume lies over ``server`` and ``clock`` (a plain StorageServer
    and a fresh SimClock by default) with :data:`BLOCK`-byte blocks and
    ``alice``'s directory ``/d`` (mode 0775, so all of ``eng`` writes
    it), which ``populate`` may fill.  ``config`` holds the ClientConfig
    fields of every client the sweep mounts, the one that builds ``/d``
    included.
    """

    def __init__(self, registry: PrincipalRegistry, server=None,
                 clock: SimClock | None = None,
                 populate: Callable[[SharoesFilesystem], None] | None = None,
                 **config):
        self.registry = registry
        self.server = server if server is not None else StorageServer()
        self.clock = clock if clock is not None else SimClock()
        self.config = config
        self.volume = SharoesVolume(self.server, registry,
                                    block_size=BLOCK, clock=self.clock)
        self.volume.format(root_owner="alice", root_group="eng")
        GroupKeyService(registry, self.server,
                        CryptoProvider()).publish_all()
        fs = self.client("alice")
        fs.mkdir("/d", mode=0o775)
        if populate is not None:
            populate(fs)
        fs.unmount()
        self.pristine = self.snapshot()

    def snapshot(self) -> tuple:
        """Blobs, inode allocator and clock: what a cell starts from."""
        return (self.server.snapshot_blobs(), self.volume.allocator._next,
                self.clock.now)

    def restore(self, snapshot: tuple | None = None) -> None:
        """Back to ``snapshot`` (default: the pristine volume)."""
        blobs, next_inode, now = snapshot or self.pristine
        self.server.restore_blobs(blobs)
        self.volume.allocator._next = next_inode
        self.clock.reset(now)

    def client(self, user: str, server=None, consistency: bool = False,
               **config) -> SharoesFilesystem:
        """A mounted client of ``user`` over ``server`` (default: the
        volume's), configured as the sweep's clients are unless
        ``config`` overrides a field; ``consistency`` attaches the
        fork-consistency log before the mount."""
        fs = SharoesFilesystem(
            self.volume, self.registry.user(user),
            config=ClientConfig(**{**self.config, **config}),
            server=server)
        if consistency:
            fs.enable_consistency_log()
        fs.mount()
        return fs

    def probe(self) -> SharoesFilesystem:
        """A fresh plain client for oracle checks (no lease, no journal,
        no cache)."""
        fs = SharoesFilesystem(self.volume, self.registry.user("alice"),
                               config=ClientConfig(cache_bytes=0))
        fs.mount()
        return fs

    def audit(self) -> tuple[bool, int]:
        """fsck: (clean, orphaned blob count)."""
        report = VolumeAuditor(self.volume).audit()
        return report.clean, len(report.orphaned_blobs)


#: one table column: heading, format spec, value of a row.
Column = tuple[str, str, Callable[[Any], Any]]


def render(columns: tuple[Column, ...], rows: list, rule: int,
           noun: str = "cells", head: tuple[str, ...] = (),
           tail: tuple[str, ...] = ()) -> str:
    """A sweep's table: headings, one line per row, the tally.

    Every heading and value is formatted with its column's spec and the
    columns are joined by one space.  ``head`` lines precede the
    headings, ``tail`` lines follow the closing rule; the last line
    counts the rows and those whose ``consistent`` is false.
    """
    def line(values) -> str:
        return " ".join(f"{value:{spec}}"
                        for value, (_, spec, _) in zip(values, columns))

    bad = sum(1 for row in rows if not row.consistent)
    return "\n".join([
        *head, line(heading for heading, _, _ in columns), "-" * rule,
        *(line(value(row) for _, _, value in columns) for row in rows),
        "-" * rule, *tail, f"{len(rows)} {noun}, {bad} inconsistent"])


class Sweep:
    """A seeded matrix: every case, under every mode, at every point.

    A kind lists its ``cases`` (each with a ``name``) and ``MODES``,
    counts the points T of a case (``count(case)``) and judges one cell
    (``cell(case, mode, k, T)``, an outcome with ``consistent``); a mode
    in ``ONCE`` runs a single cell at k = 0 instead of k = 1..T.
    ``COLUMNS``, ``RULE`` and ``NOUN`` lay out its table.
    """

    MODES: tuple[str, ...] = ()
    ONCE: tuple[str, ...] = ()
    COLUMNS: tuple[Column, ...] = ()
    RULE = 100
    NOUN = "cells"

    def run(self, modes: tuple[str, ...] = (), cases: list | None = None
            ) -> list:
        """Count each case once, then sweep it; cells in case, mode and
        point order (all cases and all modes by default)."""
        outcomes = []
        for case in cases or self.cases:
            total = self.count(case)
            for mode in modes or self.MODES:
                points = (0,) if mode in self.ONCE else range(1, total + 1)
                outcomes.extend(self.cell(case, mode, k, total)
                                for k in points)
        return outcomes

    @classmethod
    def table(cls, outcomes: list) -> str:
        return render(cls.COLUMNS, outcomes, cls.RULE, cls.NOUN)

    def ok(self, outcomes: list) -> bool:
        return all(o.consistent for o in outcomes)


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
