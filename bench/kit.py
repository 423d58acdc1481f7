"""What the four workloads are built from.

An :class:`Op` is one generated call into the program plus the check of
its result; a :class:`Workload` builds a :class:`Stack` (volume, SSP,
principals) from a seed and then deals ops from the same seeded stream,
keeping the plaintext :class:`~bench.model.Model` in step.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable

from repro.crypto.provider import CryptoProvider
from repro.errors import SharoesError
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.volume import DEFAULT_BLOCK_SIZE, SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.principals.registry import PrincipalRegistry
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.profiles import PAPER_2008
from repro.storage.server import StorageServer

from .model import FileState, Model, leaked_paths
from .wirecount import WireCounter

#: seeded share of the live files a second principal re-reads afterwards.
VERIFY_SAMPLE_SHARE = 0.05
#: enrolment (RSA) key size of benchmark principals: functional, and
#: cheap enough that set-up measures the filesystem, not key generation.
ENROLMENT_KEY_BITS = 512


class Op:
    """One generated operation: what to call and how to judge the result.

    ``run`` performs the call into the program; ``check`` receives the
    returned value and the ``SharoesError`` raised (one of them None) and
    says whether that is what the model expects.
    """

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind: str, run: Callable[[], object],
                 check: Callable[[object, Exception | None], bool]):
        self.kind = kind
        self.run = run
        self.check = check


def expect_ok(result: object, exc: Exception | None) -> bool:
    return exc is None


def expect_content(state: FileState) -> Callable:
    """Check for a read issued *now*: a block's ops are generated before
    any of them runs, so the expectation is frozen at generation time."""
    length, sha = state.length, state.sha

    def check(result: object, exc: Exception | None) -> bool:
        return (exc is None and len(result) == length
                and hashlib.sha256(result).digest() == sha)

    return check


class Deck:
    """Values dealt without replacement from a reshuffled deck.

    Op kinds (each in its exact share) and payload sizes (an even ladder)
    are dealt, not drawn independently, so every stretch of a run has the
    same mix whatever the seed: independent draws let the mix of a
    200-op ``bulk_rw`` run wander enough to move ``wire_up_bytes_per_op``
    by 18 % between seeds.
    """

    def __init__(self, rng: random.Random, cards):
        self._rng = rng
        if isinstance(cards, dict):
            cards = [card for card, count in cards.items()
                     for _ in range(count)]
        self._cards = list(cards)
        self._hand: list = []

    def draw(self):
        if not self._hand:
            self._hand = self._cards[:]
            self._rng.shuffle(self._hand)
        return self._hand.pop()


def ladder(low: int, high: int, steps: int) -> list[int]:
    """``steps`` evenly spaced sizes from ``low`` to ``high``."""
    return [low + (high - low) * i // (steps - 1) for i in range(steps)]


class Stack:
    """One formatted volume on an in-process SSP, plus its principals."""

    def __init__(self, users: tuple[str, ...], group: tuple[str, ...],
                 block_size: int = DEFAULT_BLOCK_SIZE):
        self.registry = PrincipalRegistry()
        for user_id in users:
            self.registry.create_user(user_id, key_bits=ENROLMENT_KEY_BITS)
        self.registry.create_group("eng", set(group),
                                   key_bits=ENROLMENT_KEY_BITS)
        self.clock = SimClock()
        self.backend = StorageServer()
        self.volume = SharoesVolume(self.backend, self.registry,
                                    clock=self.clock, block_size=block_size)
        self.volume.format(root_owner=users[0], root_group="eng")
        GroupKeyService(self.registry, self.backend,
                        CryptoProvider()).publish_all()

    def mount(self, user_id: str, config: ClientConfig | None = None,
              server=None) -> tuple[SharoesFilesystem, WireCounter]:
        """Mount ``user_id`` through a WireCounter in front of ``server``
        (default: the in-process backend), on the shared clock."""
        counter = WireCounter(server if server is not None else self.backend)
        fs = SharoesFilesystem(self.volume, self.registry.user(user_id),
                               cost_model=CostModel(PAPER_2008, self.clock),
                               config=config, server=counter)
        fs.mount()
        return fs, counter


class Workload:
    """What a workload provides to the driver.

    ``build`` does the whole set-up from the seed (calling ``tick``
    between small units so set-up time can be calibrated) and leaves the
    attributes below populated; ``next_op`` continues the same seeded
    stream, keeping ``model`` in step with what the ops will do.
    """

    name = ""
    #: ops per calibrated block, sized to 50-100 ms.
    block_ops = 1
    #: ops run before measuring so caches reach steady state.
    warmup_ops = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.model = Model()
        #: every mounted SharoesFilesystem issuing measured ops.
        self.clients: list = []
        #: the WireCounter each client talks through.
        self.counters: list = []
        #: the one simulated timeline all clients' cost models share.
        self.clock = None
        #: the in-process StorageServer holding the SSP's bytes.
        self.backend = None

    def build(self, tick: Callable[[], None]) -> None:
        raise NotImplementedError

    def next_op(self) -> Op:
        raise NotImplementedError

    def verify_after(self) -> tuple[int, list[str]]:
        """Post-run checks by a different principal.

        Returns (checks made, descriptions of the ones that failed).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release sockets and threads (set-up is repeated)."""

    def flush(self) -> None:
        for fs in self.clients:
            fs.flush_staged()

    # -- shared pieces of verify_after -------------------------------------

    def reread_sample(self, fs, share: float = VERIFY_SAMPLE_SHARE
                      ) -> tuple[int, list[str]]:
        """``fs`` (a fresh mount of another principal) re-reads a seeded
        sample of the live files; every byte must match the model."""
        failures = []
        paths = self.model.sample(random.Random(self.seed ^ 0x5EED), share)
        for path in paths:
            try:
                ok = self.model.files[path].matches(fs.read_file(path))
            except SharoesError as exc:
                failures.append(f"re-read {path}: {type(exc).__name__}")
                continue
            if not ok:
                failures.append(f"re-read {path}: content mismatch")
        return len(paths), failures

    def leak_check(self) -> tuple[int, list[str]]:
        leaked = leaked_paths(self.model, self.backend.raw_blobs(),
                              random.Random(self.seed ^ 0x1EAC))
        return 1, [f"plaintext of {path} visible at the SSP"
                   for path in leaked]
