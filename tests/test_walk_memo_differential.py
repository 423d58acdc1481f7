"""The walk memo is invisible: a memoised client resolves exactly like
the same client with its memo emptied before every resolve.

Each seeded op sequence runs twice under pinned entropy -- once as is,
once with ``Resolver._memo`` cleared at the top of every ``resolve`` --
over two principals (alice owns the tree, bob reads and writes a shared
directory) and four mounts: alice and bob leased and journaled, bob in
the strict close-to-open mode (``mdcache=False``) and bob with a cache
small enough to evict.  The sequence mixes reads of present, missing,
forbidden, exec-only and symlinked paths with owner chmod / rename /
rekey / unlink / create, a root chmod and rekey, ``revalidate``,
unmount + remount, and bob's leased writes after alice's (each one
advances the shared directory's lease epoch under the other mount).
At every resolve the two runs must agree on the answer (or the
exception's type and message), the store's LRU order and stats, the
cache front's counters and the per-depth walk attribution.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.crypto.provider import CryptoProvider
from repro.fs.client import ClientConfig, SharoesFilesystem
from repro.fs.resolve import Resolver
from repro.fs.volume import SharoesVolume
from repro.principals.groups import GroupKeyService
from repro.principals.registry import PrincipalRegistry
from repro.principals.users import User
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.profiles import PAPER_2008
from repro.storage.server import StorageServer
from repro.tools.twin import pinned_entropy

_LEASE_S = 5.0
_LEASED = dict(journal=True, lease=True, lease_duration_s=_LEASE_S)
MOUNTS = {
    "alice": ("alice", ClientConfig(**_LEASED)),
    "bob": ("bob", ClientConfig(**_LEASED)),
    "bob-strict": ("bob", ClientConfig(mdcache=False)),
    "bob-small": ("bob", ClientConfig(cache_bytes=6000)),
}
READERS = tuple(MOUNTS)
PATHS = ("/", "/pub", "/pub/f0", "/pub/f1", "/pub/f2", "/pub/d",
         "/pub/d/g", "/pub/d/f1", "/pub/link", "/pub/nope", "/priv",
         "/priv/s", "/x", "/x/h", "/x/nope", "/shared", "/shared/a",
         "/shared/b")
#: re-read often, so that walks repeat within a cache generation.
HOT = ("/pub/f0", "/pub/d/g", "/pub/nope", "/priv/s", "/shared/a")


def _ops(seed: int, count: int = 200) -> list[tuple]:
    rng = random.Random(seed)
    owner_ops = [
        ("chmod", "/pub/f0", 0o600), ("chmod", "/pub/f0", 0o644),
        ("chmod", "/pub/d", 0o711), ("chmod", "/pub/d", 0o755),
        ("chmod", "/pub/d", 0o700), ("rename", "/pub/f1", "/pub/d/f1"),
        ("rename", "/pub/d/f1", "/pub/f1"), ("rekey", "/pub/d"),
        ("rekey", "/pub/f0"), ("unlink", "/pub/f2"),
        ("create", "/pub/f2"), ("chmod", "/", 0o751),
        ("chmod", "/", 0o755), ("rekey", "/"), ("write", "/shared/a"),
    ]
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.75:
            ops.append(("read", rng.choice(READERS),
                        rng.choice(("getattr", "lstat", "readdir",
                                    "read_file")),
                        rng.choice(HOT if rng.random() < 0.7 else PATHS)))
        elif roll < 0.87:
            ops.append(("owner",) + rng.choice(owner_ops))
        elif roll < 0.92:
            ops.append(("bob-write", rng.choice(("/shared/a",
                                                 "/shared/b"))))
        elif roll < 0.96:
            ops.append(("revalidate", rng.choice(READERS)))
        else:
            ops.append(("remount", rng.choice(READERS)))
    return ops


def _world(keypairs, signing_pairs):
    registry = PrincipalRegistry()
    for name in ("alice", "bob", "carol", "dave"):
        registry.add_user(User(user_id=name, keypair=keypairs[name],
                               signing=signing_pairs[name]))
    registry.create_group("eng", {"alice", "bob"}, key_bits=512)
    clock = SimClock()
    server = StorageServer()
    volume = SharoesVolume(server, registry, clock=clock)
    volume.format(root_owner="alice", root_group="eng")
    GroupKeyService(registry, server, CryptoProvider()).publish_all()
    mounts = {}
    for label, (user, config) in MOUNTS.items():
        fs = SharoesFilesystem(volume, registry.user(user),
                               cost_model=CostModel(PAPER_2008, clock),
                               config=dataclasses.replace(config))
        fs.resolver.label = label
        fs.mount()
        mounts[label] = fs
    alice = mounts["alice"]
    alice.mkdir("/pub", mode=0o755)
    for name in ("f0", "f1", "f2"):
        alice.create_file(f"/pub/{name}", name.encode() * 40, mode=0o644)
    alice.mkdir("/pub/d", mode=0o755)
    alice.create_file("/pub/d/g", b"deep", mode=0o644)
    alice.symlink("/pub/d/g", "/pub/link")
    alice.mkdir("/priv", mode=0o700)
    alice.create_file("/priv/s", b"secret", mode=0o600)
    alice.mkdir("/x", mode=0o711)
    alice.create_file("/x/h", b"hidden", mode=0o644)
    alice.mkdir("/shared", mode=0o775)
    for name in ("a", "b"):
        alice.create_file(f"/shared/{name}", b"shared", mode=0o664)
    return clock, mounts


def _run(op, clock, mounts) -> object:
    kind = op[0]
    if kind == "read":
        _, label, verb, path = op
        return getattr(mounts[label], verb)(path)
    if kind == "revalidate":
        return mounts[op[1]].revalidate()
    if kind == "remount":
        mounts[op[1]].unmount()
        return mounts[op[1]].mount()
    clock.advance(_LEASE_S + 1.0)  # every lease of the last writer lapsed
    if kind == "bob-write":
        return mounts["bob"].write_file(op[1], b"bob")
    alice = mounts["alice"]
    verb, *args = op[1:]
    if verb == "create":
        return alice.create_file(args[0], b"again", mode=0o644)
    if verb == "write":
        return alice.write_file(args[0], b"alice")
    return getattr(alice, verb)(*args)


def _observed(seed, keypairs, signing_pairs, monkeypatch,
              empty_first: bool) -> tuple[list, int]:
    log: list = []
    hits = [0]
    resolve, replay = Resolver.resolve, Resolver._replay

    def observed(self, path, follow_last=True, _depth=0):
        if empty_first:
            self._memo.clear()
        answer = None
        try:
            node = resolve(self, path, follow_last, _depth)
            answer = (node.inode, node.selector, node.mek,
                      node.mvk.to_bytes(), node.attrs.version, node.cap_id)
            return node
        except Exception as exc:
            answer = (type(exc).__name__, str(exc))
            raise
        finally:
            fs = self.fs
            log.append((self.label, path, follow_last, answer,
                        list(fs.cache._entries),
                        dataclasses.astuple(fs.cache.stats),
                        fs.mdcache.snapshot(), self.walk_depth_stats()))

    def counted(self, memo, span):
        hits[0] += 1
        return replay(self, memo, span)

    with monkeypatch.context() as patch, pinned_entropy(seed):
        patch.setattr(Resolver, "resolve", observed)
        patch.setattr(Resolver, "_replay", counted)
        clock, mounts = _world(keypairs, signing_pairs)
        for op in _ops(seed):
            try:
                outcome = _run(op, clock, mounts)
            except Exception as exc:
                outcome = (type(exc).__name__, str(exc))
            log.append(("op", op, repr(outcome)))
    return log, hits[0]


@pytest.mark.parametrize("seed", [41, 2008, 7341])
def test_every_resolve_matches_the_memo_less_client(
        seed, session_keypairs, session_signing_pairs, monkeypatch):
    memo, hits = _observed(seed, session_keypairs, session_signing_pairs,
                           monkeypatch, empty_first=False)
    bare, bare_hits = _observed(seed, session_keypairs,
                                session_signing_pairs, monkeypatch,
                                empty_first=True)
    assert bare_hits == 0 and hits > 10
    assert len(memo) == len(bare)
    for step, (ours, theirs) in enumerate(zip(memo, bare)):
        assert ours == theirs, (step, ours[:4])
