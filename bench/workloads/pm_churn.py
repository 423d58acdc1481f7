"""pm_churn: Postmark's transaction phase on one sequential client.

Why it exists: per-object ESIGN key generation (about 40 % of host time
here), small-blob seal+sign and ``_update_parent_tables`` do most of the
work; the cache (10 % of the initial pool) is smaller than the working
set; directories hold 100 entries, so the O(entries x views) table reship
of every create and unlink is visible on the wire.  Scheduler, journal,
lease and socket layers do nothing.
"""

from __future__ import annotations

from functools import partial

from repro.fs.client import ClientConfig

from ..kit import (Deck, Op, Stack, Workload, expect_content,
                       expect_ok, ladder)

DIRS = 5
FILES = 500
MIN_FILE_BYTES = 500
MAX_FILE_BYTES = 10_000  # Postmark's "9.77 KB"
DIR_MODE = 0o750
FILE_MODE = 0o640


class PmChurn(Workload):
    name = "pm_churn"
    block_ops = 25
    warmup_ops = 50

    def build(self, tick) -> None:
        rng = self.rng
        self.stack = Stack(users=("alice", "bob"), group=("alice", "bob"))
        self.clock = self.stack.clock
        self.backend = self.stack.backend
        self.sizes = Deck(rng, ladder(MIN_FILE_BYTES, MAX_FILE_BYTES, 20))
        self.append_sizes = Deck(rng, ladder(64, 512, 8))
        sizes = [self.sizes.draw() for _ in range(FILES)]
        self.fs, counter = self.stack.mount(
            "alice", ClientConfig(cache_bytes=sum(sizes) // 10))
        self.clients = [self.fs]
        self.counters = [counter]
        for d in range(DIRS):
            self.fs.mkdir(f"/d{d}", mode=DIR_MODE)
            self.model.mkdir(f"/d{d}")
        self.pool: list[str] = []
        self.next_id = 0
        self.deck = Deck(rng, {"read": 5, "append": 5, "create": 5,
                               "unlink": 5})
        for size in sizes:
            self._create(size).run()
            tick()

    def _create(self, size: int) -> Op:
        path = f"/d{self.next_id % DIRS}/f{self.next_id:06d}"
        self.next_id += 1
        payload = self.model.create(path, self.rng.getrandbits(48), size)
        self.pool.append(path)
        return Op("create", partial(self.fs.create_file, path, payload,
                                    mode=FILE_MODE), expect_ok)

    def next_op(self) -> Op:
        rng, fs, model = self.rng, self.fs, self.model
        kind = self.deck.draw()
        if kind == "read":
            path = rng.choice(self.pool)
            return Op("read", partial(fs.read_file, path),
                      expect_content(model.files[path]))
        if kind == "append":
            path = rng.choice(self.pool)
            payload = model.append(path, rng.getrandbits(48),
                                   self.append_sizes.draw())
            return Op("append", partial(fs.append_file, path, payload),
                      expect_ok)
        if kind == "create":
            return self._create(self.sizes.draw())
        victim = self.pool.pop(rng.randrange(len(self.pool)))
        model.unlink(victim)
        return Op("unlink", partial(fs.unlink, victim), expect_ok)

    def verify_after(self) -> tuple[int, list[str]]:
        bob, _ = self.stack.mount("bob")
        checks, failures = self.reread_sample(bob)
        for d in range(DIRS):
            checks += 1
            if set(bob.readdir(f"/d{d}")) != self.model.dirs[f"/d{d}"]:
                failures.append(f"readdir /d{d}: listing differs")
        leak_checks, leaks = self.leak_check()
        return checks + leak_checks, failures + leaks
