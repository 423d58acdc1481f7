"""bulk_rw: large files through the pipelined client.

Why it exists: ``crypto.stream`` XOR and per-block sign/verify dominate
host time; ``fs.scheduler`` fetch flights and write-behind waves set
simulated time; metadata, tables and key generation are noise.  Reads run
beside writes of the same blocks, and with ``data_cache=False`` every
whole-file read is cold.
"""

from __future__ import annotations

from functools import partial

from repro.fs.client import ClientConfig

from ..kit import (Deck, Op, Stack, Workload, expect_content,
                       expect_ok)

FILES = 24
FILE_BYTES = 1 << 20  # 16 blocks of the default 64 KiB
PATCH_BYTES = 4096
APPEND_BYTES = 64 * 1024
DIR_MODE = 0o750
FILE_MODE = 0o640


class BulkRw(Workload):
    name = "bulk_rw"
    block_ops = 1
    warmup_ops = 2

    def build(self, tick) -> None:
        self.stack = Stack(users=("alice", "bob"), group=("alice", "bob"))
        self.clock = self.stack.clock
        self.backend = self.stack.backend
        self.fs, counter = self.stack.mount(
            "alice", ClientConfig(concurrency=8, data_cache=False))
        self.clients = [self.fs]
        self.counters = [counter]
        self.fs.mkdir("/bulk", mode=DIR_MODE)
        self.model.mkdir("/bulk")
        self.paths = [f"/bulk/f{i:02d}" for i in range(FILES)]
        for path in self.paths:
            payload = self.model.create(path, self.rng.getrandbits(48),
                                        FILE_BYTES)
            self.fs.create_file(path, payload, mode=FILE_MODE)
            tick()
        self.fs.flush_staged()
        self.deck = Deck(self.rng, {"read": 4, "write": 3, "pwrite": 2,
                                    "append": 1})

    def _pwrite(self, path: str, payload: bytes, offset: int) -> None:
        with self.fs.open(path, "rw") as handle:
            handle.pwrite(payload, offset)

    def next_op(self) -> Op:
        rng, fs, model = self.rng, self.fs, self.model
        kind = self.deck.draw()
        path = rng.choice(self.paths)
        if kind == "read":
            return Op("read", partial(fs.read_file, path),
                      expect_content(model.files[path]))
        seed = rng.getrandbits(48)
        if kind == "write":
            payload = model.write(path, seed, FILE_BYTES)
            return Op("write", partial(fs.write_file, path, payload),
                      expect_ok)
        if kind == "pwrite":
            offset = rng.randrange(model.files[path].length - PATCH_BYTES)
            payload = model.patch(path, offset, seed, PATCH_BYTES)
            return Op("pwrite", partial(self._pwrite, path, payload, offset),
                      expect_ok)
        payload = model.append(path, seed, APPEND_BYTES)
        return Op("append", partial(fs.append_file, path, payload),
                  expect_ok)

    def verify_after(self) -> tuple[int, list[str]]:
        bob, _ = self.stack.mount("bob")
        checks, failures = self.reread_sample(bob)
        leak_checks, leaks = self.leak_check()
        return checks + leak_checks, failures + leaks
