"""duo_wire: two journaled, leased users over real loopback sockets.

Why it exists: the only workload where ``fs.journal``, ``fs.lease``,
fencing, ``storage.resilient``, the ``storage.wire`` codec and real
sockets carry load -- the one journal-sealed waves or a piggybacked lease
CAS must move.  Two users (few users, one shared tree, each on their own
connection: 2 connections = nproc) take strict turns from the one
generator thread with the op mix of ``repro.workloads.throughput``.  No
lease conflict occurs at this shape, so any failed op is a regression.

Departure from that harness, so a time-bounded run is stationary: homes
start with HOME_FILES files and a create into a full home first unlinks
the oldest file (throughput.py lets homes grow without bound, which makes
the per-op cost depend on how far a run gets).
"""

from __future__ import annotations

from functools import partial

from repro.fs.client import ClientConfig
from repro.storage.resilient import RetryPolicy
from repro.storage.wire import RemoteStorageClient, SspServer
from repro.tools.fsck import VolumeAuditor

from ..kit import (Deck, Op, Stack, Workload, expect_content,
                       expect_ok)

USERS = ("alice", "bob")
BLOCK_SIZE = 8192
SHARED_FILES = 8
HOME_FILES = 32
MAX_FILE_BLOCKS = 6
SHARED_DIR_MODE = 0o775
SHARED_FILE_MODE = 0o664
OWN_FILE_MODE = 0o644

#: Off, because with it on the program loses updates here: append_file
#: reads its base through the block cache *before* _flush_file takes the
#: lease, so an append by the other user in between is overwritten (37 of
#: 650 ops read back bytes that never existed).  A workload may not
#: contain failing ops; without the block cache every append starts from
#: the SSP's bytes and every read can be checked strictly.
DATA_CACHE = False

#: op mix of repro.workloads.throughput, in twentieths.
OP_MIX = {"create": 4, "append": 3, "read": 7, "stat": 2, "readdir": 1,
          "shared_append": 3}


class DuoWire(Workload):
    name = "duo_wire"
    block_ops = 10
    warmup_ops = 40

    def build(self, tick) -> None:
        rng = self.rng
        # carol (not in the group) only verifies afterwards.
        self.stack = Stack(users=USERS + ("carol",), group=USERS,
                           block_size=BLOCK_SIZE)
        self.clock = self.stack.clock
        self.backend = self.stack.backend
        admin, _ = self.stack.mount("alice")
        admin.mkdir("/shared", mode=SHARED_DIR_MODE)
        self.model.mkdir("/shared")
        self.shared: list[str] = []
        self.blocks = Deck(rng, range(1, MAX_FILE_BLOCKS + 1))
        shared_blocks = Deck(rng, range(2, MAX_FILE_BLOCKS + 1))
        for j in range(SHARED_FILES):
            path = f"/shared/s{j:02d}.dat"
            payload = self.model.create(path, rng.getrandbits(48),
                                        shared_blocks.draw() * BLOCK_SIZE)
            admin.create_file(path, payload, mode=SHARED_FILE_MODE)
            self.shared.append(path)
            tick()
        for user in USERS:
            admin.mkdir(f"/{user}", mode=SHARED_DIR_MODE)
            self.model.mkdir(f"/{user}")
        admin.unmount()

        self.ssp = SspServer(self.backend).start()
        host, port = self.ssp.address
        config = ClientConfig(journal=True, lease=True, lease_duration_s=5,
                              lease_wait_attempts=8, concurrency=8,
                              retry_policy=RetryPolicy(),
                              data_cache=DATA_CACHE)
        self.connections = []
        for user in USERS:
            connection = RemoteStorageClient(host, port)
            self.connections.append(connection)
            fs, counter = self.stack.mount(user, config, server=connection)
            self.clients.append(fs)
            self.counters.append(counter)
        self.own: list[list[str]] = [[] for _ in USERS]
        self.created = [0 for _ in USERS]
        for _ in range(HOME_FILES):
            for who in range(len(USERS)):
                self._create(who).run()
                tick()
        self.turn = 0
        self.decks = [Deck(rng, OP_MIX) for _ in USERS]

    def _create(self, who: int) -> Op:
        fs = self.clients[who]
        path = f"/{USERS[who]}/f{self.created[who]:05d}.dat"
        self.created[who] += 1
        payload = self.model.create(path, self.rng.getrandbits(48),
                                    self.blocks.draw() * BLOCK_SIZE)
        self.own[who].append(path)
        create = partial(fs.create_file, path, payload, mode=OWN_FILE_MODE)
        if len(self.own[who]) <= HOME_FILES:
            return Op("create", create, expect_ok)
        oldest = self.own[who].pop(0)
        self.model.unlink(oldest)

        def rotate() -> None:
            fs.unlink(oldest)
            create()

        return Op("create", rotate, expect_ok)

    def next_op(self) -> Op:
        rng, model = self.rng, self.model
        who = self.turn % len(USERS)
        self.turn += 1
        fs = self.clients[who]
        kind = self.decks[who].draw()
        if kind == "create":
            return self._create(who)
        if kind == "append":
            path = rng.choice(self.own[who])
            payload = model.append(path, rng.getrandbits(48),
                                   rng.randint(256, BLOCK_SIZE))
            return Op("append", partial(fs.append_file, path, payload),
                      expect_ok)
        if kind == "read":
            pool = self.own[who] if rng.random() < 0.7 else self.shared
            path = rng.choice(pool)
            return Op("read", partial(fs.read_file, path),
                      expect_content(model.files[path]))
        if kind == "stat":
            path = rng.choice(self.own[who])
            owner = USERS[who]
            return Op("getattr", partial(fs.getattr, path),
                      lambda result, exc: exc is None
                      and result.owner == owner
                      and result.mode == OWN_FILE_MODE)
        if kind == "readdir":
            names = set(model.dirs["/shared"])
            return Op("readdir", partial(fs.readdir, "/shared"),
                      lambda result, exc: exc is None
                      and set(result) == names)
        path = rng.choice(self.shared)
        payload = model.append(path, rng.getrandbits(48),
                               rng.randint(32, 256))
        return Op("append", partial(fs.append_file, path, payload),
                  expect_ok)

    def verify_after(self) -> tuple[int, list[str]]:
        for fs in self.clients:
            fs.unmount()
        failures = []
        report = VolumeAuditor(self.stack.volume).audit()
        if not report.clean:
            failures.append(f"fsck: {report.summary()}")
        carol, _ = self.stack.mount("carol")
        checks, misread = self.reread_sample(carol)
        for path in self.shared:  # every append of both users must be there
            checks += 1
            if not self.model.files[path].matches(carol.read_file(path)):
                misread.append(f"{path}: an append was lost")
        leak_checks, leaks = self.leak_check()
        return 1 + checks + leak_checks, failures + misread + leaks

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.ssp.stop()
