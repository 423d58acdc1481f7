"""tree_read: read-mostly sharing of a three-level tree.

Why it exists: ``fs.cache``, ``fs.mdcache``, path resolution,
``fs.dirtable.lookup``, ``caps`` and signature *verify* do the work here;
key generation and the bulk cipher do almost none.  Two readers alternate
over Zipf-chosen paths: ``bob`` (group, unbounded cache: the tree fits)
and ``carol`` (other/ACL, cache = 20 % of the tree: it does not).  2 % of
the ops are the owner's (chmod revoke/grant, rename, rekey): the write
side of the same tables and caches, so a read-path gain bought with
costlier invalidation shows here.

The tree (Scheme-2): TOPS x SUBS directories x FILES files of 200 B-4 KB.
Even top-level directories are world-readable (0755/0644), odd ones
group-only (0750/0640, so ``carol`` is denied and the denial is checked);
the last directory under each top is exec-only for the group (0710); 16
files carry an ACL grant for ``carol`` next to a second "other" user, so
their parent rows are real split points resolved through lockboxes.

What a reader may see after the owner touched a file: the client keeps
verified metadata warm across ``revalidate()`` (docs/CACHING.md grants
that close-to-open window), so on a *touched* file any verdict is
accepted (a reader holding the old keys may even be refused the new
bytes as an integrity failure) -- but bytes returned must still be the
file's bytes.  Untouched
files (7 in 8) are checked strictly, and after the run a fresh mount of a
fourth principal checks touched and untouched files strictly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

from repro.errors import FileNotFound, PermissionDenied
from repro.fs.client import ClientConfig
from repro.fs.permissions import AclEntry

from ..kit import (VERIFY_SAMPLE_SHARE, Deck, Op, Stack, Workload,
                       expect_content, expect_ok, ladder)

TOPS = 8
SUBS = 4
FILES = 16
MIN_FILE_BYTES = 200
MAX_FILE_BYTES = 4096
#: the last CHURN_FILES files of every directory are the owner's targets.
CHURN_FILES = 2
REVALIDATE_EVERY = 200
REVOKED_MODE = 0o600
RENAMED_SUFFIX = "~"

OWNER = "alice"
GROUP_MEMBERS = ("alice", "bob", "dave")
USERS = ("alice", "bob", "carol", "dave", "erin")


@dataclass(eq=False)
class Slot:
    """One file of the tree; its name and mode move under owner churn."""

    directory: str
    base_name: str
    base_mode: int
    acl_user: str | None = None
    churn_target: bool = False
    renamed: bool = False
    revoked: bool = False
    #: the owner has changed this file since the readers mounted.
    touched: bool = False

    @property
    def name(self) -> str:
        return self.base_name + (RENAMED_SUFFIX if self.renamed else "")

    @property
    def path(self) -> str:
        return f"{self.directory}/{self.name}"

    @property
    def mode(self) -> int:
        return REVOKED_MODE if self.revoked else self.base_mode


def _class_bits(user: str, mode: int, acl_user: str | None = None) -> int:
    """rwx bits *nix grants ``user`` on an object owned by OWNER."""
    if acl_user == user:
        return 4  # the ACL grants in this tree are all r--
    if user == OWNER:
        return (mode >> 6) & 7
    if user in GROUP_MEMBERS:
        return (mode >> 3) & 7
    return mode & 7


class TreeRead(Workload):
    name = "tree_read"
    block_ops = 250
    warmup_ops = 2000

    # -- set-up --------------------------------------------------------------

    def build(self, tick) -> None:
        rng = self.rng
        self.stack = Stack(users=USERS, group=GROUP_MEMBERS)
        self.clock = self.stack.clock
        self.backend = self.stack.backend
        owner, owner_counter = self.stack.mount(OWNER)
        self.owner = owner
        self.dir_modes: dict[str, int] = {"/": 0o755}
        self.slots: list[Slot] = []
        tops, subs, files = self._popularity_orders()
        # Every directory holds the same ladder of file sizes, zigzagged
        # over popularity (the hottest file position is the smallest, the
        # next the largest, ...), so the bytes behind each rank are the
        # same for every seed.
        steps = ladder(MIN_FILE_BYTES, MAX_FILE_BYTES, FILES)
        sizes = {f: steps[p // 2 if p % 2 == 0 else FILES - 1 - p // 2]
                 for p, f in enumerate(files)}
        for t in range(TOPS):
            public = t % 2 == 0
            dir_mode = 0o755 if public else 0o750
            file_mode = 0o644 if public else 0o640
            self._mkdir(f"/t{t}", dir_mode)
            for s in range(SUBS):
                directory = f"/t{t}/s{s}"
                self._mkdir(directory,
                            0o710 if s == SUBS - 1 else dir_mode)
                for f in range(FILES):
                    slot = Slot(directory, f"f{f:02d}", file_mode,
                                churn_target=f >= FILES - CHURN_FILES)
                    payload = self.model.create(
                        slot.path, rng.getrandbits(48), sizes[f])
                    owner.create_file(slot.path, payload, mode=file_mode)
                    self.slots.append(slot)
                    tick()
            if public:
                self._grant_acls(t)
                tick()
        tree_bytes = self.model.live_bytes()
        bob, bob_counter = self.stack.mount("bob")
        carol, carol_counter = self.stack.mount(
            "carol", ClientConfig(cache_bytes=tree_bytes // 5))
        self.readers = (("bob", bob), ("carol", carol))
        self.clients = [owner, bob, carol]
        self.counters = [owner_counter, bob_counter, carol_counter]

        self.by_rank = [self.slots[(t * SUBS + s) * FILES + f]
                        for f in files for s in subs for t in tops]
        self.zipf_cum = list(itertools.accumulate(
            1.0 / (rank + 1) for rank in range(len(self.by_rank))))
        self.churn_slots = [s for s in self.slots if s.churn_target]
        self.reader_ops = 0
        self.deck = Deck(rng, {"getattr": 60, "readdir": 15, "read": 19,
                               "access": 4, "owner": 2})
        self.owner_deck = Deck(rng, {"chmod": 2, "rename": 2, "rekey": 2})
        #: directory -> (names that never move, names churn may produce)
        self.dir_names: dict[str, tuple[set[str], set[str]]] = {}
        for slot in self.slots:
            stable, moving = self.dir_names.setdefault(
                slot.directory, (set(), set()))
            if slot.churn_target:
                moving |= {slot.base_name, slot.base_name + RENAMED_SUFFIX}
            else:
                stable.add(slot.base_name)

    def _popularity_orders(self) -> tuple[list[int], list[int], list[int]]:
        """Top-level directories, sub-directories and file positions,
        each hottest first; Zipf rank cycles through them in that order.

        Which *kind* of file holds each rank is the same for every seed:
        ranks cycle through the top-level directories (public, private,
        public, ...), then through their sub-directories (the exec-only
        one last), then through the file positions (plain files first,
        the ACL files in the middle, the owner's churn targets in the
        cold tail).  The seed only permutes directories and files among
        their equals.  A free shuffle let the hottest file -- 15 % of all
        accesses under Zipf(1.0) -- land on a denied, exec-only or churned
        path for one seed and not the next, and per-op counts then moved
        by 20-40 % between seeds.
        """
        rng = self.rng

        def shuffled(items) -> list[int]:
            items = list(items)
            rng.shuffle(items)
            return items

        public = shuffled(range(0, TOPS, 2))
        private = shuffled(range(1, TOPS, 2))
        tops = [t for pair in zip(public, private) for t in pair]
        subs = shuffled(range(SUBS - 1)) + [SUBS - 1]
        special = set(self._acl_indexes()) | set(
            range(FILES - CHURN_FILES, FILES))
        plain = iter(shuffled(f for f in range(FILES) if f not in special))
        files = [f if f in special else next(plain) for f in range(FILES)]
        return tops, subs, files

    @staticmethod
    def _acl_indexes() -> tuple[int, int]:
        return FILES // 2 - 1, FILES // 2

    def _mkdir(self, path: str, mode: int) -> None:
        self.owner.mkdir(path, mode=mode)
        self.model.mkdir(path)
        self.dir_modes[path] = mode

    def _grant_acls(self, top: int) -> None:
        """Split points: an r-- grant for carol on files the other
        "other" user (erin) cannot read."""
        first, second = self._acl_indexes()
        for s, f in [(s, first) for s in range(SUBS - 1)] + [(0, second)]:
            slot = self.slots[(top * SUBS + s) * FILES + f]
            slot.base_mode = 0o640
            slot.acl_user = "carol"
            self.owner.chmod(slot.path, slot.base_mode)
            self.owner.set_acl(slot.path, (AclEntry("carol", 4),))

    # -- what *nix says a user may do ---------------------------------------

    def _traversable(self, user: str, directory: str) -> bool:
        """x on ``directory`` and on every directory above it."""
        path = ""
        for part in directory.rstrip("/").split("/"):
            path = f"{path}/{part}".replace("//", "/")
            if not _class_bits(user, self.dir_modes[path]) & 1:
                return False
        return True

    def _can_read(self, user: str, slot: Slot) -> bool:
        return (self._traversable(user, slot.directory)
                and bool(_class_bits(user, slot.mode, slot.acl_user) & 4))

    def _can_list(self, user: str, directory: str) -> bool:
        parent = directory.rsplit("/", 1)[0] or "/"
        return (self._traversable(user, parent)
                and bool(_class_bits(user, self.dir_modes[directory]) & 4))

    # -- expectations --------------------------------------------------------

    def _expect_read(self, user: str, slot: Slot):
        content_ok = expect_content(self.model.files[slot.path])
        if slot.touched:
            return lambda result, exc: exc is not None or content_ok(
                result, None)
        if self._can_read(user, slot):
            return content_ok
        return lambda result, exc: isinstance(exc, PermissionDenied)

    def _expect_getattr(self, user: str, slot: Slot):
        if slot.touched:
            return lambda result, exc: True
        if not self._traversable(user, slot.directory):
            return lambda result, exc: isinstance(exc, PermissionDenied)
        mode = slot.mode
        return lambda result, exc: (exc is None and result.mode == mode
                                    and result.owner == OWNER)

    def _expect_access(self, user: str, slot: Slot):
        if slot.touched:
            return lambda result, exc: True
        verdict = self._can_read(user, slot)
        return lambda result, exc: exc is None and result is verdict

    def _expect_readdir(self, user: str, directory: str):
        if not self._can_list(user, directory):
            return lambda result, exc: isinstance(exc, PermissionDenied)
        stable, moving = self.dir_names[directory]

        def check(result, exc) -> bool:
            if exc is not None or len(result) != FILES:
                return False
            names = set(result)
            return stable <= names and names - stable <= moving

        return check

    # -- ops -----------------------------------------------------------------

    def next_op(self) -> Op:
        rng = self.rng
        kind = self.deck.draw()
        if kind == "owner":
            return self._owner_op()
        self.reader_ops += 1
        user, fs = self.readers[self.reader_ops % 2]
        if self.reader_ops % (2 * REVALIDATE_EVERY) < 2:
            return Op("revalidate", fs.revalidate, expect_ok)
        slot = rng.choices(self.by_rank, cum_weights=self.zipf_cum)[0]
        if kind == "getattr":
            return Op("getattr", partial(fs.getattr, slot.path),
                      self._expect_getattr(user, slot))
        if kind == "readdir":
            return Op("readdir", partial(fs.readdir, slot.directory),
                      self._expect_readdir(user, slot.directory))
        if kind == "read":
            return Op("read", partial(fs.read_file, slot.path),
                      self._expect_read(user, slot))
        return Op("access", partial(fs.access, slot.path, "r"),
                  self._expect_access(user, slot))

    def _owner_op(self) -> Op:
        rng = self.rng
        slot = rng.choice(self.churn_slots)
        kind = self.owner_deck.draw()
        slot.touched = True
        old_path = slot.path
        if kind == "chmod":
            slot.revoked = not slot.revoked
            call = partial(self.owner.chmod, old_path, slot.mode)
        elif kind == "rename":
            slot.renamed = not slot.renamed
            self.model.rename(old_path, slot.path)
            call = partial(self.owner.rename, old_path, slot.path)
        else:
            call = partial(self.owner.rekey, old_path)

        def run():
            call()
            for _, reader in self.readers:
                reader.revalidate()

        return Op(kind, run, expect_ok)

    # -- afterwards ----------------------------------------------------------

    def verify_after(self) -> tuple[int, list[str]]:
        """A fresh mount of ``dave`` (group) is strict about everything:
        a seeded sample of all files, every revoked path denied, every
        renamed-away name gone."""
        dave, _ = self.stack.mount("dave")
        failures: list[str] = []
        by_path = {slot.path: slot for slot in self.slots}
        sample = {by_path[p] for p in self.model.sample(
            self.rng, VERIFY_SAMPLE_SHARE)}
        targets = sample | {s for s in self.slots if s.revoked or s.renamed}
        for slot in sorted(targets, key=lambda s: s.path):
            state = self.model.files[slot.path]
            try:
                content = dave.read_file(slot.path)
            except PermissionDenied:
                if self._can_read("dave", slot):
                    failures.append(f"{slot.path}: denied to a reader")
            else:
                if not self._can_read("dave", slot):
                    failures.append(f"{slot.path}: revoked yet readable")
                elif not state.matches(content):
                    failures.append(f"{slot.path}: content mismatch")
            if slot.renamed:
                try:
                    dave.getattr(f"{slot.directory}/{slot.base_name}")
                except FileNotFound:
                    pass
                else:
                    failures.append(f"{slot.path}: old name still resolves")
        leak_checks, leaks = self.leak_check()
        return len(targets) + leak_checks, failures + leaks
