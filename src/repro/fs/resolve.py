"""Path resolution: keys travel in-band (paper sections II-III), so a
path resolves by walking verified views and table rows from the root.

A walk that was a pure cache read is remembered for one cache
generation and one mounted superblock; a memo hit re-issues the walk's
cache lookups in order and skips the rest (docs/CACHING.md, "Walk
memo").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import esign
from ..errors import (FileNotFound, FilesystemError, IntegrityError,
                      PermissionDenied)
from ..storage.blobs import meta_blob
from . import layout
from . import path as fspath
from .dirtable import SPLIT, VIEW_FULL, ZERO, DirEntry
from .mdcache import TRAVERSE_CAPS
from .metadata import MetadataAttrs, MetadataView
from .permissions import SYMLINK
from .tableio import fetch_table

#: walk steps; a ``_PAID`` one runs on every access: no memo skips it.
_VIEW, _TABLE, _PROBE, _HIT, _PAID = range(5)
_PAID_STEP = (_PAID, None, None)
_MEMO_ERRORS = (PermissionDenied, FileNotFound)


@dataclass(slots=True)
class ResolvedNode:
    """A path component resolved to its decrypted metadata replica."""

    inode: int
    selector: str
    mek: bytes
    mvk: esign.VerificationKey
    view: MetadataView

    @property
    def attrs(self) -> MetadataAttrs:
        return self.view.attrs

    @property
    def cap_id(self) -> str:
        return self.view.cap_id


class Resolver:
    """One client's path walk, its per-depth attribution and its memo."""

    _MAX_SYMLINK_DEPTH = 8

    def __init__(self, fs):
        self.fs = fs
        self.mdcache = fs.mdcache
        #: per-depth walks/hits/misses/seconds (``client.resolve.*``).
        self._walk_depth: dict[int, dict[str, float]] = {}
        fs.metrics.register_source(
            "client.resolve", self._collect_walk_depth,
            help="per-depth path-walk cache attribution")
        #: (path, follow_last) -> (flat kind, a, b steps, outcome, walks)
        self._memo: dict[tuple[str, bool], tuple] = {}
        self._generation = -1
        self._superblock = None

    def resolve(self, path: str, follow_last: bool = True,
                _depth: int = 0) -> ResolvedNode:
        fs = self.fs
        clock = fs.tracer.clock
        with fs.tracer.span("resolve", path=path) as span:
            sb = fs._require_mounted()
            generation = fs.cache.generation + fs.freshness.generation
            key = (path, follow_last)
            if generation != self._generation or sb is not self._superblock:
                self._memo.clear()
                self._generation, self._superblock = generation, sb
            elif key in self._memo:
                return self._replay(self._memo[key], span)
            frames, start = fs.blobs.request_count, clock.now
            misses = self.mdcache.misses
            steps: list = []
            outcome = None
            try:
                outcome = self._walk(sb, path, follow_last, _depth, steps)
                return outcome
            except _MEMO_ERRORS as exc:
                outcome = (type(exc), exc.args)
                raise
            finally:
                kinds = steps[::3]
                if (outcome is not None and _PAID not in kinds
                        and fs.blobs.request_count == frames
                        and clock.now == start
                        and self.mdcache.misses == misses
                        and fs.cache.generation + fs.freshness.generation
                        == generation):
                    # A failed walk opened one span more than it noted.
                    self._memo[key] = (tuple(steps), outcome, kinds.count(
                        _HIT) + (type(outcome) is tuple))

    def _replay(self, memo: tuple, span) -> ResolvedNode:
        """A memo hit: the walk's cache lookups and hits, in order."""
        steps, outcome, walks = memo
        mdcache = self.mdcache
        note_cached_table = self.fs.mutation.note_cached_table
        triples = iter(steps)
        for kind, a, b in zip(triples, triples, triples):
            if kind == _VIEW:
                mdcache.get_view(a, b)
            elif kind == _TABLE:
                mdcache.get_table(a, b)
                note_cached_table(a)
            elif kind == _PROBE:
                mdcache.has_view(a, b)
            else:
                a["walks"] += 1
                a["hits"] += 1
        if span is not None:
            span.attrs["memo"] = walks
        if type(outcome) is tuple:
            raise outcome[0](*outcome[1])
        return outcome

    def _walk(self, sb, path: str, follow_last: bool, depth: int,
              steps: list, reread: bool = True) -> ResolvedNode:
        fs = self.fs
        clock = fs.tracer.clock
        blobs = fs.blobs
        mvk = sb.root_verification_key
        try:
            view = fs._fetch_view(sb.root_inode, sb.root_selector,
                                  sb.root_mek, mvk)
        except IntegrityError:
            # Another mount's root re-key rewrote this user's superblock
            # with the root's new keys: read it again, once.  Unchanged,
            # the root replica itself failed.
            if not reread or fs._read_superblock() == sb:
                raise
            return self._walk(fs._superblock, path, follow_last, depth,
                              steps, reread=False)
        steps += (_VIEW, sb.root_inode, sb.root_selector)
        node = ResolvedNode(inode=sb.root_inode, selector=sb.root_selector,
                            mek=sb.root_mek, mvk=mvk, view=view)
        parts = fspath.split_path(path)
        last = len(parts) - 1
        for index, name in enumerate(parts):
            gets = blobs.get_frames
            start = clock.now
            with fs.tracer.span("walk", depth=index,
                                component=name) as wspan:
                node = self._lookup_child(node, name, index != last, steps)
            self._note_walk(index, wspan, blobs.get_frames != gets,
                            clock.now - start, steps)
            if node.attrs.ftype == SYMLINK and (follow_last
                                                or index != last):
                if depth >= self._MAX_SYMLINK_DEPTH:
                    raise FilesystemError(
                        f"{path}: too many levels of symbolic links")
                steps += _PAID_STEP
                target = fs._read_symlink_target(node)
                remainder = parts[index + 1:]
                combined = (fspath.join(target, *remainder)
                            if remainder else fspath.normalize(target))
                return self.resolve(combined, follow_last=follow_last,
                                    _depth=depth + 1)
        return node

    def lookup_child(self, dir_node: ResolvedNode,
                     name: str) -> ResolvedNode:
        """One component below an already-resolved directory."""
        return self._lookup_child(dir_node, name, False, [])

    def _lookup_child(self, dir_node: ResolvedNode, name: str,
                      lookahead: bool, steps: list) -> ResolvedNode:
        fs = self.fs
        if dir_node.cap_id not in TRAVERSE_CAPS:
            raise PermissionDenied(
                f"inode {dir_node.inode}: traversal requires exec "
                f"permission (CAP {dir_node.cap_id})")
        table = fetch_table(fs, dir_node)
        steps += (_TABLE, dir_node.inode, dir_node.selector)
        if table.style != VIEW_FULL:
            steps += _PAID_STEP  # a hidden row: derived, opened per access
        entry = table.lookup(name, provider=fs.provider,
                             table_dek=dir_node.view.require_dek())
        return self._follow_entry(entry, lookahead, steps)

    def _follow_entry(self, entry: DirEntry, lookahead: bool,
                      steps: list) -> ResolvedNode:
        fs = self.fs
        if entry.kind == ZERO:
            raise PermissionDenied(
                f"{entry.name!r}: your permission chain has no access")
        if entry.kind == SPLIT:
            steps += _PAID_STEP  # the lockbox is fetched per access
            selector, mek, mvk_raw = fs._resolve_lockbox(entry.inode)
            mvk = esign.VerificationKey.from_bytes(mvk_raw)
        else:
            assert entry.pointer is not None
            selector = entry.pointer.selector
            mek = entry.pointer.mek
            mvk = entry.pointer.verification_key
            if lookahead and fs.config.readahead:
                # The walk continues below this component: its metadata
                # *and* its table will both be needed, so fetch the pair
                # in one round trip.
                self._prefetch_walk(entry.inode, selector, steps)
        view = fs._fetch_view(entry.inode, selector, mek, mvk)
        steps += (_VIEW, entry.inode, selector)
        return ResolvedNode(inode=entry.inode, selector=selector, mek=mek,
                            mvk=mvk, view=view)

    def _prefetch_walk(self, inode: int, selector: str,
                       steps: list) -> None:
        """Readahead: a mid-walk component needs its view and table (one
        selector): fetch both in one frame (a file's table just misses)."""
        steps += (_PROBE, inode, selector)
        if (self.mdcache.has_view(inode, selector)
                or self.mdcache.has_table(inode, selector)):
            return
        self.fs.blobs.prefetch([meta_blob(inode, selector),
                                layout.table_blob_id(inode, selector)])

    def _note_walk(self, depth: int, span, miss: bool, seconds: float,
                   steps: list) -> None:
        """Record one walk component as a hit or ``miss`` (it sent a
        demand ``get`` frame; readahead and raw-slot reuse are hits) on
        its span, if recorded, and in ``client.resolve.*``."""
        if span is not None:
            span.attrs["cache"] = "miss" if miss else "hit"
        stats = self._walk_depth.get(depth)
        if stats is None:
            stats = self._walk_depth[depth] = {
                "walks": 0, "hits": 0, "misses": 0, "seconds": 0.0}
        stats["walks"] += 1
        stats["misses" if miss else "hits"] += 1
        stats["seconds"] += seconds
        steps += (_HIT, stats, None)

    def _collect_walk_depth(self) -> dict[str, float]:
        return {f"depth{depth}.{key}": value
                for depth in sorted(self._walk_depth)
                for key, value in self._walk_depth[depth].items()}

    def walk_depth_stats(self) -> dict[str, dict[str, float]]:
        """Resolve attribution keyed by path depth (JSON-friendly)."""
        return {str(depth): dict(stats)
                for depth, stats in sorted(self._walk_depth.items())}
