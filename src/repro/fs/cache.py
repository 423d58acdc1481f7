"""Client-side LRU cache with a byte budget.

The SHAROES filesystem caches *decrypted* metadata, directory tables and
data blocks; every miss costs an SSP round trip plus decryption, which is
why the Postmark benchmark (paper Figure 10) sweeps cache size -- the
smaller the cache, the more the metadata-crypto differences between the
five implementations show.

Capacity is expressed in bytes of (approximate) decrypted payload, as a
fraction of the total dataset in the benchmarks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

#: the key families a path walk reads (fs/mdcache.py's views, tables).
WALKED_FAMILIES = frozenset({"meta", "table"})


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: first-time inserts only; overwrites of a live key count below.
    insertions: int = 0
    #: puts that replaced an existing entry (write-through refreshes).
    replacements: int = 0
    #: puts dropped without caching: zero-capacity cache, or an object
    #: larger than the whole byte budget.  Without this counter those
    #: drops were silent and skewed hit-rate analyses.
    rejected: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LruCache:
    """Byte-budgeted LRU.  ``capacity_bytes=0`` disables caching entirely;
    ``capacity_bytes=None`` means unbounded (the 100% point in Figure 10).
    """

    def __init__(self, capacity_bytes: int | None = None):
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError("capacity must be >= 0 (or None for unbounded)")
        self.capacity_bytes = capacity_bytes
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._used_bytes = 0
        #: the live tuple keys by their first two fields (a shorter key
        #: files under None), so ``invalidate_prefix`` visits one family
        #: or one inode's group instead of the whole store.
        self._index: dict[Hashable, dict[Hashable, set]] = {}
        #: bumped when a WALKED_FAMILIES entry leaves, and on clear().
        self.generation = 0

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership only: no hit/miss counted, recency untouched."""
        return key in self._entries

    @staticmethod
    def _slot(key: Hashable) -> tuple | None:
        if isinstance(key, tuple) and key:
            return key[0], key[1] if len(key) > 1 else None
        return None

    def _forget(self, key: Hashable, size_bytes: int) -> None:
        """Bookkeeping for an entry that just left ``_entries``."""
        self._used_bytes -= size_bytes
        slot = self._slot(key)
        if slot is not None:
            if slot[0] in WALKED_FAMILIES:
                self.generation += 1
            family = self._index[slot[0]]
            family[slot[1]].discard(key)
            if not family[slot[1]]:
                del family[slot[1]]
                if not family:
                    del self._index[slot[0]]

    def get(self, key: Hashable) -> Any | None:
        """Return the cached value or None; refreshes recency on hit."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: Hashable, value: Any, size_bytes: int) -> None:
        """Insert/replace; evicts least-recently-used entries to fit.

        Objects larger than the whole budget are simply not cached.
        """
        if self.capacity_bytes == 0:
            self.stats.rejected += 1
            return
        replacing = key in self._entries
        if replacing:
            self._forget(key, self._entries.pop(key)[1])
        if (self.capacity_bytes is not None
                and size_bytes > self.capacity_bytes):
            # Too big to ever fit; any stale entry stays evicted.
            self.stats.rejected += 1
            return
        self._entries[key] = (value, size_bytes)
        self._used_bytes += size_bytes
        slot = self._slot(key)
        if slot is not None:
            self._index.setdefault(slot[0], {}).setdefault(
                slot[1], set()).add(key)
        if replacing:
            self.stats.replacements += 1
        else:
            self.stats.insertions += 1
        while (self.capacity_bytes is not None
               and self._used_bytes > self.capacity_bytes):
            evicted, (_, evicted_size) = self._entries.popitem(last=False)
            self._forget(evicted, evicted_size)
            self.stats.evictions += 1

    def invalidate(self, key: Hashable) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._forget(key, entry[1])

    def invalidate_prefix(self, prefix: tuple, where=None) -> None:
        """Drop every entry whose (tuple) key starts with ``prefix`` (and,
        given ``where``, for which ``where(key)`` holds)."""
        if not prefix:
            groups = [self._entries]
        elif len(prefix) == 1:
            groups = self._index.get(prefix[0], {}).values()
        else:
            groups = [self._index.get(prefix[0], {}).get(prefix[1], ())]
        victims = [k for group in groups for k in group
                   if isinstance(k, tuple) and k[:len(prefix)] == prefix
                   and (where is None or where(k))]
        for key in victims:
            self.invalidate(key)

    def clear(self) -> None:
        self._entries.clear()
        self._index.clear()
        self._used_bytes = 0
        self.generation += 1
