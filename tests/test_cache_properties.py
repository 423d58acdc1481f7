"""Property-based tests for the byte-budgeted LRU cache.

The verified metadata cache (PR 7) sits entirely on top of ``LruCache``,
so its correctness argument leans on three accounting invariants:

1. **Conservation**: every entry that ever entered the cache is either
   still live, was evicted (counted), or was displaced by an explicit
   invalidation / a rejected oversized replacement (both of which are
   deliberate "stay gone" paths)::

       insertions == live + evictions + displaced

2. **No shadowing**: a ``rejected`` put never leaves the *previous*
   value visible under the same key -- an oversized write-through must
   not resurrect the stale entry it was replacing.

3. **Budget**: ``used_bytes`` equals the sum of live entry sizes and
   never exceeds ``capacity_bytes``.

These are checked against a dict-based reference model under randomized
operation sequences (hypothesis), including the adversarial corner the
hand-written tests missed: replacing a live key with an object larger
than the whole budget.
"""

from __future__ import annotations

import pytest

from repro.fs.cache import LruCache

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (RuleBasedStateMachine, initialize,  # noqa: E402
                                 invariant, rule)

KEYS = st.integers(min_value=0, max_value=11)
SIZES = st.integers(min_value=0, max_value=64)
CAPACITIES = st.one_of(st.none(), st.integers(min_value=0, max_value=160))


class LruModel(RuleBasedStateMachine):
    """Reference model: a dict of {key: (value, size)} plus a displaced
    counter for the two remove-without-evicting paths."""

    @initialize(capacity=CAPACITIES)
    def setup(self, capacity):
        self.cache = LruCache(capacity_bytes=capacity)
        self.capacity = capacity
        self.model: dict[int, tuple[int, int]] = {}
        self.displaced = 0
        self.counter = 0  # monotone value generator -> puts distinguishable

    @rule(key=KEYS, size=SIZES)
    def put(self, key, size):
        self.counter += 1
        value = self.counter
        was_live = key in self.model
        before = set(self.model) if self.capacity is not None else None
        self.cache.put(key, value, size)
        if self.capacity == 0 or (self.capacity is not None
                                  and size > self.capacity):
            # Rejected.  If it displaced a live entry, that entry must be
            # gone -- never shadowed by the stale value (invariant 2).
            if was_live:
                del self.model[key]
                self.displaced += 1
            assert self.cache.get(key) is None
            self.cache.stats.misses -= 1  # undo the probe's miss
            return
        self.model[key] = (value, size)
        if before is not None:
            # Mirror evictions: drop model keys the cache no longer holds.
            for k in list(self.model):
                if k != key and self.cache._entries.get(k) is None:
                    del self.model[k]

    @rule(key=KEYS)
    def get(self, key):
        got = self.cache.get(key)
        if key in self.model:
            assert got == self.model[key][0]
        else:
            assert got is None

    @rule(key=KEYS)
    def invalidate(self, key):
        self.cache.invalidate(key)
        if key in self.model:
            del self.model[key]
            self.displaced += 1

    @invariant()
    def conservation(self):
        s = self.cache.stats
        assert s.insertions == (len(self.cache) + s.evictions
                                + self.displaced)

    @invariant()
    def live_set_matches_model(self):
        assert set(self.cache._entries) == set(self.model)

    @invariant()
    def byte_accounting(self):
        assert self.cache.used_bytes == sum(
            size for _, size in self.model.values())
        if self.capacity is not None:
            assert self.cache.used_bytes <= self.capacity


TestLruModel = LruModel.TestCase
TestLruModel.settings = settings(max_examples=60, stateful_step_count=40,
                                 deadline=None)


@given(capacity=st.integers(min_value=1, max_value=120),
       ops=st.lists(st.tuples(KEYS, SIZES), min_size=1, max_size=200))
@settings(max_examples=120, deadline=None)
def test_conservation_under_put_storm(capacity, ops):
    """Pure put sequences: insertions == live + evictions + displaced,
    where displaced counts only rejected oversized *replacements*."""
    cache = LruCache(capacity_bytes=capacity)
    displaced = 0
    for i, (key, size) in enumerate(ops):
        was_live = cache._entries.get(key) is not None
        cache.put(key, i, size)
        if size > capacity and was_live:
            displaced += 1
    s = cache.stats
    assert s.insertions == len(cache) + s.evictions + displaced
    assert s.insertions + s.replacements + s.rejected == len(ops)
    assert cache.used_bytes <= capacity


@given(ops=st.lists(st.tuples(KEYS, SIZES), min_size=1, max_size=100))
@settings(max_examples=60, deadline=None)
def test_unbounded_cache_never_evicts_or_rejects(ops):
    cache = LruCache(capacity_bytes=None)
    for i, (key, size) in enumerate(ops):
        cache.put(key, i, size)
    assert cache.stats.evictions == 0
    assert cache.stats.rejected == 0
    assert cache.stats.insertions == len(cache)
    assert cache.used_bytes == sum(
        size for _, size in cache._entries.values())


@given(capacity=st.integers(min_value=1, max_value=60),
       warm=st.lists(st.tuples(KEYS, st.integers(min_value=1, max_value=8)),
                     min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_rejected_put_never_shadows_live_entry(capacity, warm):
    """The PR 7 threat case: a write-through whose new serialization is
    larger than the whole budget must not leave the *old* (now stale)
    bytes visible under that key."""
    cache = LruCache(capacity_bytes=capacity)
    for i, (key, size) in enumerate(warm):
        cache.put(key, ("old", i), size)
    for key in {k for k, _ in warm}:
        if cache._entries.get(key) is None:
            continue
        cache.put(key, "too-big", capacity + 1)
        assert cache.get(key) is None


def test_zero_capacity_rejects_everything():
    cache = LruCache(capacity_bytes=0)
    for i in range(5):
        cache.put(("k", i), i, 1)
    assert len(cache) == 0
    assert cache.stats.rejected == 5
    assert cache.stats.insertions == 0


# -- the prefix index (``invalidate_prefix`` without a full scan) ----------------

_FAMILY = st.sampled_from(["meta", "table", "raw"])
_INODE = st.integers(min_value=0, max_value=3)
TUPLE_KEYS = st.one_of(
    KEYS, st.just(()), st.tuples(_FAMILY), st.tuples(_FAMILY, _INODE),
    st.tuples(_FAMILY, _INODE, st.sampled_from(["o", "g"])))
PREFIXES = st.one_of(st.just(()), st.tuples(_FAMILY),
                     st.tuples(_FAMILY, _INODE),
                     st.tuples(_FAMILY, _INODE, st.sampled_from(["o", "g"])))
INDEX_OPS = st.lists(st.one_of(
    st.tuples(st.just("put"), TUPLE_KEYS, SIZES),
    st.tuples(st.just("invalidate"), TUPLE_KEYS),
    st.tuples(st.just("prefix"), PREFIXES),
    st.tuples(st.just("clear"))), min_size=1, max_size=80)


@given(capacity=CAPACITIES, script=INDEX_OPS)
@settings(max_examples=150, deadline=None)
def test_prefix_index_mirrors_entries(capacity, script):
    """index == entries after any put / evict / invalidate /
    prefix-invalidate / clear script, no empty group is left behind, and
    a prefix invalidation drops exactly the keys the full scan would."""
    cache = LruCache(capacity_bytes=capacity)
    for step, (kind, *args) in enumerate(script):
        if kind == "put":
            cache.put(args[0], step, args[1])
        elif kind == "invalidate":
            cache.invalidate(args[0])
        elif kind == "clear":
            cache.clear()
        else:
            prefix = args[0]
            doomed = {k for k in cache._entries if isinstance(k, tuple)
                      and k[:len(prefix)] == prefix}
            before = set(cache._entries)
            cache.invalidate_prefix(prefix)
            assert set(cache._entries) == before - doomed
        groups = [group for family in cache._index.values()
                  for group in family.values()]
        assert all(cache._index.values()) and all(groups)
        assert sorted(map(repr, (k for group in groups for k in group))) \
            == sorted(repr(k) for k in cache._entries
                      if isinstance(k, tuple) and k)
        assert cache.used_bytes == sum(
            size for _, size in cache._entries.values())
