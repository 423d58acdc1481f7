"""Verified metadata cache + pre-materialized listings.

Path resolution is the client's hottest path: the Andrew benchmark
spends 44% of its wall-clock re-fetching and re-verifying directory
tables and metadata replicas it has already seen (BENCH_5/BENCH_6,
``repro profile --format resolve``).  The plain :class:`~.cache.LruCache`
cannot close that gap because the close-to-open consistency model drops
every metadata entry at each open boundary -- the conservative choice
when the only coherence signal is "re-fetch and re-verify".

SHAROES already has stronger signals.  Every metadata replica carries a
signed, monotonically-increasing version; the
:class:`~.freshness.FreshnessMonitor` pins the highest version this
client ever verified; leases advance a fencing epoch whenever another
writer may have touched an inode.  This module layers a **verified
metadata cache** on those signals (the same insight UPSS applies to its
mutable-fixed-point metadata over an immutable encrypted block store):

* entries hold *decrypted, signature-verified* views only -- raw
  untrusted bytes never enter (the single-consume readahead buffer is
  verified at consumption time, before any of its bytes are trusted);
* each metadata entry is keyed by ``(inode, selector)`` and pinned to
  the **version** it was verified at; an entry whose version falls
  behind the freshness monitor's high watermark is discarded instead of
  served (``stale_rejects``);
* coherence is event-driven, not fetch-driven: a close-to-open
  ``revalidate()`` keeps entries warm, while lease-epoch advancement
  (fresh acquire, takeover, renewal loss), local deletes/rekeys, a
  local mutation that raised, a dropped write-behind queue and unmount
  invalidate;
* storage is the client's existing byte-budgeted LRU, so metadata
  views, directory tables, pre-materialized listings, data blocks and
  the speculative readahead buffer share **one** coherence surface and
  one eviction policy -- ``invalidate_inode`` is the single choke point
  every trigger funnels through.  (Each file's last verified block
  count sits beside the store, an int per inode, and is dropped by the
  same choke point.)

This module is the only one that knows the verified key space
(``("meta"|"table"|"listing", inode, selector)``, ``("data", inode,
block)``) and both policies: ``warm=False`` is the paper's strict
close-to-open regime over the same entries (``revalidate()`` drops
every view and table, listings are neither stored nor served),
``data=False`` makes the block family a no-op.  The ``("raw", blob_id)``
readahead slots are :class:`~.blobio.BlobIO`'s -- unverified ciphertext,
a different trust class, only ever dropped wholesale here.

On top of the table cache sit **pre-materialized listings** (Tiger
Cache's pre-computed permission sets, scaled down to one principal): a
``readdir`` on a warm directory returns the previously computed name
tuple plus this principal's already-evaluated list/traverse/write
verdicts -- O(1) and zero SSP round trips.

What the cache may and may not trust is documented in docs/CACHING.md;
the cached-vs-uncached differential suite and the coherence matrix in
``tests/test_mdcache_differential.py`` are the proof obligations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import LruCache
from .dirtable import TableView
from .freshness import FreshnessMonitor
from .metadata import MetadataView

# The CAP permission sets live here so the pre-materialized listing
# verdicts are evaluated against the exact same sets the client's demand
# path checks -- a drifted copy would make the fast path lie.
#: CAP ids that allow traversing a directory (the *nix x bit).
TRAVERSE_CAPS = frozenset({"drx", "drwx", "dx"})
#: CAP ids that allow listing a directory (the *nix r bit).
LIST_CAPS = frozenset({"dr", "drx", "drwx"})
#: CAP ids that allow modifying a directory (w and x bits).
DIR_WRITE_CAPS = frozenset({"drwx"})


@dataclass(frozen=True)
class Listing:
    """A pre-materialized directory listing for one principal.

    Built once per (directory, selector) from a verified table view and
    the principal's CAP; served on every subsequent ``readdir`` without
    touching the table again.  The permission verdicts are the Tiger
    Cache idea -- evaluate the principal's rights when the listing is
    materialized, then answer permission checks from the cached set.
    """

    #: child names in ``list_names()`` order, ready to return from
    #: ``readdir`` byte-for-byte identically to the uncached path.
    names: tuple[str, ...]
    #: the CAP the listing was evaluated under; a CAP change rewrites
    #: the metadata replica (new version), which invalidates the entry.
    cap_id: str
    can_list: bool
    can_traverse: bool
    can_write: bool

    @classmethod
    def build(cls, table: TableView, cap_id: str) -> "Listing":
        return cls(names=tuple(table.list_names()),
                   cap_id=cap_id,
                   can_list=cap_id in LIST_CAPS,
                   can_traverse=cap_id in TRAVERSE_CAPS,
                   can_write=cap_id in DIR_WRITE_CAPS)


@dataclass
class _VerifiedView:
    """A decrypted metadata view pinned to its verified version."""

    view: MetadataView
    version: int


class VerifiedMetadataCache:
    """The client's cache front: every verified entry, both policies
    (``warm`` = ``ClientConfig.mdcache``, ``data`` = ``data_cache``).

    The cache owns no storage of its own: entries live in the client's
    byte-budgeted :class:`~.cache.LruCache`, next to the readahead
    buffer.  This class decides *when an entry may be trusted* --
    version pinning against the freshness monitor, and the event-driven
    invalidation documented in docs/CACHING.md.
    """

    def __init__(self, store: LruCache, freshness: FreshnessMonitor,
                 *, warm: bool, data: bool):
        self.store = store
        self.freshness = freshness
        self.warm = warm
        self.data = data
        #: coherence counters, exported as ``client.mdcache.*``.
        self.hits = 0
        self.misses = 0
        self.listing_hits = 0
        self.listing_builds = 0
        #: close-to-open boundaries crossed.
        self.revalidations = 0
        #: per-inode invalidation events (docs/CACHING.md rule 3).
        self.invalidations = 0
        #: entries discarded because their pinned version fell behind
        #: the freshness monitor's high watermark -- a stale entry is
        #: *never* served, it is re-fetched and re-verified.
        self.stale_rejects = 0
        #: verified payloads not cached because the transport served
        #: them from its degraded last-known-good fallback.
        self.degraded_skips = 0
        #: inode -> the block count this client last verified (a block
        #: 0 load or its own close).  A hint, never an authority: it
        #: only widens block 0's fetch flight (``filedata.load_blocks``).
        self._counts: dict[int, int] = {}

    # ---------------------------------------------------------- views

    def get_view(self, inode: int, selector: str) -> MetadataView | None:
        entry = self.store.get(("meta", inode, selector))
        if entry is None:
            self.misses += 1
            return None
        watermark = self.freshness.high_watermark(inode)
        if watermark is not None and entry.version < watermark:
            # Another fetch path (a different selector, a peer's
            # statement) proved a newer version exists: trusting this
            # entry would serve a rollback this client can already
            # refute.  Drop it and make the caller re-verify.
            self.store.invalidate(("meta", inode, selector))
            self.stale_rejects += 1
            self.misses += 1
            return None
        self.hits += 1
        return entry.view

    def put_view(self, inode: int, selector: str, view: MetadataView,
                 size_bytes: int) -> None:
        self.store.put(("meta", inode, selector),
                       _VerifiedView(view, view.attrs.version),
                       size_bytes)

    def has_view(self, inode: int, selector: str) -> bool:
        """Readahead's probe: is fetching this replica wasted bytes?"""
        return self.store.get(("meta", inode, selector)) is not None

    def drop_views(self, inode: int) -> None:
        """The inode's replicas were rewritten (every selector's)."""
        self.store.invalidate_prefix(("meta", inode))

    # --------------------------------------------------------- tables

    def get_table(self, inode: int, selector: str) -> TableView | None:
        table = self.store.get(("table", inode, selector))
        if table is None:
            self.misses += 1
            return None
        self.hits += 1
        return table

    def put_table(self, inode: int, selector: str, table: TableView,
                  size_bytes: int) -> None:
        self.store.put(("table", inode, selector), table, size_bytes)
        # The old listing (if any) no longer matches the table; it is
        # rebuilt lazily from this cached view -- still zero round trips.
        self.store.invalidate(("listing", inode, selector))

    def has_table(self, inode: int, selector: str) -> bool:
        """Readahead's probe, as :meth:`has_view`."""
        return self.store.get(("table", inode, selector)) is not None

    # ------------------------------------------------------- listings

    def get_listing(self, inode: int, selector: str) -> Listing | None:
        if not self.warm:
            return None
        listing = self.store.get(("listing", inode, selector))
        if listing is not None:
            self.listing_hits += 1
        return listing

    def put_listing(self, inode: int, selector: str, table: TableView,
                    cap_id: str) -> None:
        if not self.warm:
            return
        listing = Listing.build(table, cap_id)
        size = sum(len(name) for name in listing.names) + len(cap_id)
        self.store.put(("listing", inode, selector), listing, size)
        self.listing_builds += 1

    # ---------------------------------------------------- data blocks

    def has_block(self, inode: int, index: int) -> bool:
        """Is the block cached?  The loader's cold-set probe: it counts
        no lookup, so each block a load serves is one hit or one miss."""
        return self.data and ("data", inode, index) in self.store

    def get_block(self, inode: int, index: int) -> bytes | None:
        if not self.data:
            return None
        return self.store.get(("data", inode, index))

    def put_block(self, inode: int, index: int, plain: bytes) -> None:
        if self.data:
            self.store.put(("data", inode, index), plain, len(plain))

    def drop_block(self, inode: int, index: int) -> None:
        self.store.invalidate(("data", inode, index))

    # --------------------------------------------------- block counts

    def block_count(self, inode: int) -> int | None:
        return self._counts.get(inode)

    def remember_count(self, inode: int, count: int) -> None:
        if self.store.capacity_bytes != 0:  # "no cache" keeps nothing
            self._counts[inode] = count

    # ------------------------------------------------------ coherence

    def revalidate(self) -> None:
        """Close-to-open boundary crossed.

        The paper's strict model (``warm=False``) drops every view,
        table and listing here, so the next open re-fetches and
        re-verifies.  The warm cache keeps them -- entries were
        signature-verified on entry, version-pinned against rollback,
        and every event that could have made them stale (lease churn,
        local mutation, unmount) funnels through
        :meth:`invalidate_inode` or the store's ``clear()``.  See
        docs/CACHING.md for the staleness bound this implies.
        """
        self.revalidations += 1
        if not self.warm:
            self.store.invalidate_prefix(("meta",))
            self.store.invalidate_prefix(("table",))
            self.store.invalidate_prefix(("listing",))

    def invalidate_inode(self, inode: int, keep_count: bool = False) -> None:
        """What this client holds of ``inode`` may not be what the SSP
        holds -- another writer, or a local write that did not land:
        drop everything (``keep_count``: but the remembered block count,
        a hint that only widens block 0's flight).

        The raw readahead buffer is keyed by blob id, not inode, so it
        cannot be dropped per-inode; invalidation means "the SSP copy
        moved under us", which is exactly when speculative bytes must
        not survive either -- one coherence surface, one rule.
        """
        self.store.invalidate_prefix(("meta", inode))
        self.store.invalidate_prefix(("table", inode))
        self.store.invalidate_prefix(("listing", inode))
        self.store.invalidate_prefix(("data", inode))
        self.store.invalidate_prefix(("raw",))
        if not keep_count:
            self._counts.pop(inode, None)
        self.invalidations += 1

    def clear(self) -> None:
        """Unmount: forget everything."""
        self.store.clear()
        self._counts.clear()

    # -------------------------------------------------------- metrics

    def snapshot(self) -> dict[str, float]:
        """Pull-based metrics source (``client.mdcache.*``)."""
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "listing_hits": float(self.listing_hits),
            "listing_builds": float(self.listing_builds),
            "revalidations": float(self.revalidations),
            "invalidations": float(self.invalidations),
            "stale_rejects": float(self.stale_rejects),
            "degraded_skips": float(self.degraded_skips),
        }
