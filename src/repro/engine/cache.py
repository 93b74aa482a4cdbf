"""Hit/miss-counting caches used by the evaluation engine.

A :class:`MemoCache` is a plain dictionary plus hit/miss counters; the
counters are what the experiment harness and the CLI surface as the cache
hit rate.  ``None`` is a legitimate cached value (e.g. "this mapping admits
no feasible redundancy decision"), so lookups use a private sentinel instead
of ``None`` to signal a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable

#: Sentinel distinguishing "not cached" from a cached ``None`` result.
MISS = object()


@dataclass
class CacheStats:
    """Aggregated cache counters surfaced to results and the CLI."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(hits=self.hits + other.hits, misses=self.misses + other.misses)

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


class MemoCache:
    """Dictionary-backed memo table with hit/miss accounting.

    Entries may be *preloaded* from the persistent design-point store
    (:mod:`repro.engine.store`); hits on preloaded keys are additionally
    counted as ``disk_hits`` so the CLI can report how much work a warm
    start actually saved.  ``new_entries`` counts the entries stored since
    the table was last persisted, so the store can skip writing a table
    that only holds what it preloaded.
    """

    __slots__ = (
        "name", "_store", "hits", "misses", "_preloaded", "disk_hits", "new_entries",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self._store: Dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0
        self._preloaded: set[Hashable] = set()
        self.disk_hits = 0
        self.new_entries = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Any:
        """Return the cached value or :data:`MISS`; updates the counters."""
        value = self._store.get(key, MISS)
        if value is MISS:
            self.misses += 1
        else:
            self.hits += 1
            if self._preloaded and key in self._preloaded:
                self.disk_hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> Any:
        self._store[key] = value
        self.new_entries += 1
        return value

    def memoize(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing and storing on miss."""
        value = self.get(key)
        if value is MISS:
            value = self.put(key, compute())
        return value

    # ------------------------------------------------------------------
    # persistent-store integration
    # ------------------------------------------------------------------
    def load(self, entries: Dict[Hashable, Any]) -> int:
        """Preload entries (e.g. from disk) without touching hit counters.

        Already-present keys are kept (the in-memory value is at least as
        fresh); newly inserted keys are marked preloaded for
        ``disk_hits`` accounting.  Returns the number of entries inserted.
        """
        inserted = 0
        store = self._store
        preloaded = self._preloaded
        for key, value in entries.items():
            if key not in store:
                store[key] = value
                preloaded.add(key)
                inserted += 1
        return inserted

    def snapshot(self) -> Dict[Hashable, Any]:
        """A shallow copy of the current entries (for persisting)."""
        return dict(self._store)

    def mark_persisted(self) -> None:
        """Every current entry is on disk: reset :attr:`new_entries`."""
        self.new_entries = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    def clear(self) -> None:
        """Drop all entries (counters are kept — they describe history)."""
        self._store.clear()
        self._preloaded.clear()
        self.new_entries = 0

    @property
    def stats(self) -> CacheStats:
        return CacheStats(hits=self.hits, misses=self.misses)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoCache(name={self.name!r}, entries={len(self._store)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
