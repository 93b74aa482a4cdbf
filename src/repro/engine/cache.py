"""Hit/miss-counting caches used by the evaluation engine.

A :class:`MemoCache` is a plain dictionary plus hit/miss counters; the
counters are what the experiment harness and the CLI surface as the cache
hit rate.  ``None`` is a legitimate cached value (e.g. "this mapping admits
no feasible redundancy decision"), so lookups use a private sentinel instead
of ``None`` to signal a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Sequence, Tuple

#: Sentinel distinguishing "not cached" from a cached ``None`` result.
MISS = object()


@dataclass
class BatchStats:
    """Counters of batched cache partitions (neighbourhood evaluation).

    ``rows`` counts the rows handed to batched lookups, ``cold_rows`` the
    residual rows that fell through the memo table and had to be computed.
    ``fill_rate`` is the cold fraction (1.0 = every row computed, 0.0 = all
    served from cache).
    """

    calls: int = 0
    rows: int = 0
    cold_rows: int = 0

    @property
    def fill_rate(self) -> float:
        if not self.rows:
            return 0.0
        return self.cold_rows / self.rows

    def record(self, rows: int, cold_rows: int) -> None:
        self.calls += 1
        self.rows += rows
        self.cold_rows += cold_rows

    def __add__(self, other: "BatchStats") -> "BatchStats":
        return BatchStats(
            calls=self.calls + other.calls,
            rows=self.rows + other.rows,
            cold_rows=self.cold_rows + other.cold_rows,
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "rows": self.rows,
            "cold_rows": self.cold_rows,
            "fill_rate": self.fill_rate,
        }


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

    def get_many(
        self, keys: Sequence[Hashable]
    ) -> Tuple[List[Any], List[int], Dict[int, int]]:
        """Partition a batch of keys into cached values and cold positions.

        Returns ``(values, cold, duplicates)``: ``values[i]`` is the cached
        value or :data:`MISS`; ``cold`` lists the positions whose keys must
        be computed — **deduplicated**, only the first occurrence of an
        uncached key is cold; ``duplicates`` maps each later occurrence of a
        cold key to its first position.  Duplicate occurrences are counted as
        hits, exactly as the scalar loop (which computes and stores before
        the next lookup) would count them.  The caller computes the cold
        rows, stores them with :meth:`put`, and back-fills duplicates from
        the first occurrence (see ``RedundancyOpt.evaluate_hardening_batch``).
        """
        values: List[Any] = []
        cold: List[int] = []
        duplicates: Dict[int, int] = {}
        pending: Dict[Hashable, int] = {}
        store = self._store
        preloaded = self._preloaded
        for position, key in enumerate(keys):
            value = store.get(key, MISS)
            if value is not MISS:
                self.hits += 1
                if preloaded and key in preloaded:
                    self.disk_hits += 1
                values.append(value)
                continue
            first = pending.get(key)
            if first is None:
                self.misses += 1
                pending[key] = position
                cold.append(position)
            else:
                # The scalar sequence would have computed and stored the
                # first occurrence already, so this lookup is a hit.
                self.hits += 1
                duplicates[position] = first
            values.append(MISS)
        return values, cold, duplicates

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
