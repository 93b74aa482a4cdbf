"""Batch partitioning of memo lookups: ``MemoCache.get_many`` and ``BatchStats``.

``get_many``'s duplicate handling is pinned here: later occurrences of an
uncached key count as hits, exactly as the scalar loop (which computes and
stores before the next lookup) would count them.
"""

from __future__ import annotations

from repro.engine import EvaluationEngine, MISS, MemoCache
from repro.engine.cache import BatchStats
from repro.experiments.motivational import fig1_application, fig1_profile


def _engine():
    return EvaluationEngine(fig1_application(), fig1_profile())


class TestGetMany:
    def test_partitions_hits_cold_and_duplicates(self):
        cache = MemoCache("t")
        cache.put("a", 1)
        values, cold, duplicates = cache.get_many(["a", "b", "b", "c", "a"])
        assert values == [1, MISS, MISS, MISS, 1]
        assert cold == [1, 3]
        assert duplicates == {2: 1}
        # Counters mirror the scalar loop: a/a hits, first b misses, second
        # b would have been computed already (hit), c misses.
        assert cache.hits == 3
        assert cache.misses == 2

    def test_preloaded_keys_count_disk_hits(self):
        cache = MemoCache("t")
        cache.load({"a": 1})
        values, cold, duplicates = cache.get_many(["a", "a", "b"])
        assert values == [1, 1, MISS]
        assert cold == [2]
        assert duplicates == {}
        assert cache.disk_hits == 2

    def test_cached_none_is_not_a_miss(self):
        cache = MemoCache("t")
        cache.put("a", None)
        values, cold, duplicates = cache.get_many(["a"])
        assert values == [None]
        assert cold == []


class TestBatchStats:
    def test_record_and_fill_rate(self):
        stats = BatchStats()
        stats.record(rows=10, cold_rows=4)
        stats.record(rows=0, cold_rows=0)
        assert stats.calls == 2
        assert stats.rows == 10
        assert stats.fill_rate == 0.4

    def test_add_and_as_dict(self):
        total = BatchStats(calls=1, rows=4, cold_rows=2) + BatchStats(
            calls=1, rows=6, cold_rows=3
        )
        assert total.as_dict() == {
            "calls": 2,
            "rows": 10,
            "cold_rows": 5,
            "fill_rate": 0.5,
        }

    def test_engine_report_includes_batch(self):
        engine = _engine()
        engine.record_batch(rows=8, cold_rows=2)
        report = engine.report()
        assert report["batch"] == {
            "calls": 1,
            "rows": 8,
            "cold_rows": 2,
            "fill_rate": 0.25,
        }
