"""Unit tests for the memoized evaluation engine subsystem."""

from __future__ import annotations

import pytest

from repro.core.architecture import Architecture, Node, linear_cost_node_type
from repro.core.mapping_model import ProcessMapping
from repro.core.sfp import (
    probability_exceeds,
    system_failure_probability,
)
from repro.engine import EvaluationEngine, MISS, MemoCache
from repro.engine.cache import CacheStats
from repro.engine.fingerprint import (
    application_fingerprint,
    architecture_fingerprint,
    hardening_fingerprint,
    mapping_fingerprint,
    profile_fingerprint,
)
from repro.experiments.motivational import fig1_application, fig1_profile


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_mapping_fingerprint_ignores_insertion_order(self):
        first = ProcessMapping({"P1": "N1", "P2": "N2"})
        second = ProcessMapping({"P2": "N2", "P1": "N1"})
        assert mapping_fingerprint(first) == mapping_fingerprint(second)

    def test_mapping_fingerprint_distinguishes_assignments(self):
        first = ProcessMapping({"P1": "N1", "P2": "N2"})
        second = ProcessMapping({"P1": "N2", "P2": "N1"})
        assert mapping_fingerprint(first) != mapping_fingerprint(second)

    def test_hardening_fingerprint_is_canonical(self):
        assert hardening_fingerprint({"N2": 1, "N1": 3}) == (("N1", 3), ("N2", 1))

    def test_architecture_fingerprint_excludes_levels(self):
        node_type = linear_cost_node_type("NT", base_cost=2.0, levels=3)
        architecture = Architecture([Node("N1", node_type)])
        before = architecture_fingerprint(architecture)
        architecture.node("N1").hardening = 3
        assert architecture_fingerprint(architecture) == before

    def test_application_fingerprint_is_stable(self):
        application = fig1_application()
        assert application_fingerprint(application) == application_fingerprint(
            application
        )

    def test_profile_fingerprint_tracks_content(self):
        profile = fig1_profile()
        before = profile_fingerprint(profile)
        assert before == profile_fingerprint(fig1_profile())
        profile.add_entry("P1", "N1", 1, wcet=123.0, failure_probability=0.5)
        assert profile_fingerprint(profile) != before


# ----------------------------------------------------------------------
# cache primitives
# ----------------------------------------------------------------------
class TestMemoCache:
    def test_miss_then_hit(self):
        cache = MemoCache("test")
        assert cache.get("k") is MISS
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.hits == 1
        assert cache.misses == 1

    def test_none_is_a_cacheable_value(self):
        cache = MemoCache("test")
        calls = []

        def compute():
            calls.append(1)
            return None

        assert cache.memoize("k", compute) is None
        assert cache.memoize("k", compute) is None
        assert calls == [1]

    def test_memoize_computes_once_and_counts_the_lookups(self):
        cache = MemoCache("test")
        calls = []

        def compute():
            calls.append(1)
            return 7

        assert [cache.memoize("k", compute) for _ in range(3)] == [7, 7, 7]
        assert calls == [1]
        assert (cache.hits, cache.misses, cache.new_entries) == (2, 1, 1)

    def test_load_inserts_without_counting_and_keeps_present_values(self):
        cache = MemoCache("test")
        cache.put("fresh", "memory")
        inserted = cache.load({"fresh": "disk", "a": 1, "b": None})
        assert inserted == 2
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.get("fresh") == "memory"
        assert len(cache) == 3
        assert "b" in cache

    def test_disk_hits_count_only_preloaded_keys(self):
        cache = MemoCache("test")
        cache.load({"disk": 1})
        cache.put("memory", 2)
        cache.get("disk")
        cache.get("disk")
        cache.get("memory")
        cache.get("absent")
        assert (cache.hits, cache.misses, cache.disk_hits) == (3, 1, 2)

    def test_new_entries_counts_puts_since_the_last_persist(self):
        cache = MemoCache("test")
        cache.load({"disk": 1})
        assert cache.new_entries == 0
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.new_entries == 2
        cache.mark_persisted()
        assert cache.new_entries == 0
        cache.put("c", 3)
        assert cache.new_entries == 1

    def test_snapshot_is_a_copy(self):
        cache = MemoCache("test")
        cache.put("a", 1)
        snapshot = cache.snapshot()
        snapshot["b"] = 2
        assert snapshot == {"a": 1, "b": 2}
        assert "b" not in cache

    def test_clear_drops_entries_and_preload_marks_but_keeps_counters(self):
        cache = MemoCache("test")
        cache.load({"k": 1})
        cache.get("k")
        cache.put("n", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.new_entries == 0
        assert (cache.hits, cache.disk_hits) == (1, 1)
        cache.put("k", 3)
        cache.get("k")
        assert cache.disk_hits == 1

    def test_stats_view_and_dict(self):
        cache = MemoCache("test")
        cache.get("k")
        cache.put("k", 1)
        cache.get("k")
        cache.get("k")
        assert cache.stats == CacheStats(hits=2, misses=1)
        assert cache.stats.lookups == 3
        assert cache.stats.as_dict() == {"hits": 2, "misses": 1, "hit_rate": 2 / 3}

    def test_stats_arithmetic(self):
        total = CacheStats(hits=3, misses=1) + CacheStats(hits=1, misses=3)
        assert total.hits == 4
        assert total.misses == 4
        assert total.hit_rate == 0.5
        assert CacheStats().hit_rate == 0.0


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
@pytest.fixture
def engine():
    return EvaluationEngine(fig1_application(), fig1_profile())


class TestEvaluationEngine:
    def test_matches_is_identity_based(self, engine):
        assert engine.matches(engine.application, engine.profile)
        assert not engine.matches(fig1_application(), engine.profile)
        assert not engine.matches(engine.application, fig1_profile())

    def test_memoized_sfp_matches_module_functions(self, engine):
        probabilities = (1.2e-5, 3.4e-6, 5.6e-7)
        for reexecutions in range(4):
            assert engine.node_exceedance(
                probabilities, reexecutions, 11
            ) == probability_exceeds(probabilities, reexecutions, 11)
        exceedances = (1.0e-9, 2.0e-9)
        assert engine.system_failure(exceedances, 11) == system_failure_probability(
            exceedances, 11
        )

    def test_memoized_sfp_counts_hits(self, engine):
        probabilities = (1.2e-5, 3.4e-6)
        engine.node_exceedance(probabilities, 1, 11)
        engine.node_exceedance(probabilities, 1, 11)
        assert engine.exceedance.hits == 1
        assert engine.exceedance.misses == 1
        assert engine.stats.hits == 1

    def test_report_shape(self, engine):
        report = engine.report()
        assert {"context", "evaluations", "hits", "misses", "hit_rate", "caches"} <= set(
            report
        )
        assert set(report["caches"]) == {
            "decisions",
            "optimizations",
            "exceedance",
            "system_failure",
        }

    def test_clear_keeps_counters(self, engine):
        engine.node_exceedance((1e-6,), 0, 11)
        engine.clear()
        assert len(engine.exceedance) == 0
        assert engine.exceedance.misses == 1
