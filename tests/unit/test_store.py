"""Persistent design-point store: round trips, salting, eviction, corruption."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.engine import (
    DesignPointStore,
    EvaluationEngine,
    stable_context_fingerprint,
)
from repro.engine.store import STORE_SUFFIX, code_version_salt
from repro.experiments.motivational import fig1_application, fig1_profile

from tests.conftest import FIG1_MAPPINGS, fig1_optimize

SRC = Path(__file__).resolve().parents[2] / "src"

MAPPINGS = FIG1_MAPPINGS
_optimize = fig1_optimize


@pytest.fixture
def context():
    return fig1_application(), fig1_profile()


def _engine_with_entries(context, mappings=MAPPINGS[:4]) -> EvaluationEngine:
    """A fresh engine with real ``optimizations`` entries (``None`` included)."""
    engine = EvaluationEngine(*context)
    for nodes in mappings:
        _optimize(engine, nodes)
    return engine


# ----------------------------------------------------------------------
# warm / persist round trips
# ----------------------------------------------------------------------
def test_round_trip_restores_entries_and_counts_disk_hits(tmp_path, context):
    store = DesignPointStore(tmp_path)
    first = _engine_with_entries(context)
    assert store.persist(first) == len(first.optimizations) == 4

    second = EvaluationEngine(*context)
    loaded = DesignPointStore(tmp_path).warm(second)
    assert loaded == len(first.optimizations)
    assert second.disk_hits == 0

    # Preloaded entries must serve (and count) hits without recomputation.
    assert _optimize(second, MAPPINGS[2]) == _optimize(first, MAPPINGS[2])
    assert _optimize(second, MAPPINGS[0]) is None
    assert second.disk_hits == 2
    assert second.optimizations.stats.misses == 0
    assert second.evaluations == 0


def test_only_the_optimizations_table_is_persisted(tmp_path, context):
    engine = _engine_with_entries(context)
    assert len(engine.decisions) and len(engine.exceedance) and len(engine.system)
    DesignPointStore(tmp_path).persist(engine)

    warm = EvaluationEngine(*context)
    DesignPointStore(tmp_path).warm(warm)
    assert len(warm.optimizations) == len(engine.optimizations)
    for cache in (warm.decisions, warm.exceedance, warm.system):
        assert len(cache) == 0


def test_round_trip_is_bit_identical_through_the_redundancy_layer(tmp_path, context):
    """A warm engine must drive the full redundancy optimizer identically."""
    cold_engine = EvaluationEngine(*context)
    cold = [_optimize(cold_engine, nodes) for nodes in MAPPINGS]
    store = DesignPointStore(tmp_path)
    store.persist(cold_engine)

    warm_engine = EvaluationEngine(*context)
    store.warm(warm_engine)
    warm = [_optimize(warm_engine, nodes) for nodes in MAPPINGS]
    assert warm == cold
    for before, after in zip(cold, warm):
        if before is not None:
            assert after.schedule.length == before.schedule.length
            assert after.schedule.processes == before.schedule.processes
    assert warm_engine.disk_hits == len(MAPPINGS)
    assert warm_engine.evaluations == 0


def test_persist_merges_with_existing_file(tmp_path, context):
    store = DesignPointStore(tmp_path)
    store.persist(_engine_with_entries(context, MAPPINGS[:2]))

    # A second engine computing *different* entries must not clobber the
    # first engine's entries on disk.
    store.persist(_engine_with_entries(context, MAPPINGS[2:4]))

    third = EvaluationEngine(*context)
    assert store.warm(third) == 4
    for nodes in MAPPINGS[:4]:
        _optimize(third, nodes)
    assert third.optimizations.stats.misses == 0


def test_empty_engine_persists_nothing(tmp_path, context):
    store = DesignPointStore(tmp_path)
    assert store.persist(EvaluationEngine(*context)) == 0
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# write only when something changed, read each file at most once
# ----------------------------------------------------------------------
def test_clean_persist_writes_nothing(tmp_path, context):
    """A warm run that computes nothing leaves the file byte- and mtime-identical."""
    store = DesignPointStore(tmp_path)
    store.persist(_engine_with_entries(context))
    path = store.path_for(EvaluationEngine(*context))
    before = path.read_bytes()

    warm = EvaluationEngine(*context)
    store.warm(warm)
    mtime = path.stat().st_mtime_ns  # after warm's LRU touch
    for nodes in MAPPINGS[:4]:
        _optimize(warm, nodes)
    assert store.persist(warm) == 0
    assert path.read_bytes() == before
    assert path.stat().st_mtime_ns == mtime
    assert store.stats.files_persisted == 1


def test_clean_persist_neither_reads_nor_writes(tmp_path, context, monkeypatch):
    store = DesignPointStore(tmp_path)
    store.persist(_engine_with_entries(context))
    warm = EvaluationEngine(*context)
    store.warm(warm)

    def forbidden(*args, **kwargs):
        raise AssertionError("a clean persist touched the file")

    monkeypatch.setattr(store, "_read", forbidden)
    monkeypatch.setattr(store, "_write_atomic", forbidden)
    assert store.persist(warm) == 0


def test_second_persist_of_the_same_engine_writes_only_new_entries(tmp_path, context):
    store = DesignPointStore(tmp_path)
    engine = _engine_with_entries(context, MAPPINGS[:2])
    assert store.persist(engine) == 2
    assert store.persist(engine) == 0
    _optimize(engine, MAPPINGS[2])
    assert store.persist(engine) == 3
    assert store.stats.files_persisted == 2


def test_persist_merges_against_warm_without_rereading(tmp_path, context, monkeypatch):
    store = DesignPointStore(tmp_path)
    store.persist(_engine_with_entries(context, MAPPINGS[:2]))
    engine = EvaluationEngine(*context)
    store.warm(engine)
    _optimize(engine, MAPPINGS[2])

    reads = []
    original = store._read
    monkeypatch.setattr(store, "_read", lambda *a, **k: reads.append(a) or original(*a, **k))
    assert store.persist(engine) == 3  # the union, from memory
    assert reads == []


def test_persist_rereads_a_file_changed_since_warm(tmp_path, context, monkeypatch):
    """A concurrent writer's entries survive: the stamp changed, so re-read."""
    store = DesignPointStore(tmp_path)
    store.persist(_engine_with_entries(context, MAPPINGS[:1]))
    engine = EvaluationEngine(*context)
    store.warm(engine)

    # Another process (its own store handle) adds entries meanwhile.
    DesignPointStore(tmp_path).persist(_engine_with_entries(context, MAPPINGS[1:3]))

    _optimize(engine, MAPPINGS[3])
    reads = []
    original = store._read
    monkeypatch.setattr(store, "_read", lambda *a, **k: reads.append(a) or original(*a, **k))
    assert store.persist(engine) == 4
    assert len(reads) == 1

    check = EvaluationEngine(*context)
    assert DesignPointStore(tmp_path).warm(check) == 4


def test_persist_reads_when_this_handle_never_warmed_the_engine(tmp_path, context):
    DesignPointStore(tmp_path).persist(_engine_with_entries(context, MAPPINGS[:2]))
    other = DesignPointStore(tmp_path)
    assert other.persist(_engine_with_entries(context, MAPPINGS[2:3])) == 3


# ----------------------------------------------------------------------
# salting / invalidation
# ----------------------------------------------------------------------
def test_salt_mismatch_makes_old_files_unreachable(tmp_path, context):
    old = DesignPointStore(tmp_path, salt="code-v1")
    old.persist(_engine_with_entries(context))

    new = DesignPointStore(tmp_path, salt="code-v2")
    engine = EvaluationEngine(*context)
    assert new.warm(engine) == 0  # hashed to a different file name
    assert len(engine.optimizations) == 0


def test_default_salt_folds_in_schema_and_version():
    salt = code_version_salt()
    assert "schema=3" in salt and "version=" in salt


def test_corrupt_file_is_ignored_and_removed(tmp_path, context):
    store = DesignPointStore(tmp_path)
    store.persist(_engine_with_entries(context))
    path = store.path_for(EvaluationEngine(*context))
    path.write_bytes(b"not a store file at all")

    engine = EvaluationEngine(*context)
    assert store.warm(engine) == 0
    assert not path.exists()
    assert store.stats.invalid_files == 1


def test_foreign_payload_is_rejected(tmp_path, context):
    store = DesignPointStore(tmp_path)
    path = store.path_for(EvaluationEngine(*context))
    body = json.dumps({"caches": "nope", "salt": "other"}).encode()
    path.write_bytes(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
    assert store.warm(EvaluationEngine(*context)) == 0
    assert not path.exists()
    assert store.stats.invalid_files == 1


# ----------------------------------------------------------------------
# size cap / eviction / legacy files
# ----------------------------------------------------------------------
def test_size_cap_evicts_least_recently_used(tmp_path, context):
    store = DesignPointStore(tmp_path, max_bytes=1)  # everything over cap
    store.persist(_engine_with_entries(context))
    # The just-written file is protected from its own eviction pass...
    assert store.path_for(EvaluationEngine(*context)).exists()

    # ...but an older unrelated file gets evicted.
    stale = tmp_path / ("f" * 64 + STORE_SUFFIX)
    stale.write_bytes(b"x" * 4096)
    os.utime(stale, (1, 1))
    store.persist(_engine_with_entries(context, MAPPINGS[4:]))
    assert not stale.exists()
    assert store.stats.evicted_files >= 1


def test_rejects_nonpositive_cap(tmp_path):
    with pytest.raises(ValueError):
        DesignPointStore(tmp_path, max_bytes=0)


def test_warm_survives_concurrent_eviction_of_the_file(tmp_path, context, monkeypatch):
    """A racing process may unlink the file between our read and the LRU
    touch; warm() must shrug, not crash the sweep, and a later persist
    must write the file again."""
    store = DesignPointStore(tmp_path)
    store.persist(_engine_with_entries(context))
    path = store.path_for(EvaluationEngine(*context))

    original_utime = os.utime

    def unlink_then_utime(target, *args, **kwargs):
        path.unlink()  # simulate the concurrent eviction
        return original_utime(target, *args, **kwargs)

    monkeypatch.setattr(os, "utime", unlink_then_utime)
    engine = EvaluationEngine(*context)
    assert store.warm(engine) == 4  # entries still served from the read
    monkeypatch.setattr(os, "utime", original_utime)

    _optimize(engine, MAPPINGS[5])
    assert store.persist(engine) == 5
    assert DesignPointStore(tmp_path).warm(EvaluationEngine(*context)) == 5


def test_stale_tmp_orphans_are_swept_and_capped(tmp_path, context):
    """Interrupted writes must neither accumulate nor escape the size cap."""
    old_orphan = tmp_path / "deadbeef0000.tmp"
    old_orphan.write_bytes(b"x" * 1024)
    os.utime(old_orphan, (1, 1))  # ancient: swept at store construction
    store = DesignPointStore(tmp_path, max_bytes=1)
    assert not old_orphan.exists()

    fresh_orphan = tmp_path / "cafebabe0000.tmp"
    fresh_orphan.write_bytes(b"x" * 4096)
    os.utime(fresh_orphan, (os.path.getmtime(tmp_path) - 10,) * 2)
    store.persist(_engine_with_entries(context))  # cap pass runs after persist
    assert not fresh_orphan.exists()  # counted and evicted like any file


def test_legacy_pickle_files_are_removed_and_not_counted(tmp_path, context):
    """Schema-2 ``*.pkl`` files are unreachable: a new store deletes them."""
    legacy = [tmp_path / (f"{index:064x}.pkl") for index in range(3)]
    for path in legacy:
        path.write_bytes(b"\x80\x05" + b"x" * 2048)
    os.utime(legacy[0], (1, 1))
    store = DesignPointStore(tmp_path)
    assert not any(path.exists() for path in legacy)
    assert store.directory_stats()["files"] == 0

    store.persist(_engine_with_entries(context))
    late = tmp_path / ("a" * 64 + ".pkl")
    late.write_bytes(b"x" * 64)  # written after construction
    assert store.directory_stats()["files"] == 1
    DesignPointStore(tmp_path)
    assert not late.exists()


# ----------------------------------------------------------------------
# warm re-runs of the Fig. 6 scenarios
# ----------------------------------------------------------------------
def _run(scenario: str, cache_dir: Path) -> api.RunReport:
    return api.run(scenario, api.RunConfig(preset="smoke", cache_dir=cache_dir))


@pytest.mark.parametrize("scenario", ["fig6a", "fig6b", "fig6c", "fig6d"])
def test_warm_rerun_of_each_fig6_scenario_computes_no_point(tmp_path, scenario):
    cold = _run(scenario, tmp_path)
    assert cold.cache["points_computed"] > 0
    store_bytes = {path.name: path.read_bytes() for path in tmp_path.glob(f"*{STORE_SUFFIX}")}
    assert store_bytes

    warm = _run(scenario, tmp_path)
    assert warm.results == cold.results
    assert warm.cache["points_computed"] == 0
    assert warm.cache["misses"] == 0
    assert warm.cache["disk_hits"] > 0
    after = {path.name: path.read_bytes() for path in tmp_path.glob(f"*{STORE_SUFFIX}")}
    assert after == store_bytes  # nothing new, nothing rewritten


def test_partial_run_merges_into_the_union(tmp_path):
    """Cold 6a then warm 6c: 6c reuses 6a's shared setting, adds its own."""
    cold_6a = _run("fig6a", tmp_path)
    files_6a = set(tmp_path.glob(f"*{STORE_SUFFIX}"))
    warm_6c = _run("fig6c", tmp_path)
    assert warm_6c.cache["disk_hits"] > 0  # the shared (SER, HPD) setting
    assert warm_6c.cache["points_computed"] > 0  # the settings 6a lacks
    files = set(tmp_path.glob(f"*{STORE_SUFFIX}"))
    assert files_6a < files

    for scenario, cold in (("fig6a", cold_6a), ("fig6c", warm_6c)):
        again = _run(scenario, tmp_path)
        assert again.results == cold.results
        assert again.cache["points_computed"] == 0
    assert set(tmp_path.glob(f"*{STORE_SUFFIX}")) == files


# ----------------------------------------------------------------------
# stable fingerprint
# ----------------------------------------------------------------------
def test_stable_fingerprint_is_deterministic_within_process(context):
    application, profile = context
    first = stable_context_fingerprint(application, profile)
    second = stable_context_fingerprint(fig1_application(), fig1_profile())
    assert first == second
    assert len(first) == 64 and int(first, 16) >= 0


def test_stable_fingerprint_survives_hash_randomization():
    """PYTHONHASHSEED must not leak into persisted keys (unlike builtin hash)."""
    script = (
        "from repro.experiments.motivational import fig1_application, fig1_profile\n"
        "from repro.engine import stable_context_fingerprint\n"
        "print(stable_context_fingerprint(fig1_application(), fig1_profile()))\n"
    )
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        output = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        digests.add(output)
    assert len(digests) == 1


def test_different_contexts_hash_to_different_files(tmp_path, context):
    application, profile = context
    from repro.experiments.motivational import fig3_application, fig3_profile

    store = DesignPointStore(tmp_path)
    a = store.path_for(EvaluationEngine(application, profile))
    b = store.path_for(EvaluationEngine(fig3_application(), fig3_profile()))
    assert a != b


# ----------------------------------------------------------------------
# single-flight guard (one computer per context across concurrent jobs)
# ----------------------------------------------------------------------
def _lock_path(store: DesignPointStore, engine: EvaluationEngine) -> Path:
    return store.directory / f"{store.context_key(engine)}.lock"


def test_single_flight_leader_holds_and_releases_the_lock(tmp_path, context):
    application, profile = context
    store = DesignPointStore(tmp_path)
    engine = EvaluationEngine(application, profile)
    with store.single_flight(engine) as leader:
        assert leader is True
        assert _lock_path(store, engine).exists()
    assert not _lock_path(store, engine).exists()
    assert store.stats.single_flight_leads == 1
    assert store.stats.single_flight_waits == 0


def test_single_flight_releases_the_lock_when_the_body_raises(tmp_path, context):
    application, profile = context
    store = DesignPointStore(tmp_path)
    engine = EvaluationEngine(application, profile)
    with pytest.raises(RuntimeError):
        with store.single_flight(engine):
            raise RuntimeError("leader died mid-flight")
    assert not _lock_path(store, engine).exists()


def test_single_flight_follower_waits_until_the_leader_releases(tmp_path, context):
    import threading
    import time as time_module

    application, profile = context
    store = DesignPointStore(tmp_path)
    engine = EvaluationEngine(application, profile)
    lock = _lock_path(store, engine)
    lock.write_text("12345")  # a live foreign leader

    def release():
        time_module.sleep(0.3)
        lock.unlink()

    thread = threading.Thread(target=release)
    thread.start()
    start = time_module.monotonic()
    with store.single_flight(engine) as leader:
        waited = time_module.monotonic() - start
        assert leader is False
    thread.join()
    assert waited >= 0.25
    assert store.stats.single_flight_waits == 1
    # A follower never deletes the leader's lock on exit.
    assert not lock.exists()


def test_single_flight_breaks_stale_locks(tmp_path, context):
    application, profile = context
    store = DesignPointStore(tmp_path)
    engine = EvaluationEngine(application, profile)
    lock = _lock_path(store, engine)
    lock.write_text("12345")
    ancient = os.path.getmtime(lock) - 10_000.0
    os.utime(lock, (ancient, ancient))
    with store.single_flight(engine, stale_after=600.0) as leader:
        # The orphaned lock of a dead leader is broken and the caller
        # proceeds (as a follower — at worst it recomputes).
        assert leader is False
    assert not lock.exists()


def test_single_flight_timeout_bounds_the_wait(tmp_path, context):
    import time as time_module

    application, profile = context
    store = DesignPointStore(tmp_path)
    engine = EvaluationEngine(application, profile)
    lock = _lock_path(store, engine)
    lock.write_text("12345")  # never released
    start = time_module.monotonic()
    with store.single_flight(engine, timeout=0.2) as leader:
        assert leader is False
    assert time_module.monotonic() - start < 5.0
    assert lock.exists()  # fresh foreign lock is left alone
    lock.unlink()


def test_single_flight_follower_serves_the_leaders_points_from_disk(tmp_path, context):
    """The serve-layer contract: follower warms after the leader's persist."""
    application, profile = context
    store = DesignPointStore(tmp_path)
    leader_engine = _engine_with_entries(context)
    with store.single_flight(leader_engine) as leader:
        assert leader is True
        store.persist(leader_engine)

    follower_engine = EvaluationEngine(application, profile)
    follower_store = DesignPointStore(tmp_path)
    with follower_store.single_flight(follower_engine):
        loaded = follower_store.warm(follower_engine)
    assert loaded > 0
    assert _optimize(follower_engine, MAPPINGS[2]) == _optimize(leader_engine, MAPPINGS[2])
    assert follower_engine.optimizations.stats.misses == 0


# ----------------------------------------------------------------------
# directory stats and lock-file hygiene
# ----------------------------------------------------------------------
def test_directory_stats_counts_persisted_files_only(tmp_path, context):
    store = DesignPointStore(tmp_path)
    assert store.directory_stats() == {
        "files": 0,
        "bytes": 0,
        "max_bytes": store.max_bytes,
    }
    engine = _engine_with_entries(context)
    store.persist(engine)
    (tmp_path / "in-flight.tmp").write_bytes(b"x" * 64)
    (tmp_path / "abc.lock").write_text("123")
    stats = store.directory_stats()
    assert stats["files"] == 1
    assert stats["bytes"] == store.path_for(engine).stat().st_size
    assert stats["max_bytes"] == store.max_bytes


def test_eviction_never_touches_lock_files(tmp_path, context):
    store = DesignPointStore(tmp_path, max_bytes=1)  # evict everything
    lock = tmp_path / "deadbeef.lock"
    lock.write_text("123")
    engine = _engine_with_entries(context)
    store.persist(engine)
    # The freshly written file is exempt; a second persist of a different
    # cap-busting store must still leave the lock alone.
    assert lock.exists()
