"""Job queue semantics of repro.serve: validation, backpressure, specs."""

from __future__ import annotations

import asyncio
import pickle

import pytest

from repro.core.exceptions import ModelError
from repro.serve.jobs import Job, JobManager, ServeConfig
from repro.serve.progress import iter_new_lines
from repro.serve.protocol import HttpError


def _manager(tmp_path, **overrides) -> JobManager:
    """A started-but-consumerless manager: submissions queue, nothing runs.

    start() spins up the process pool, which these tests never need — the
    spool/store directories and the queue are enough to exercise
    validation and backpressure, so the private fields are seeded directly.
    """
    config = ServeConfig(spool_dir=tmp_path / "spool", **overrides)
    manager = JobManager(config)
    manager._spool_dir = config.spool_dir
    manager._spool_dir.mkdir(parents=True, exist_ok=True)
    manager._store_dir = config.spool_dir / "store"
    manager._store_dir.mkdir(parents=True, exist_ok=True)
    manager._queue = asyncio.Queue(maxsize=config.queue_size)
    return manager


# ----------------------------------------------------------------------
# ServeConfig validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"workers": 0},
        {"queue_size": 0},
        {"job_timeout_seconds": 0.0},
        {"job_timeout_seconds": -1.0},
    ],
)
def test_serve_config_rejects_degenerate_values(kwargs):
    with pytest.raises(ModelError):
        ServeConfig(**kwargs)


# ----------------------------------------------------------------------
# submission validation (all 400s happen at submit time, never later)
# ----------------------------------------------------------------------
def test_submit_validates_scenario_config_and_params(tmp_path):
    manager = _manager(tmp_path)
    for payload in [
        {},  # no scenario
        {"scenario": 7},  # wrong type
        {"scenario": "no-such-scenario"},
        {"scenario": "fig6a", "config": "not-a-dict"},
        {"scenario": "fig6a", "config": {"bogus_field": 1}},
        {"scenario": "fig6a", "config": {"preset": "no-such-preset"}},
        {"scenario": "fig6a", "config": {"sfp_kernel": "auto"}},
        # fig6a declares no parameters, so any override is out of schema.
        {"scenario": "fig6a", "config": {"scenario_params": {"x": 1}}},
        # A family parameter outside its declared bounds.
        {"scenario": "synthetic-random", "config": {"scenario_params": {"n_processes": -3}}},
    ]:
        with pytest.raises(HttpError) as info:
            manager.submit(payload)
        assert info.value.status == 400
    assert manager.jobs == {}


def test_submit_enqueues_and_spools_the_queued_event(tmp_path):
    manager = _manager(tmp_path)
    job = manager.submit({"scenario": "fig6a", "config": {"preset": "fast"}})
    assert job.job_id == "job-000000"
    assert job.state == "queued"
    assert manager.queue_position(job) == 0
    # The server owns persistence: the shared store is forced in.
    assert job.config.cache_dir == manager.store_dir
    assert job.config.output is None
    lines, _ = iter_new_lines(job.events_path, 0)
    events = [__import__("json").loads(line) for line in lines]
    assert [event["event"] for event in events] == ["job_queued"]
    assert events[0]["queue_position"] == 0


def test_submit_applies_backpressure_with_retry_after(tmp_path):
    manager = _manager(tmp_path, queue_size=2, job_timeout_seconds=30.0)
    payload = {"scenario": "fig6a", "config": {"preset": "fast"}}
    manager.submit(payload)
    manager.submit(payload)
    with pytest.raises(HttpError) as info:
        manager.submit(payload)
    assert info.value.status == 429
    assert info.value.retry_after == 30
    # The rejected job never entered the registry.
    assert len(manager.jobs) == 2


def test_queue_positions_are_fifo_and_cleared_once_running(tmp_path):
    manager = _manager(tmp_path)
    payload = {"scenario": "fig6a", "config": {}}
    first = manager.submit(payload)
    second = manager.submit(payload)
    assert manager.queue_position(first) == 0
    assert manager.queue_position(second) == 1
    first.state = "running"
    assert manager.queue_position(first) is None
    assert manager.queue_position(second) == 0


def test_get_unknown_job_is_a_404(tmp_path):
    manager = _manager(tmp_path)
    with pytest.raises(HttpError) as info:
        manager.get("job-999999")
    assert info.value.status == 404


# ----------------------------------------------------------------------
# the pool-boundary spec contract (R006 by construction)
# ----------------------------------------------------------------------
def test_job_spec_is_scalar_and_picklable(tmp_path):
    manager = _manager(tmp_path)
    job = manager.submit(
        {
            "scenario": "synthetic-random",
            "config": {"preset": "fast", "scenario_params": {"n_processes": 20, "seed": 3}},
        }
    )
    spec = job.spec()
    # Picklable by construction — and round-trips without loss.
    assert pickle.loads(pickle.dumps(spec)) == spec
    # Nothing but JSON-native scalars/containers crosses the boundary.
    import json

    assert json.loads(json.dumps(spec)) == spec
    assert spec["single_flight"] is True
    assert spec["config"]["cache_dir"] == str(manager.store_dir)


def test_state_counts_cover_every_state(tmp_path):
    manager = _manager(tmp_path)
    payload = {"scenario": "fig6a", "config": {}}
    jobs = [manager.submit(payload) for _ in range(4)]
    jobs[1].state = "running"
    jobs[2].state = "done"
    jobs[3].state = "failed"
    assert manager.state_counts() == {
        "queued": 1,
        "running": 1,
        "done": 1,
        "failed": 1,
    }


def test_describe_reports_the_lifecycle_record(tmp_path):
    manager = _manager(tmp_path)
    job = manager.submit({"scenario": "fig6a", "config": {}})
    record = job.describe(queue_position=0)
    assert record["id"] == job.job_id
    assert record["scenario"] == "fig6a"
    assert record["state"] == "queued"
    assert record["queue_position"] == 0
    assert record["error"] is None
    assert record["config"]["cache_dir"] == str(manager.store_dir)
