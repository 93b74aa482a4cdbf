"""End-to-end HTTP tests of repro.serve: jobs, streams, shared warm store.

A real :class:`ServeApp` runs on an ephemeral port in a background thread
with its own event loop; tests talk to it through ``http.client`` exactly
like an external consumer.  The expensive contracts live here:

* the report returned over HTTP for the fast-preset ``fig6a`` job is
  byte-identical to the committed golden fixture;
* two concurrent jobs with the *same* context fingerprint share the warm
  store single-flight — the second job computes zero design points;
* N concurrent jobs with *distinct* contexts return payloads byte-identical
  to sequential in-process runs of the same configs;
* backpressure (429 + Retry-After) and the per-job timeout.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

from repro import api
from repro.serve import ServeApp, ServeConfig

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

#: Fixed size/seed of the synthetic-random jobs used below: big enough for
#: a non-trivial DSE trajectory, small enough to keep the suite fast.
RANDOM_PARAMS = {"n_processes": 30, "seed": 11}


@contextlib.contextmanager
def serve_app(tmp_path, **overrides):
    """A live server on an ephemeral port; yields ``(host, port, app)``."""
    overrides.setdefault("spool_dir", tmp_path / "serve")
    config = ServeConfig(host="127.0.0.1", port=0, **overrides)
    app = ServeApp(config)
    ready = threading.Event()
    bound = {}
    loop = asyncio.new_event_loop()
    state = {}

    def on_ready(host: str, port: int) -> None:
        bound["host"], bound["port"] = host, port
        ready.set()

    def runner() -> None:
        asyncio.set_event_loop(loop)
        state["task"] = loop.create_task(app.run(ready=on_ready))
        try:
            loop.run_until_complete(state["task"])
        except asyncio.CancelledError:
            pass
        finally:
            loop.close()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(timeout=30.0), "server did not come up"
    try:
        yield bound["host"], bound["port"], app
    finally:
        loop.call_soon_threadsafe(state["task"].cancel)
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "server thread did not shut down"


def _request(host, port, method, path, body=None, timeout=60.0):
    connection = HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(
            method, path, body=json.dumps(body) if body is not None else None
        )
        response = connection.getresponse()
        payload = response.read()
        return response.status, dict(response.getheaders()), payload
    finally:
        connection.close()


def _submit(host, port, scenario, config=None):
    status, headers, payload = _request(
        host, port, "POST", "/jobs", {"scenario": scenario, "config": config or {}}
    )
    assert status == 202, payload
    record = json.loads(payload)
    assert headers["Location"] == f"/jobs/{record['id']}"
    return record["id"]


def _stream_events(host, port, job_id, timeout=300.0):
    """Read the job's NDJSON stream to its terminal event."""
    connection = HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", f"/jobs/{job_id}/events")
        response = connection.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        raw = response.read()  # server closes after the terminal event
    finally:
        connection.close()
    return [json.loads(line) for line in raw.decode("utf-8").splitlines()]


def _wait_done(host, port, job_id, timeout=300.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, payload = _request(host, port, "GET", f"/jobs/{job_id}")
        assert status == 200
        record = json.loads(payload)
        if record["state"] in ("done", "failed"):
            return record
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


# ----------------------------------------------------------------------
# the full happy path, byte-identical to the golden fixture
# ----------------------------------------------------------------------
def test_fig6a_job_over_http_matches_the_golden_report(tmp_path):
    golden = json.loads((GOLDEN_DIR / "fig6a_fast.json").read_text())
    with serve_app(tmp_path, workers=1) as (host, port, _app):
        status, _, payload = _request(host, port, "GET", "/scenarios")
        assert status == 200
        scenarios = {spec["id"]: spec for spec in json.loads(payload)["scenarios"]}
        assert "fig6a" in scenarios
        assert any(
            param["name"] == "n_processes"
            for param in scenarios["synthetic-random"]["params"]
        )

        job_id = _submit(host, port, "fig6a", {"preset": "fast"})
        events = _stream_events(host, port, job_id)
        names = [event["event"] for event in events]
        assert names[0] == "job_queued"
        assert names[1] == "job_started"
        assert names[2] == "scenario_started"
        assert names[-2] == "scenario_finished"
        assert names[-1] == "job_done"
        progress = [event for event in events if event["event"] == "setting_progress"]
        assert progress, "no per-round progress events streamed"
        # Each snapshot carries the engine cache counters of the round.
        for event in progress:
            assert {"hits", "misses", "points_computed", "completed", "total"} <= set(event)
        assert progress[-1]["completed"] == progress[-1]["total"]

        record = _wait_done(host, port, job_id)
        assert record["state"] == "done"
        # Byte-identity against the committed golden (the fixture *is* the
        # results payload): same contract as scripts/diff_report_golden.py.
        assert json.dumps(record["report"]["results"], sort_keys=True) == json.dumps(
            golden, sort_keys=True
        )

        status, _, payload = _request(host, port, "GET", "/healthz")
        health = json.loads(payload)
        assert health["status"] == "ok"
        assert health["jobs"]["done"] == 1
        assert health["store"]["files"] >= 1  # the job persisted its contexts


# ----------------------------------------------------------------------
# shared warm store: single-flight across concurrent identical jobs
# ----------------------------------------------------------------------
def test_concurrent_identical_jobs_compute_each_point_once(tmp_path):
    with serve_app(tmp_path, workers=2) as (host, port, _app):
        config = {"scenario_params": dict(RANDOM_PARAMS)}
        first = _submit(host, port, "synthetic-random", config)
        second = _submit(host, port, "synthetic-random", config)
        records = [_wait_done(host, port, job_id) for job_id in (first, second)]
        assert [record["state"] for record in records] == ["done", "done"]
        payloads = [
            json.dumps(record["report"]["results"], sort_keys=True)
            for record in records
        ]
        assert payloads[0] == payloads[1]
        computed = sorted(
            record["report"]["cache"]["points_computed"] for record in records
        )
        # Single-flight: the follower warm-loads the leader's persisted
        # entries and computes *nothing*; only one job paid the cold cost.
        assert computed[0] == 0
        assert computed[1] > 0
        follower = next(
            record
            for record in records
            if record["report"]["cache"]["points_computed"] == 0
        )
        assert follower["report"]["cache"]["disk_entries_loaded"] > 0


def test_parallel_distinct_jobs_match_sequential_runs_byte_for_byte(tmp_path):
    seeds = (3, 5, 9)
    with serve_app(tmp_path, workers=3) as (host, port, _app):
        job_ids = [
            _submit(
                host,
                port,
                "synthetic-random",
                {"scenario_params": {"n_processes": 25, "seed": seed}},
            )
            for seed in seeds
        ]
        records = [_wait_done(host, port, job_id) for job_id in job_ids]
    assert all(record["state"] == "done" for record in records)
    for seed, record in zip(seeds, records):
        sequential = api.run(
            "synthetic-random",
            api.RunConfig(scenario_params={"n_processes": 25, "seed": seed}),
        )
        assert json.dumps(record["report"]["results"], sort_keys=True) == json.dumps(
            sequential.results, sort_keys=True
        )


# ----------------------------------------------------------------------
# backpressure and timeouts
# ----------------------------------------------------------------------
def test_full_queue_returns_429_with_retry_after(tmp_path):
    with serve_app(
        tmp_path, workers=1, queue_size=1, job_timeout_seconds=120.0
    ) as (host, port, _app):
        config = {"preset": "fast"}
        # Saturate: one job running (dequeued), then fill the single queue
        # slot, then overflow.  The first submission may still sit in the
        # queue for a beat, so allow one extra attempt before asserting.
        _submit(host, port, "fig6a", config)
        statuses = []
        for _ in range(3):
            status, headers, payload = _request(
                host, port, "POST", "/jobs", {"scenario": "fig6a", "config": config}
            )
            statuses.append(status)
            if status == 429:
                assert headers["Retry-After"] == "120"
                record = json.loads(payload)
                assert record["status"] == 429
                break
        assert 429 in statuses


def test_job_timeout_records_a_failed_job(tmp_path):
    with serve_app(tmp_path, workers=1, job_timeout_seconds=0.2) as (
        host,
        port,
        _app,
    ):
        job_id = _submit(host, port, "fig6a", {"preset": "fast"})
        record = _wait_done(host, port, job_id)
        assert record["state"] == "failed"
        assert "timed out" in record["error"]
        events = _stream_events(host, port, job_id)
        assert events[-1]["event"] == "job_failed"


# ----------------------------------------------------------------------
# sanitized worker path
# ----------------------------------------------------------------------
def test_sanitized_serve_worker_stays_silent_and_correct(tmp_path):
    golden = json.loads((GOLDEN_DIR / "fig6a_fast.json").read_text())
    with serve_app(tmp_path, workers=1, sanitize=True) as (host, port, _app):
        job_id = _submit(host, port, "fig6a", {"preset": "fast"})
        record = _wait_done(host, port, job_id)
        # A sanitizer violation would fail the job (the worker raises); a
        # clean run must stay done AND byte-identical.
        assert record["state"] == "done", record["error"]
        assert json.dumps(record["report"]["results"], sort_keys=True) == json.dumps(
            golden, sort_keys=True
        )


def test_unknown_routes_and_methods(tmp_path):
    with serve_app(tmp_path, workers=1) as (host, port, _app):
        assert _request(host, port, "GET", "/nope")[0] == 404
        assert _request(host, port, "POST", "/scenarios", {})[0] == 405
        assert _request(host, port, "GET", "/jobs/job-404404")[0] == 404
        assert _request(host, port, "GET", "/jobs/job-404404/events")[0] == 404
