"""The ``serve-mix`` workload: a closed loop against a live ``repro.serve``.

The harness starts ``python -m repro.cli serve --workers 2`` on an ephemeral
port with a fresh spool directory, in its own session so every process it
forks can be found again.  Two client threads each submit a fixed repeating
sequence of fast-preset Fig. 6 jobs and wait for each job's terminal record
before sending the next.  A job is timed from ``POST /jobs`` until the
``GET /jobs/<id>`` record in state ``done`` has been read.

Before the measured window, both clients run the whole sequence once in
lockstep: the shared store fills, and identical concurrent contexts go
through the store's single-flight lock.  The measured jobs then run against
a warm store, as a long-lived server does.

Each job's results payload is compared with an in-process run of the same
scenario.  Every request has a timeout, so a hang counts as a failed
operation.  The server is stopped with SIGINT; any process of its session
still alive afterwards fails the run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from http.client import HTTPConnection
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import calibrate
from inproc import median, p90

#: Jobs each client cycles through.  Fig. 6a and 6b read 24 store contexts,
#: Fig. 6c and 6d 18; weighting the 24-context jobs keeps the latency
#: median inside one mode of the mix.
SEQUENCE = ("fig6a", "fig6b", "fig6c", "fig6a", "fig6b", "fig6d")
SCENARIOS = ("fig6a", "fig6b", "fig6c", "fig6d")
CLIENTS = 2
WORKERS = 2
#: Server launches per run; the median launch-to-healthy time is setup_s.
LAUNCHES = 5
REQUEST_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class ServeError(RuntimeError):
    """The server could not be started or stopped cleanly."""


def _request(port: int, method: str, path: str, body: Optional[Dict[str, Any]] = None,
             timeout: float = REQUEST_TIMEOUT_S) -> Tuple[int, bytes]:
    connection = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request(method, path, body=json.dumps(body) if body is not None else None)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------
def _session_members(sid: int) -> List[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("ascii", "replace")
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        # fields[0] is the state, fields[3] the session id.
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.append(int(entry))
    return members


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """One ``repro.cli serve`` process and the processes it forks."""

    def __init__(self, root: Path, work_dir: Path) -> None:
        self.spool = Path(tempfile.mkdtemp(prefix="spool-", dir=work_dir))
        self.log = self.spool.parent / f"{self.spool.name}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.started = perf_counter()
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--workers", str(WORKERS),
                 "--port", "0", "--spool-dir", str(self.spool)],
                cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.port = 0
        self.setup_s = 0.0

    def wait_healthy(self, timeout: float = 60.0) -> None:
        """Learn the ephemeral port from the log, then poll ``/healthz``."""
        deadline = self.started + timeout
        marker = "listening on http://"
        while not self.port:
            if perf_counter() > deadline or self.process.poll() is not None:
                raise ServeError(f"server did not announce its port: {self._tail()}")
            text = self.log.read_text(encoding="utf-8", errors="replace")
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
            else:
                time.sleep(0.002)
        while True:
            try:
                status, _ = _request(self.port, "GET", "/healthz", timeout=5.0)
            except OSError:
                status = 0
            if status == 200:
                self.setup_s = perf_counter() - self.started
                return
            if perf_counter() > deadline or self.process.poll() is not None:
                raise ServeError(f"/healthz never returned 200: {self._tail()}")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        """Largest peak resident set among the pool workers."""
        workers = [pid for pid in _session_members(self.process.pid)
                   if pid != self.process.pid]
        return max((_peak_rss_mb(pid) for pid in workers), default=0.0)

    def stop(self) -> None:
        """SIGINT, wait, and fail if any process of the session survives."""
        sid = self.process.pid
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        deadline = perf_counter() + 5.0
        survivors = _session_members(sid)
        while survivors and perf_counter() < deadline:
            time.sleep(0.05)
            survivors = _session_members(sid)
        if survivors or self.process.poll() is None:
            self.kill()
            raise ServeError(f"processes still alive after SIGINT: {survivors}")

    def kill(self) -> None:
        """Last-resort clean-up: SIGKILL the whole session and reap."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except OSError:
            pass
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass

    def _tail(self) -> str:
        try:
            return self.log.read_text(encoding="utf-8", errors="replace")[-2000:]
        except OSError:
            return ""


# ----------------------------------------------------------------------
# clients
# ----------------------------------------------------------------------
class Job:
    """One closed-loop job as the client saw it."""

    def __init__(self, scenario: str) -> None:
        self.scenario = scenario
        self.latency_s = 0.0
        self.http_s = 0.0
        self.record: Dict[str, Any] = {}
        self.refused = False
        #: Wall-clock to reference-seconds factor (see ``calibrate``).
        self.scale = 1.0
        self.error: Optional[str] = None


def run_job(port: int, scenario: str) -> Job:
    """Submit, follow the NDJSON feed to its terminal event, fetch the record."""
    job = Job(scenario)
    start = perf_counter()
    try:
        status, body = _request(port, "POST", "/jobs",
                                {"scenario": scenario, "config": {"preset": "fast"}})
        submitted = perf_counter()
        if status == 429:
            job.refused = True
            job.error = "refused with 429"
            return job
        if status != 202:
            job.error = f"POST /jobs returned {status}"
            return job
        job_id = json.loads(body)["id"]
        terminal = _follow_events(port, job_id)
        fetch = perf_counter()
        status, body = _request(port, "GET", f"/jobs/{job_id}")
        end = perf_counter()
    except (OSError, ValueError, KeyError) as error:
        job.error = f"{type(error).__name__}: {error}"
        return job
    job.latency_s = end - start
    job.http_s = (submitted - start) + (end - fetch)
    if status != 200:
        job.error = f"GET /jobs/{job_id} returned {status}"
        return job
    job.record = json.loads(body)
    if terminal != "job_done" or job.record.get("state") != "done":
        job.error = f"job ended {terminal!r} in state {job.record.get('state')!r}"
    return job


def _follow_events(port: int, job_id: str) -> str:
    connection = HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    terminal = ""
    try:
        connection.request("GET", f"/jobs/{job_id}/events")
        response = connection.getresponse()
        if response.status != 200:
            return f"events returned {response.status}"
        for line in response:  # the server closes after the terminal event
            if line.strip():
                terminal = json.loads(line).get("event", "")
    finally:
        connection.close()
    return terminal


def _client(port: int, sequence: Tuple[str, ...], offset: int,
            deadline: Optional[float], jobs: List[Job], samples: List[float]) -> None:
    """Closed loop over ``sequence``: until the deadline, or once through.

    A calibration sample is taken between jobs, while this client has none
    in flight.  One sample shares the machine with whatever part of the
    other client's job happens to run, so the run's median sample scales
    every job of the run.
    """
    index = offset
    samples.append(calibrate.sample())
    while True:
        jobs.append(run_job(port, sequence[index % len(sequence)]))
        samples.append(calibrate.sample())
        index += 1
        if deadline is None:
            if index - offset == len(sequence):
                return
        elif perf_counter() >= deadline:
            return


def _drive(port: int, sequence: Tuple[str, ...], offsets: List[int],
           deadline: Optional[float]) -> Tuple[List[Job], float]:
    """Run one client per offset; returns their jobs and the wall clock."""
    per_client: List[List[Job]] = [[] for _ in offsets]
    samples: List[float] = []
    threads = [
        threading.Thread(target=_client,
                         args=(port, sequence, offset, deadline, jobs, samples),
                         daemon=True)
        for offset, jobs in zip(offsets, per_client)
    ]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - start
    jobs = [job for client_jobs in per_client for job in client_jobs]
    for job in jobs:
        job.scale = calibrate.scale(samples)
    return jobs, elapsed


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def _reference_results() -> Tuple[Dict[str, str], float]:
    """In-process results of every scenario, and the design points they need.

    One session runs them all, so each distinct context is computed once:
    the count the server's single-flight store must match.
    """
    from repro.api import RunConfig, Session

    expected = {}
    with Session(RunConfig(preset="fast")) as session:
        for scenario in SCENARIOS:
            expected[scenario] = json.dumps(session.run(scenario).results, sort_keys=True)
        points = session.cache_report()["points_computed"]
    return expected, points


class ServeOutcome:
    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.warm_up: List[Job] = []
        self.measured: List[Job] = []
        self.elapsed_s = 0.0
        self.peak_rss_mb = 0.0
        self.errors: List[str] = []

    @property
    def attempted(self) -> int:
        return len(self.warm_up) + len(self.measured)

    @property
    def failed(self) -> int:
        return sum(1 for job in self.warm_up + self.measured if job.error is not None)


def _check(jobs: List[Job], expected: Dict[str, str]) -> None:
    for job in jobs:
        if job.error is None:
            report = job.record.get("report") or {}
            if json.dumps(report.get("results"), sort_keys=True) != expected[job.scenario]:
                job.error = "results payload differs from the in-process run"


def _points_computed(jobs: List[Job]) -> float:
    return sum(job.record["report"]["cache"]["points_computed"]
               for job in jobs if job.error is None)


def _check_counters(jobs: List[Job], errors: List[str]) -> None:
    """Warm jobs compute nothing, and their counters repeat per scenario."""
    seen: Dict[str, Dict[str, float]] = {}
    for job in jobs:
        if job.error is not None:
            continue
        cache = job.record["report"]["cache"]
        counters = {key: cache[key] for key in
                    ("points_computed", "misses", "disk_hits", "disk_entries_loaded")}
        if counters["points_computed"]:
            job.error = f"warm job computed {counters['points_computed']} points"
        elif seen.setdefault(job.scenario, counters) != counters:
            job.error = f"counters {counters} != earlier {seen[job.scenario]}"
    if not seen:
        errors.append("no measured job succeeded")


def run_serve_mix(root: Path, work_dir: Path, seconds: float) -> ServeOutcome:
    outcome = ServeOutcome()
    expected, points = _reference_results()
    server = None
    try:
        for _ in range(LAUNCHES):
            if server is not None:
                stopping, server = server, None
                stopping.stop()
            before = calibrate.sample()
            server = Server(root, work_dir)
            server.wait_healthy()
            after = calibrate.sample()
            outcome.setup_s.append(server.setup_s * calibrate.scale([before, after]))
        # Both clients run every scenario once, in the same order, so that
        # identical contexts meet at the single-flight lock.
        outcome.warm_up, _ = _drive(server.port, SCENARIOS, [0] * CLIENTS, None)
        offsets = [client * len(SEQUENCE) // CLIENTS for client in range(CLIENTS)]
        outcome.measured, outcome.elapsed_s = _drive(
            server.port, SEQUENCE, offsets, perf_counter() + seconds
        )
        outcome.peak_rss_mb = server.peak_rss_mb()
        stopping, server = server, None
        stopping.stop()
    except ServeError as error:
        outcome.errors.append(str(error))
    finally:
        if server is not None:
            server.kill()
    _check(outcome.warm_up + outcome.measured, expected)
    _check_counters(outcome.measured, outcome.errors)
    computed = _points_computed(outcome.warm_up + outcome.measured)
    if not outcome.failed and computed != points:
        outcome.errors.append(
            f"the server computed {computed} design points, the distinct contexts "
            f"need {points}: single-flight let a context be computed twice"
        )
    outcome.errors.extend(job.error for job in outcome.warm_up + outcome.measured
                          if job.error is not None)
    return outcome


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _job_times(job: Job) -> Tuple[float, float]:
    """Queue wait and execution from the server's record, in reference seconds."""
    record = job.record
    return ((record["started_at"] - record["created_at"]) * job.scale,
            (record["finished_at"] - record["started_at"]) * job.scale)


def end_to_end(outcome: ServeOutcome) -> Dict[str, float]:
    """Times in reference seconds (see ``calibrate``)."""
    good = [job for job in outcome.measured if job.error is None]
    latencies = [job.latency_s * job.scale for job in good]
    return {
        "run_s": median([_job_times(job)[1] for job in good]),
        "job_latency_p50_s": median(latencies),
        "jobs_per_s": (len(good) / (outcome.elapsed_s * good[0].scale)
                       if good else 0.0),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def per_layer(outcome: ServeOutcome) -> Dict[str, float]:
    good = [job for job in outcome.measured if job.error is None]
    waits = [_job_times(job)[0] for job in good]
    execs = [_job_times(job)[1] for job in good]
    latencies = [job.latency_s * job.scale for job in good]
    metrics: Dict[str, float] = {
        # About a dozen jobs per run: too few beyond a p90 to gate it.
        "job_latency_p90_s": p90(latencies),
        "serve.queue_wait_s": median(waits),
        "serve.exec_s": median(execs),
        "serve.http_s": median([job.http_s * job.scale for job in good]),
        "serve.refused": sum(1 for job in outcome.warm_up + outcome.measured if job.refused),
        "serve.points_computed": _points_computed(outcome.warm_up + outcome.measured),
        "serve.disk_hits": sum(
            job.record["report"]["cache"]["disk_hits"]
            for job in outcome.warm_up if job.error is None
        ),
        # Client latency not spent in the POST, the final GET, the queue or
        # the worker: the delay of the NDJSON feed reporting the end.
        "unattributed_s": median([
            (job.latency_s - job.http_s) * job.scale - wait - run
            for job, wait, run in zip(good, waits, execs)
        ]),
        # Nothing is wrapped in this workload: its layer numbers come from
        # the job records and the client's own clock.
        "trace_overhead_s": 0.0,
    }
    # One cycle of the sequence, counted from the (exactly repeating) warm jobs.
    per_scenario: Dict[str, Dict[str, float]] = {}
    for job in good:
        per_scenario.setdefault(job.scenario, job.record["report"]["cache"])
    for key in ("hits", "misses", "points_computed", "search_evaluations", "disk_hits"):
        metrics[f"cache.{key}"] = sum(
            per_scenario.get(scenario, {}).get(key, 0) for scenario in SEQUENCE
        )
    rows = sum(per_scenario.get(s, {}).get("batch_rows", 0) for s in SEQUENCE)
    cold = sum(per_scenario.get(s, {}).get("batch_cold_rows", 0) for s in SEQUENCE)
    metrics["cache.batch_fill_rate"] = cold / rows if rows else 0.0
    loaded = sum(per_scenario.get(s, {}).get("disk_entries_loaded", 0) for s in SEQUENCE)
    metrics["store.read.entries"] = loaded
    metrics["store.read.useful"] = metrics["cache.disk_hits"] / loaded if loaded else 0.0
    return metrics
