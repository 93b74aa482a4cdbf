"""In-process workloads: scenario runs through ``repro.api.Session``.

``fig6a-cold``, ``fig6a-warm`` and ``random-n400`` each repeat one scenario
run for the measuring window.  A repetition is one *job* as a caller of the
public API sees it: build a ``Session``, run the scenario, serialize the
``RunReport``.  ``run_s`` times ``Session.run`` alone.

Every repetition is checked before its time is kept: the results payload
against its reference and the exact work counters against the first
repetition.  A repetition that fails either check is counted as failed and
its time is dropped.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import calibrate
from tracer import Tracer

#: ``RunReport.cache`` counters that must repeat exactly run over run.
EXACT_COUNTERS = (
    "points_computed",
    "misses",
    "hits",
    "search_evaluations",
    "disk_hits",
    "disk_entries_loaded",
)

#: Layers whose wrappers must fire (nonzero calls) on each workload.  A
#: refactor that renames or moves a wrapped function zeroes its layer and
#: fails the traced run instead of silently shrinking the layer map.
EXPECTED_LAYERS = {
    "fig6a-cold": (
        "generator", "platform", "fingerprint", "store.read", "store.write",
        "explore", "mapping", "redundancy", "reexecution", "sfp", "sched", "report",
    ),
    "fig6a-warm": (
        "generator", "platform", "fingerprint", "store.read", "store.write",
        "explore", "mapping", "redundancy", "report",
    ),
    "random-n400": (
        "generator", "platform", "explore", "mapping", "redundancy",
        "reexecution", "sfp", "sched", "report",
    ),
}


# ----------------------------------------------------------------------
# layer wrapping
# ----------------------------------------------------------------------
def _count_edges(tracer: Tracer, args: Any, result: Any, token: Any) -> None:
    tracer.counts["generator.edges"] += len(result.application.messages())


def _store_file(store: Any, engine: Any) -> Path:
    return Path(store.path_for(engine))


def _after_read(tracer: Tracer, args: Any, result: int, token: Any) -> None:
    tracer.counts["store.read.entries"] += result
    if result:
        tracer.counts["store.read.bytes"] += _store_file(*args[:2]).stat().st_size


def _digest(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _before_write(tracer: Tracer, args: Any) -> Optional[str]:
    return _digest(_store_file(*args[:2]))


def _after_write(tracer: Tracer, args: Any, result: int, token: Optional[str]) -> None:
    if not result:
        return
    path = _store_file(*args[:2])
    tracer.counts["store.write.entries"] += result
    tracer.counts["store.write.bytes"] += path.stat().st_size
    tracer.counts["store.write.files"] += 1
    if _digest(path) != token:
        tracer.counts["store.write.changed"] += 1


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every in-process layer."""
    from repro.api.report import RunReport
    from repro.core.design_strategy import DesignStrategy
    from repro.core.mapping import MappingAlgorithm
    from repro.core.redundancy import FixedHardeningRedundancyOpt, RedundancyOpt
    from repro.core.reexecution import ReExecutionOpt
    from repro.engine.store import DesignPointStore
    from repro.kernels.base import SFPKernel
    from repro.kernels.sched_base import SchedulerKernel

    generator = "repro.generator.benchmark"
    tracer.patch_function("generator", generator, "generate_benchmark", after=_count_edges)
    tracer.patch_function("generator", generator, "generate_benchmark_suite")
    tracer.patch_function("platform", generator, "build_platform")
    tracer.patch_function("fingerprint", "repro.engine.engine", "stable_context_fingerprint")
    tracer.patch_method("store.read", DesignPointStore, "warm", after=_after_read)
    tracer.patch_method(
        "store.write", DesignPointStore, "persist", before=_before_write, after=_after_write
    )
    tracer.patch_method("explore", DesignStrategy, "explore")
    tracer.patch_method("mapping", MappingAlgorithm, "optimize")
    for name in ("evaluate_hardening", "evaluate_hardening_batch", "optimize_batch"):
        tracer.patch_method("redundancy", RedundancyOpt, name)
    tracer.patch_method("redundancy", RedundancyOpt, "optimize")
    tracer.patch_method("redundancy", FixedHardeningRedundancyOpt, "optimize")
    for name in ("optimize", "optimize_many", "evaluate"):
        tracer.patch_method("reexecution", ReExecutionOpt, name)
    for name in ("probability_exceeds", "batch_probability_exceeds", "system_failure"):
        tracer.patch_method("sfp", SFPKernel, name)
    for name in ("build_schedule", "batch_schedule"):
        tracer.patch_method("sched", SchedulerKernel, name)
    tracer.patch_method("report", RunReport, "to_json")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


class Workload:
    """A panel of scenario runs (*cases*), their oracles and their set-up.

    A *pass* runs every case once; measuring windows end on a pass boundary
    so each case weighs the same in every median.
    """

    scenario = ""

    def __init__(self, root: Path, work_dir: Path, seed: int) -> None:
        self.root = root
        self.work_dir = work_dir
        self.seed = seed
        self.cases: List[int] = [0]
        self.expected: Dict[int, str] = {}

    def prepare(self) -> None:
        """Untimed set-up: build the oracles and any starting state."""

    def config(self, case: int) -> Any:
        raise NotImplementedError

    def release(self) -> None:
        """Untimed clean-up after one repetition."""


class Fig6aWorkload(Workload):
    """The fast-preset Fig. 6a sweep; the oracle is the golden fixture.

    The input is the published fast preset, so the seed changes nothing.
    """

    scenario = "fig6a"

    def prepare(self) -> None:
        golden = self.root / "tests" / "golden" / "fig6a_fast.json"
        self.expected[0] = _canonical(json.loads(golden.read_text(encoding="utf-8")))


class Fig6aCold(Fig6aWorkload):
    """Every repetition starts from an empty store directory."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self._store: Optional[Path] = None

    def config(self, case: int) -> Any:
        from repro.api import RunConfig

        self._store = Path(tempfile.mkdtemp(prefix="cold-", dir=self.work_dir))
        return RunConfig(preset="fast", cache_dir=self._store)

    def release(self) -> None:
        if self._store is not None:
            shutil.rmtree(self._store, ignore_errors=True)
            self._store = None


class Fig6aWarm(Fig6aWorkload):
    """Every repetition reads a store filled by one untimed cold run."""

    def prepare(self) -> None:
        from repro.api import RunConfig, Session

        super().prepare()
        self._store = self.work_dir / "warm-store"
        with Session(RunConfig(preset="fast", cache_dir=self._store)) as session:
            report = session.run(self.scenario)
        if _canonical(report.results) != self.expected[0]:
            raise RuntimeError("the cold run that fills the warm store diverges from golden")

    def config(self, case: int) -> Any:
        from repro.api import RunConfig

        return RunConfig(preset="fast", cache_dir=self._store)


#: Generated applications per random-n400 run.  The work of one 400-process
#: application varies with its seed (quartile spread near 20 % of the median
#: over seeds 1-20); a panel averages that down.  Each application needs
#: its own reference-kernel oracle (about 7 s of set-up), which bounds the
#: panel.
RANDOM_PANEL = 3


class RandomN400(Workload):
    """A panel of generated 400-process applications, no store.

    Application ``j`` of the run with seed ``s`` uses generator seed
    ``RANDOM_PANEL * s + j``.  Each oracle is the same run on the
    ``reference`` SFP and scheduler kernels, made once and untimed.
    """

    scenario = "synthetic-random"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.cases = [RANDOM_PANEL * self.seed + j for j in range(RANDOM_PANEL)]

    def _config(self, case: int, **kernels: str) -> Any:
        from repro.api import RunConfig

        return RunConfig(
            preset="fast",
            scenario_params={"n_processes": 400, "seed": case},
            **kernels,
        )

    def prepare(self) -> None:
        from repro.api import Session

        for case in self.cases:
            reference = self._config(case, sfp_kernel="reference", sched_kernel="reference")
            with Session(reference) as session:
                self.expected[case] = _canonical(session.run(self.scenario).results)

    def config(self, case: int) -> Any:
        return self._config(case)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "fig6a-cold": Fig6aCold,
    "fig6a-warm": Fig6aWarm,
    "random-n400": RandomN400,
}


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------
def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark at the current resident set."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Repetition:
    """Timings and counters of one checked scenario run."""

    def __init__(self, case: int) -> None:
        self.case = case
        self.run_s = 0.0
        self.job_s = 0.0
        self.counters: Dict[str, float] = {}
        self.cache: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.bookkeeping_s = 0.0
        #: Wall-clock to reference-seconds factor (see ``calibrate``).
        self.scale = 1.0
        self.peak_rss_mb = 0.0
        self.error: Optional[str] = None


def run_once(workload: Workload, case: int, tracer: Optional[Tracer]) -> Repetition:
    """One job: Session construction, ``Session.run``, ``RunReport.to_json``."""
    from repro.api import Session

    rep = Repetition(case)
    config = workload.config(case)
    gc.collect()
    if tracer is not None:
        tracer.reset()
    _reset_peak_rss()
    try:
        start = perf_counter()
        with Session(config) as session:
            before = perf_counter()
            report = session.run(workload.scenario)
            rep.run_s = perf_counter() - before
        report.to_json()
        rep.job_s = perf_counter() - start
    except Exception as error:  # noqa: BLE001 - a failed run is counted, not fatal
        rep.error = f"{type(error).__name__}: {error}"
        return rep
    finally:
        rep.peak_rss_mb = _peak_rss_mb()
        workload.release()
    if _canonical(report.results) != workload.expected[case]:
        rep.error = "results payload differs from the reference"
    rep.cache = dict(report.cache)
    rep.counters = {key: report.cache[key] for key in EXACT_COUNTERS}
    if tracer is not None:
        rep.layers = dict(tracer.self_s)
        rep.calls = dict(tracer.calls)
        rep.counts = dict(tracer.counts)
        rep.bookkeeping_s = tracer.bookkeeping_s
        rep.counters["sched.calls"] = tracer.calls["sched"]
    return rep


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Outcome:
    """Every repetition of a run plus the failures found checking them."""

    def __init__(self) -> None:
        self.warm_up: List[Repetition] = []
        self.plain: List[Repetition] = []
        self.traced: List[Repetition] = []
        self.errors: List[str] = []

    @property
    def every(self) -> List[Repetition]:
        return self.warm_up + self.plain + self.traced

    @property
    def attempted(self) -> int:
        return len(self.every)

    @property
    def failed(self) -> int:
        return sum(1 for rep in self.every if rep.error is not None)


#: Fewest passes of a measuring window: with one pass only, a slow machine
#: would give random-n400 one sample per application instead of two.
MIN_PASSES = 2


def _loop(workload: Workload, seconds: float, tracer: Optional[Tracer],
          into: List[Repetition]) -> None:
    """Whole passes over the cases until ``seconds`` and MIN_PASSES are met."""
    deadline = perf_counter() + seconds
    before = calibrate.sample()
    passes = 0
    while perf_counter() < deadline or passes < MIN_PASSES:
        passes += 1
        for case in workload.cases:
            rep = run_once(workload, case, tracer)
            after = calibrate.sample()
            rep.scale = calibrate.scale([before, after])
            before = after
            into.append(rep)


def _check_workload_counters(name: str, reps: List[Repetition], errors: List[str]) -> None:
    """Exact repetition per case and the cold/warm invariants of the counters."""
    first: Dict[int, Dict[str, float]] = {}
    for rep in reps:
        if rep.error is not None:
            continue
        expected = first.setdefault(rep.case, rep.counters)
        if rep.counters != expected:
            errors.append(f"case {rep.case}: counters {rep.counters} != first {expected}")
            rep.error = "work counters differ from the first repetition"
    for counters in first.values():
        if name == "fig6a-cold" and (counters["disk_hits"] or counters["disk_entries_loaded"]):
            errors.append(f"cold run read the store: {counters}")
        if name == "fig6a-cold" and not counters["points_computed"]:
            errors.append("cold run computed no design points")
        if name == "fig6a-warm" and (counters["points_computed"] or not counters["disk_hits"]):
            errors.append(f"warm run is not warm: {counters}")
        if name == "fig6a-warm" and counters.get("sched.calls"):
            errors.append(f"warm run called the scheduler {counters['sched.calls']} times")


def run_workload(name: str, root: Path, work_dir: Path, seed: int,
                 seconds: float, trace: bool) -> Outcome:
    """Prepare, warm up, then measure for ``seconds`` (half traced if ``trace``)."""
    workload = WORKLOADS[name](root, work_dir, seed)
    workload.prepare()
    outcome = Outcome()
    # The first run of a process pays lazy imports and allocator growth;
    # it is checked but not timed.
    outcome.warm_up.append(run_once(workload, workload.cases[0], None))
    if not trace:
        _loop(workload, seconds, None, outcome.plain)
    else:
        _loop(workload, seconds / 2, None, outcome.plain)
        tracer = Tracer()
        install_layers(tracer)
        try:
            _loop(workload, seconds / 2, tracer, outcome.traced)
        finally:
            tracer.uninstall()
    _check_workload_counters(name, outcome.plain, outcome.errors)
    _check_workload_counters(name, outcome.traced, outcome.errors)
    if trace:
        _check_traced(name, outcome)
    outcome.errors.extend(rep.error for rep in outcome.every if rep.error)
    return outcome


def _first_per_case(reps: List[Repetition]) -> Dict[int, Repetition]:
    first: Dict[int, Repetition] = {}
    for rep in reps:
        if rep.error is None:
            first.setdefault(rep.case, rep)
    return first


def _check_traced(name: str, outcome: Outcome) -> None:
    """Zero-call guards and traced-equals-untraced counters, per case."""
    traced = _first_per_case(outcome.traced)
    plain = _first_per_case(outcome.plain)
    for case, first in traced.items():
        for layer in EXPECTED_LAYERS[name]:
            if not first.calls.get(layer):
                outcome.errors.append(f"traced run: layer {layer!r} recorded zero calls")
        for rep in outcome.traced:
            if rep.case == case and rep.error is None and (
                rep.calls != first.calls or rep.counts != first.counts
            ):
                rep.error = "traced call counts differ between repetitions"
        untraced = dict(first.counters)
        untraced.pop("sched.calls")
        if case in plain and untraced != plain[case].counters:
            outcome.errors.append(
                f"case {case}: traced counters {untraced} differ from "
                f"untraced {plain[case].counters}"
            )
        entries = first.counts.get("store.read.entries", 0)
        if entries != first.cache["disk_entries_loaded"]:
            outcome.errors.append(
                f"store.read.entries {entries} != disk_entries_loaded "
                f"{first.cache['disk_entries_loaded']}"
            )


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(outcome: Outcome) -> Dict[str, float]:
    """Times in reference seconds (see ``calibrate``); memory over repetitions."""
    good = [rep for rep in outcome.plain if rep.error is None]
    jobs = [rep.job_s * rep.scale for rep in good]
    return {
        "run_s": median([rep.run_s * rep.scale for rep in good]),
        "job_latency_p50_s": median(jobs),
        "jobs_per_s": len(jobs) / sum(jobs) if jobs else 0.0,
        "peak_rss_mb": max((rep.peak_rss_mb for rep in good), default=0.0),
    }


def per_layer(outcome: Outcome) -> Dict[str, float]:
    """Self times as means per repetition; counts as totals over one pass.

    Times are in reference seconds (see ``calibrate``).
    """
    good = [rep for rep in outcome.traced if rep.error is None]
    plain = [rep for rep in outcome.plain if rep.error is None]
    metrics: Dict[str, float] = {}
    if not good:
        return metrics
    one_pass = list(_first_per_case(outcome.traced).values())

    def mean(values: List[float]) -> float:
        return sum(values) / len(values)

    def total(key: str, source: str = "counts") -> float:
        return sum(getattr(rep, source).get(key, 0) for rep in one_pass)

    for layer in set().union(*(rep.layers for rep in good)):
        metrics[f"{layer}.self_s"] = mean(
            [rep.layers.get(layer, 0.0) * rep.scale for rep in good]
        )
        metrics[f"{layer}.calls"] = total(layer, "calls")
    metrics["generator.edges"] = total("generator.edges")
    for side in ("read", "write"):
        metrics[f"store.{side}.entries"] = total(f"store.{side}.entries")
        metrics[f"store.{side}.bytes"] = total(f"store.{side}.bytes")
    loaded = total("store.read.entries")
    metrics["store.read.useful"] = total("disk_hits", "cache") / loaded if loaded else 0.0
    written = total("store.write.files")
    metrics["store.write.useful"] = total("store.write.changed") / written if written else 0.0
    for key in ("hits", "misses", "points_computed", "search_evaluations", "disk_hits"):
        metrics[f"cache.{key}"] = total(key, "cache")
    rows = total("batch_rows", "cache")
    metrics["cache.batch_fill_rate"] = total("batch_cold_rows", "cache") / rows if rows else 0.0
    # Few repetitions lie beyond a p90, so it is a traced-run guard figure,
    # taken over the untraced half of the window.
    metrics["job_latency_p90_s"] = p90([rep.job_s * rep.scale for rep in plain])
    metrics["unattributed_s"] = mean(
        [(rep.job_s - sum(rep.layers.values()) - rep.bookkeeping_s) * rep.scale for rep in good]
    )
    metrics["trace_overhead_s"] = (
        mean([rep.run_s * rep.scale for rep in good])
        - mean([rep.run_s * rep.scale for rep in plain])
        if plain else 0.0
    )
    return metrics


def coverage(outcome: Outcome) -> float:
    """Share of the traced job wall clock covered by layer self times."""
    good = [rep for rep in outcome.traced if rep.error is None]
    covered = sum(sum(rep.layers.values()) for rep in good)
    wall = sum(rep.job_s - rep.bookkeeping_s for rep in good)
    return covered / wall if wall else 0.0
