"""The Session: one configured front door to the evaluation machinery.

A :class:`Session` binds a frozen :class:`~repro.api.config.RunConfig` to
the performance machinery of PRs 2–4 and owns, for its lifetime:

* **kernel selection** — scoped through
  :func:`repro.kernels.registry.use_kernel` (snapshot/restore, exception
  safe);
* **the persistent design-point store** — one lazily-opened
  :class:`~repro.engine.store.DesignPointStore` handle when
  ``config.cache_dir`` is set;
* **evaluation-engine construction** — :meth:`engine` builds an
  :class:`~repro.engine.engine.EvaluationEngine` for an
  ``(application, profile)`` context, warm-started from the store;
* **the shared experiment** — :meth:`experiment` memoizes one
  :class:`~repro.experiments.synthetic.AcceptanceExperiment` so scenarios
  run back to back (e.g. Fig. 6a then 6b) reuse each other's settings.

Scenarios execute through :meth:`run`, which wraps the runner in the kernel
scope, times it, and assembles the structured
:class:`~repro.api.report.RunReport`.
"""

from __future__ import annotations

import time
from types import TracebackType
from typing import Any, Callable, ContextManager, Dict, Mapping, Optional, Tuple

from repro.api.config import RunConfig
from repro.api.registry import get_scenario
from repro.api.report import RunReport
from repro.core.application import Application
from repro.core.profile import ExecutionProfile
from repro.engine.engine import EvaluationEngine
from repro.engine.store import DesignPointStore
from repro.experiments.synthetic import AcceptanceExperiment
from repro.kernels.base import SFPKernel
from repro.kernels.registry import use_kernel
from repro.kernels.sched_base import SchedulerKernel

_KernelScope = ContextManager[Tuple[SFPKernel, SchedulerKernel]]

#: Observer invoked with one JSON-native event dict per progress step —
#: ``scenario_started`` / ``setting_progress`` (with engine cache counter
#: snapshots per optimizer round) / ``scenario_finished``.  The
#: serve layer streams these as NDJSON; a callback must never mutate the
#: event or raise (a raising observer aborts the run it watches).
ProgressCallback = Callable[[Dict[str, Any]], None]

#: Zeroed cache counters reported by scenarios that never touch the
#: memoized experiment machinery (e.g. the motivational examples).
_EMPTY_CACHE_REPORT: Dict[str, float] = {
    "hits": 0,
    "misses": 0,
    "search_evaluations": 0,
    "points_computed": 0,
    "hit_rate": 0.0,
    "disk_hits": 0,
    "disk_entries_loaded": 0,
}

#: Raw additive counters accepted by :meth:`Session.add_cache_counters`;
#: the derived ``hit_rate`` is recomputed on read.
_ADDITIVE_CACHE_COUNTERS = (
    "hits",
    "misses",
    "search_evaluations",
    "points_computed",
    "disk_hits",
    "disk_entries_loaded",
)


class Session:
    """Configured execution context for scenarios and ad-hoc evaluation.

    Usable as a context manager — ``with Session(config) as session:`` pins
    the configured kernel backends for the block — or directly through
    :meth:`run`, which enters the kernel scope around each scenario on its
    own.  Either way the ambient process state is restored afterwards.
    """

    def __init__(
        self,
        config: Optional[RunConfig] = None,
        progress: Optional[ProgressCallback] = None,
        single_flight: bool = False,
    ) -> None:
        self.config = config if config is not None else RunConfig()
        #: Optional progress observer (see :data:`ProgressCallback`).  Like
        #: the sanitizer this is deliberately *not* a :class:`RunConfig`
        #: field: it is an observer handle, not an experiment parameter, and
        #: keeping it out of the frozen config preserves the lossless config
        #: round-trip in report JSON.
        self.progress = progress
        #: Serialize identical engine contexts across concurrent processes
        #: sharing this session's ``cache_dir`` (the serve job queue's
        #: shared warm store); see :meth:`DesignPointStore.single_flight`.
        self.single_flight = single_flight
        self._experiment: Optional[AcceptanceExperiment] = None
        self._store: Optional[DesignPointStore] = None
        self._kernel_scope: Optional[_KernelScope] = None
        self._scenario_counters: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # kernel scope
    # ------------------------------------------------------------------
    def _scope(self) -> _KernelScope:
        return use_kernel(sfp=self.config.sfp_kernel, sched=self.config.sched_kernel)

    def __enter__(self) -> "Session":
        if self._kernel_scope is not None:
            raise RuntimeError("Session is not re-entrant")
        self._kernel_scope = self._scope()
        self._kernel_scope.__enter__()
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        scope, self._kernel_scope = self._kernel_scope, None
        try:
            if self._experiment is not None:
                self._experiment.close()
        finally:
            if scope is not None:
                scope.__exit__(exc_type, exc_value, traceback)

    # ------------------------------------------------------------------
    # owned resources
    # ------------------------------------------------------------------
    @property
    def store(self) -> Optional[DesignPointStore]:
        """The session's persistent store handle (``None`` without cache_dir)."""
        if self.config.cache_dir is None:
            return None
        if self._store is None:
            self._store = DesignPointStore(
                self.config.cache_dir, max_bytes=self.config.cache_max_bytes
            )
        return self._store

    def engine(
        self, application: Application, profile: ExecutionProfile
    ) -> EvaluationEngine:
        """Build an evaluation engine for one context, warm-started from disk."""
        engine = EvaluationEngine(application, profile)
        store = self.store
        if store is not None:
            store.warm(engine)
        return engine

    def persist(self, engine: EvaluationEngine) -> None:
        """Merge an engine's memo tables back into the persistent store."""
        store = self.store
        if store is not None:
            store.persist(engine)

    def experiment(self) -> AcceptanceExperiment:
        """The session's shared synthetic experiment (memoized).

        Sharing matters: the Fig. 6b cost table reuses the Fig. 6a settings,
        so running both scenarios in one session computes each (SER, HPD)
        setting exactly once.
        """
        if self._experiment is None:
            jobs = self.config.jobs
            self._experiment = AcceptanceExperiment(
                preset=self.config.resolved_preset(),
                n_jobs=jobs,
                store_dir=self.config.cache_dir,
                store_max_bytes=self.config.cache_max_bytes,
                single_flight=self.single_flight,
                progress=self.emit_progress if self.progress is not None else None,
            )
        return self._experiment

    def emit_progress(self, event: Dict[str, Any]) -> None:
        """Forward one progress event to the session's observer, if any."""
        if self.progress is not None:
            self.progress(event)

    def add_cache_counters(self, counters: Mapping[str, float]) -> None:
        """Accumulate engine counters from a scenario-owned engine.

        Scenarios that run their own :class:`EvaluationEngine` (the
        generator-backed families) rather than the shared experiment call
        this so their cache statistics still surface in the
        :class:`~repro.api.report.RunReport`.  Only the raw additive
        counters are accepted; derived rates are recomputed on read.
        """
        for key in _ADDITIVE_CACHE_COUNTERS:
            value = counters.get(key)
            if value:
                self._scenario_counters[key] = self._scenario_counters.get(key, 0) + value

    def cache_report(self) -> Dict[str, float]:
        """Aggregate engine counters over the experiment and scenario engines."""
        report = (
            dict(_EMPTY_CACHE_REPORT)
            if self._experiment is None
            else self._experiment.cache_report()
        )
        for key, value in self._scenario_counters.items():
            report[key] = report.get(key, 0) + value
        lookups = report["hits"] + report["misses"]
        report["hit_rate"] = report["hits"] / lookups if lookups else 0.0
        return report

    # ------------------------------------------------------------------
    # scenario execution
    # ------------------------------------------------------------------
    def run(self, scenario_id: str) -> RunReport:
        """Run one registered scenario and return its structured report.

        ``config.output`` is deliberately *not* written here: a session can
        run many scenarios, and each run silently overwriting the previous
        report would lose data.  The one-shot :func:`repro.api.run` (and the
        CLI driver on top of it) persists the single report it produces.
        """
        spec = get_scenario(scenario_id)
        params = spec.resolve_params(self.config.scenario_params)
        with self._scope() as (sfp_kernel, sched_kernel):
            kernels = {"sfp": sfp_kernel.name, "sched": sched_kernel.name}
            self.emit_progress(
                {
                    "event": "scenario_started",
                    "scenario": scenario_id,
                    "params": dict(params),
                    "kernels": kernels,
                }
            )
            start = time.perf_counter()
            outcome = spec.runner(self, params)
            wall_clock = time.perf_counter() - start
            self.emit_progress(
                {
                    "event": "scenario_finished",
                    "scenario": scenario_id,
                    "wall_clock_seconds": wall_clock,
                    "cache": self.cache_report(),
                }
            )
        report = RunReport(
            scenario=scenario_id,
            config=self.config,
            results=outcome.payload,
            params=params,
            kernels=kernels,
            cache=self.cache_report(),
            timings={"wall_clock_seconds": wall_clock},
            text=outcome.text,
        )
        # Runtime determinism sanitizer hook (R008): when active, walk the
        # assembled report's JSON-facing fields before any consumer calls
        # to_json.  Lazy import keeps repro.lint off unsanitized runs.
        from repro.lint.sanitizer import active_sanitizer

        sanitizer = active_sanitizer()
        if sanitizer is not None:
            sanitizer.check_report(
                {
                    "results": report.results,
                    "params": report.params,
                    "kernels": report.kernels,
                    "cache": report.cache,
                    "timings": report.timings,
                },
                scenario_id,
            )
        return report
