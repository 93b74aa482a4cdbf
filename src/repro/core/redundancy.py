"""RedundancyOpt — hardware/software redundancy trade-off (Section 6.3).

For a fixed mapping, the heuristic decides the hardening level of every node
and the number of re-executions on each node such that

* the reliability goal is met (delegated to
  :class:`~repro.core.reexecution.ReExecutionOpt`),
* the worst-case schedule length fits the deadline, and
* the architecture cost is as low as possible.

Following the paper, the heuristic first *increases* hardening greedily until
a schedulable solution is found (more hardening means fewer re-executions and
therefore less recovery slack, at the price of slower execution), then
*trims* hardening level by level as long as the application stays schedulable,
keeping the cheapest schedulable alternative at every step.

A fixed-hardening variant (:class:`FixedHardeningRedundancyOpt`) implements
the MIN and MAX baselines of Section 7, where the hardening optimization step
is removed and only the software redundancy is optimized.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.application import Application
from repro.core.architecture import Architecture
from repro.core.decision import RedundancyDecision
from repro.core.exceptions import OptimizationError
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.core.reexecution import ReExecutionOpt
from repro.engine import MISS, EvaluationEngine
from repro.engine.fingerprint import (
    architecture_fingerprint,
    hardening_fingerprint,
    mapping_fingerprint,
)
from repro.scheduling.list_scheduler import ListScheduler


class _RedundancyEvaluator:
    """Shared machinery: evaluate one hardening vector for a fixed mapping.

    When an :class:`~repro.engine.engine.EvaluationEngine` is attached (via
    :meth:`use_engine`), every evaluated design point — (architecture,
    mapping, hardening vector) under the bound (application, profile) — is
    memoized, so revisited points skip both the re-execution optimization and
    the list scheduler.  Cached :class:`RedundancyDecision` objects are shared
    between callers and must be treated as immutable (their dict fields are
    copied by every consumer that mutates).
    """

    def __init__(
        self,
        scheduler: Optional[ListScheduler] = None,
        reexecution_opt: Optional[ReExecutionOpt] = None,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        self.scheduler = scheduler if scheduler is not None else ListScheduler()
        self.reexecution_opt = (
            reexecution_opt if reexecution_opt is not None else ReExecutionOpt()
        )
        self.engine: Optional[EvaluationEngine] = None
        if engine is not None:
            self.use_engine(engine)

    # ------------------------------------------------------------------
    def use_engine(self, engine: Optional[EvaluationEngine]) -> None:
        """Attach (or detach, with ``None``) an evaluation engine."""
        self.engine = engine
        self.reexecution_opt.engine = engine

    def _active_engine(
        self, application: Application, profile: ExecutionProfile
    ) -> Optional[EvaluationEngine]:
        """The attached engine, if it is bound to this (application, profile)."""
        engine = self.engine
        if engine is not None and engine.matches(application, profile):
            return engine
        return None

    def _evaluator_signature(self) -> Tuple:
        """Configuration part of the cache keys.

        Two evaluators with the same signature produce identical decisions
        for identical design points, so MIN / MAX / OPT strategies can share
        one engine.
        """
        bus = getattr(self.scheduler, "bus", None)
        if bus is None:
            bus_signature = None
        elif hasattr(bus, "signature"):
            bus_signature = bus.signature()
        else:
            bus_signature = (type(bus).__name__,)
        return (
            type(self.scheduler).__name__,
            getattr(self.scheduler, "slack_sharing", None),
            bus_signature,
            self.reexecution_opt.max_reexecutions_per_node,
            self.reexecution_opt.decimals,
        )

    # ------------------------------------------------------------------
    def evaluate_hardening(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
        hardening: Dict[str, int],
    ) -> RedundancyDecision:
        """Evaluate one hardening vector: re-executions, schedule, cost."""
        engine = self._active_engine(application, profile)
        # The cache key treats the hardening vector as a *total* description
        # of the node levels; a partial vector (legal for the unmemoized
        # path — apply_hardening_vector only updates the named nodes) would
        # alias design points that differ in the unnamed nodes' current
        # levels, so it bypasses the cache.
        if engine is None or len(hardening) != len(architecture):
            return self._evaluate_hardening(
                application, architecture, mapping, profile, hardening
            )
        key = (
            self._evaluator_signature(),
            architecture_fingerprint(architecture),
            mapping_fingerprint(mapping),
            hardening_fingerprint(hardening),
        )
        decision = engine.decisions.get(key)
        if decision is MISS:
            decision = engine.decisions.put(
                key,
                self._evaluate_hardening(
                    application, architecture, mapping, profile, hardening
                ),
            )
            engine.evaluations += 1
        return decision

    def _evaluate_hardening(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
        hardening: Dict[str, int],
    ) -> RedundancyDecision:
        candidate = architecture.copy()
        candidate.apply_hardening_vector(hardening)
        reexecution = self.reexecution_opt.optimize(
            application, candidate, mapping, profile
        )
        if reexecution is None:
            # Reliability goal unreachable at this hardening level; schedule
            # with zero re-executions only to report a schedule length.
            budgets: Dict[str, int] = {node.name: 0 for node in candidate}
            meets_reliability = False
        else:
            budgets = reexecution.reexecutions
            meets_reliability = True
        schedule = self.scheduler.schedule(
            application, candidate, mapping, profile, budgets
        )
        return RedundancyDecision(
            hardening=dict(hardening),
            reexecutions=dict(budgets),
            schedule=schedule,
            cost=candidate.cost,
            schedule_length=schedule.length,
            meets_deadline=schedule.length <= application.deadline,
            meets_reliability=meets_reliability,
        )

    def evaluate_hardening_batch(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
        trials: Sequence[Dict[str, int]],
    ) -> List[RedundancyDecision]:
        """One :meth:`evaluate_hardening` call per trial, in order."""
        # Kept only because the perfbench tracer patches this name.
        return [
            self.evaluate_hardening(application, architecture, mapping, profile, trial)
            for trial in trials
        ]

    # ------------------------------------------------------------------
    def _optimization_prefix(self, architecture: Architecture) -> Tuple:
        """Optimization-memo key minus the mapping fingerprint.

        Subclasses extend this with their own configuration (e.g. the fixed
        hardening policy); ``optimize`` appends the mapping fingerprint.
        """
        return (
            type(self).__name__,
            self._evaluator_signature(),
            architecture_fingerprint(architecture),
        )

    def optimize_batch(
        self,
        application: Application,
        architecture: Architecture,
        mappings: Sequence[ProcessMapping],
        profile: ExecutionProfile,
    ) -> List[Optional[RedundancyDecision]]:
        """One ``optimize`` call per mapping, in order."""
        # Kept only because the perfbench tracer patches this name.
        return [
            self.optimize(application, architecture, mapping, profile)
            for mapping in mappings
        ]

    def _optimize(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
    ) -> Optional[RedundancyDecision]:
        raise NotImplementedError


class RedundancyOpt(_RedundancyEvaluator):
    """Hardening/re-execution trade-off heuristic of the paper (OPT)."""

    def optimize(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
    ) -> Optional[RedundancyDecision]:
        """Return the cheapest feasible redundancy decision for ``mapping``.

        Returns ``None`` when no hardening level combination yields a solution
        that is both schedulable and reliable (the mapping is then discarded
        by the caller, as in the paper's Fig. 4d discussion).
        """
        engine = self._active_engine(application, profile)
        if engine is not None:
            key = self._optimization_prefix(architecture) + (
                mapping_fingerprint(mapping),
            )
            return engine.optimizations.memoize(
                key,
                lambda: self._optimize(application, architecture, mapping, profile),
            )
        return self._optimize(application, architecture, mapping, profile)

    def _optimize(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
    ) -> Optional[RedundancyDecision]:
        hardening = {
            node.name: node.node_type.min_hardening for node in architecture
        }
        decision = self.evaluate_hardening(
            application, architecture, mapping, profile, hardening
        )

        # ---------------- Phase 1: harden until feasible -----------------
        visited = 0
        max_steps = sum(
            node.node_type.max_hardening - node.node_type.min_hardening
            for node in architecture
        )
        while not decision.is_feasible and visited <= max_steps:
            # One +1-hardening sibling per non-maxed node.
            best_candidate: Optional[
                Tuple[Tuple[int, float], Dict[str, int], RedundancyDecision]
            ] = None
            for node in architecture:
                level = hardening[node.name]
                if level >= node.node_type.max_hardening:
                    continue
                trial = dict(hardening)
                trial[node.name] = level + 1
                trial_decision = self.evaluate_hardening(
                    application, architecture, mapping, profile, trial
                )
                # Rank: feasible reliability first, then shorter schedules.
                key = (
                    0 if trial_decision.meets_reliability else 1,
                    trial_decision.schedule_length,
                )
                if best_candidate is None or key < best_candidate[0]:
                    best_candidate = (key, trial, trial_decision)
            if best_candidate is None:
                return None
            _, hardening, decision = best_candidate
            visited += 1
        if not decision.is_feasible:
            return None

        # ---------------- Phase 2: trim hardening to cut cost ------------
        improved = True
        while improved:
            improved = False
            best_candidate = None
            for node in architecture:
                level = hardening[node.name]
                if level <= node.node_type.min_hardening:
                    continue
                trial = dict(hardening)
                trial[node.name] = level - 1
                trial_decision = self.evaluate_hardening(
                    application, architecture, mapping, profile, trial
                )
                if not trial_decision.is_feasible:
                    continue
                key = (trial_decision.cost, trial_decision.schedule_length)
                if best_candidate is None or key < best_candidate[0]:
                    best_candidate = (key, trial, trial_decision)
            if best_candidate is not None and best_candidate[2].cost < decision.cost:
                _, hardening, decision = best_candidate
                improved = True
        return decision


class FixedHardeningRedundancyOpt(_RedundancyEvaluator):
    """Baseline redundancy optimizer with the hardening level locked.

    ``policy="min"`` reproduces the paper's MIN strategy (cheapest, least
    hardened nodes; reliability achieved through re-execution only), while
    ``policy="max"`` reproduces MAX (most hardened versions only).
    """

    def __init__(
        self,
        policy: str,
        scheduler: Optional[ListScheduler] = None,
        reexecution_opt: Optional[ReExecutionOpt] = None,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        super().__init__(scheduler=scheduler, reexecution_opt=reexecution_opt, engine=engine)
        if policy not in ("min", "max"):
            raise OptimizationError(
                f"FixedHardeningRedundancyOpt policy must be 'min' or 'max', got {policy!r}"
            )
        self.policy = policy

    def _optimization_prefix(self, architecture: Architecture) -> Tuple:
        """The shared prefix with the fixed policy between name and signature."""
        return (
            type(self).__name__,
            self.policy,
            self._evaluator_signature(),
            architecture_fingerprint(architecture),
        )

    def optimize(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
    ) -> Optional[RedundancyDecision]:
        engine = self._active_engine(application, profile)
        if engine is not None:
            key = self._optimization_prefix(architecture) + (
                mapping_fingerprint(mapping),
            )
            return engine.optimizations.memoize(
                key,
                lambda: self._optimize(application, architecture, mapping, profile),
            )
        return self._optimize(application, architecture, mapping, profile)

    def _optimize(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
    ) -> Optional[RedundancyDecision]:
        hardening = {
            node.name: (
                node.node_type.min_hardening
                if self.policy == "min"
                else node.node_type.max_hardening
            )
            for node in architecture
        }
        decision = self.evaluate_hardening(
            application, architecture, mapping, profile, hardening
        )
        if not decision.is_feasible:
            return None
        return decision
