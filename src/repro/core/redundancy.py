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

    # ------------------------------------------------------------------
    # batched neighbourhood evaluation
    # ------------------------------------------------------------------
    def evaluate_hardening_batch(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
        trials: Sequence[Dict[str, int]],
    ) -> List[RedundancyDecision]:
        """Evaluate a whole hardening neighbourhood in one partitioned pass.

        The trial block is partitioned against the decision memo in one
        :meth:`~repro.engine.cache.MemoCache.get_many` call (key prefix —
        evaluator signature, architecture and mapping fingerprints — computed
        once instead of per trial); only the residual cold rows run the
        re-execution optimizer, and their schedules are built through
        :meth:`~repro.scheduling.list_scheduler.ListScheduler.schedule_batch`.
        Results and cache counters are bit-identical to sequential
        :meth:`evaluate_hardening` calls.
        """
        engine = self._active_engine(application, profile)
        if engine is None or any(
            len(trial) != len(architecture) for trial in trials
        ):
            # Partial vectors bypass the cache (see evaluate_hardening);
            # keep the whole block on the scalar path for uniform counters.
            return [
                self.evaluate_hardening(
                    application, architecture, mapping, profile, trial
                )
                for trial in trials
            ]
        prefix = (
            self._evaluator_signature(),
            architecture_fingerprint(architecture),
            mapping_fingerprint(mapping),
        )
        keys = [prefix + (hardening_fingerprint(trial),) for trial in trials]
        values, cold, duplicates = engine.decisions.get_many(keys)
        if cold:
            computed = self._evaluate_hardening_batch(
                application,
                architecture,
                mapping,
                profile,
                [trials[position] for position in cold],
            )
            for position, decision in zip(cold, computed):
                values[position] = engine.decisions.put(keys[position], decision)
            engine.evaluations += len(cold)
            for position, first in duplicates.items():
                values[position] = values[first]
        engine.record_batch(rows=len(keys), cold_rows=len(cold))
        return values

    def _evaluate_hardening_batch(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
        trials: Sequence[Dict[str, int]],
    ) -> List[RedundancyDecision]:
        """Evaluate the cold rows of a hardening neighbourhood.

        Two batch-level savings over the scalar loop, both value-preserving:

        * the base point's per-node failure-probability tuples are derived
          once and shared — a sibling recomputes only the tuples of nodes
          whose hardening it flips (the tuple is a pure function of node
          type, hardening level and the mapped process list);
        * the per-row schedules are built in one
          :meth:`~repro.scheduling.list_scheduler.ListScheduler.schedule_batch`
          call, amortizing the kernel's compiled tables across the block.
        """
        if not trials:
            return []
        base_levels = {node.name: node.hardening for node in architecture}
        processes_on = {
            node.name: mapping.processes_on(node.name) for node in architecture
        }
        base_probabilities: Dict[str, Tuple[float, ...]] = {
            node.name: tuple(
                profile.failure_probability(
                    process, node.node_type.name, node.hardening
                )
                for process in processes_on[node.name]
            )
            for node in architecture
        }
        problems: List[Tuple[Architecture, Dict[str, Tuple[float, ...]]]] = []
        for trial in trials:
            candidate = architecture.copy()
            candidate.apply_hardening_vector(trial)
            probabilities: Dict[str, Tuple[float, ...]] = {}
            for node in candidate:
                name = node.name
                if node.hardening == base_levels[name]:
                    probabilities[name] = base_probabilities[name]
                else:
                    probabilities[name] = tuple(
                        profile.failure_probability(
                            process, node.node_type.name, node.hardening
                        )
                        for process in processes_on[name]
                    )
            problems.append((candidate, probabilities))
        reexecutions = self.reexecution_opt.optimize_many(
            application, problems, mapping, profile
        )
        rows: List[Tuple[Architecture, ProcessMapping, Dict[str, int]]] = []
        partial: List[Tuple[Dict[str, int], Architecture, Dict[str, int], bool]] = []
        for trial, (candidate, _), reexecution in zip(
            trials, problems, reexecutions
        ):
            if reexecution is None:
                budgets: Dict[str, int] = {node.name: 0 for node in candidate}
                meets_reliability = False
            else:
                budgets = reexecution.reexecutions
                meets_reliability = True
            rows.append((candidate, mapping, budgets))
            partial.append((trial, candidate, budgets, meets_reliability))
        schedules = self.scheduler.schedule_batch(application, rows, profile)
        return [
            RedundancyDecision(
                hardening=dict(trial),
                reexecutions=dict(budgets),
                schedule=schedule,
                cost=candidate.cost,
                schedule_length=schedule.length,
                meets_deadline=schedule.length <= application.deadline,
                meets_reliability=meets_reliability,
            )
            for (trial, candidate, budgets, meets_reliability), schedule in zip(
                partial, schedules
            )
        ]

    # ------------------------------------------------------------------
    def _optimization_prefix(self, architecture: Architecture) -> Tuple:
        """Optimization-memo key minus the mapping fingerprint.

        Subclasses extend this with their own configuration (e.g. the fixed
        hardening policy).  ``optimize_batch`` computes it once per
        neighbourhood; the scalar ``optimize`` appends one mapping
        fingerprint to the identical prefix.
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
        """Optimize redundancy for a whole mapping neighbourhood.

        The tabu-search move generator emits sibling mappings of one base
        point; this partitions them against the optimization memo in one
        pass (evaluator signature and architecture fingerprint hashed once)
        and runs the optimizer only on the cold rows.  Bit-identical, with
        identical counters, to sequential :meth:`optimize` calls.
        """
        engine = self._active_engine(application, profile)
        if engine is None:
            return [
                self._optimize(application, architecture, mapping, profile)
                for mapping in mappings
            ]
        prefix = self._optimization_prefix(architecture)
        keys = [
            prefix + (mapping_fingerprint(mapping),) for mapping in mappings
        ]
        values, cold, duplicates = engine.optimizations.get_many(keys)
        if cold:
            for position in cold:
                values[position] = engine.optimizations.put(
                    keys[position],
                    self._optimize(
                        application, architecture, mappings[position], profile
                    ),
                )
            for position, first in duplicates.items():
                values[position] = values[first]
        engine.record_batch(rows=len(keys), cold_rows=len(cold))
        return values

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
            # One +1-hardening sibling per non-maxed node — the whole
            # neighbourhood evaluated as one batch.
            trials = []
            for node in architecture:
                level = hardening[node.name]
                if level >= node.node_type.max_hardening:
                    continue
                trial = dict(hardening)
                trial[node.name] = level + 1
                trials.append(trial)
            trial_decisions = self.evaluate_hardening_batch(
                application, architecture, mapping, profile, trials
            )
            best_candidate: Optional[
                Tuple[Tuple[int, float], Dict[str, int], RedundancyDecision]
            ] = None
            for trial, trial_decision in zip(trials, trial_decisions):
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
            trials = []
            for node in architecture:
                level = hardening[node.name]
                if level <= node.node_type.min_hardening:
                    continue
                trial = dict(hardening)
                trial[node.name] = level - 1
                trials.append(trial)
            trial_decisions = self.evaluate_hardening_batch(
                application, architecture, mapping, profile, trials
            )
            best_candidate = None
            for trial, trial_decision in zip(trials, trial_decisions):
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
