"""DesignStrategy — architecture selection heuristic (Section 6, Fig. 5).

The strategy explores the space of architectures (subsets of the available
node types), from a single fastest node up to the full node set, and keeps the
cheapest architecture for which the application is schedulable and reliable:

1. Start with the monoprocessor architecture built from the fastest node
   (``n = 1``).
2. For the current architecture (with minimum hardening levels), skip it if
   even its minimum cost cannot beat the best-so-far cost.
3. Run the mapping heuristic with the *schedule length* cost function; if the
   best achievable worst-case schedule length exceeds the deadline, the
   architecture (and any slower architecture with the same node count) cannot
   work — move to ``n + 1`` nodes.
4. Otherwise run the mapping heuristic again with the *cost* function to
   cheapen the design without losing schedulability, and record it if it
   improves on the best-so-far cost.
5. Move to the next-fastest architecture with ``n`` nodes, or to ``n + 1``
   when the size-``n`` alternatives are exhausted.

The MIN and MAX baselines of Section 7 reuse the same exploration but lock the
hardening levels (see :mod:`repro.core.baselines`).
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations
from math import inf
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.application import Application
from repro.core.architecture import Architecture, Node, NodeType
from repro.core.evaluation import DesignResult, infeasible_result
from repro.core.exceptions import OptimizationError
from repro.core.mapping import MappingAlgorithm, MappingResult, Objective
from repro.core.profile import ExecutionProfile
from repro.engine import EvaluationEngine


class ArchitectureEnumerator:
    """Enumerate candidate architectures in the paper's exploration order.

    For a given node count ``n`` the candidates are all subsets of ``n``
    distinct node types, ordered from fastest to slowest (smaller sum of
    speed factors first, ties broken by name for determinism).
    """

    def __init__(self, node_types: Sequence[NodeType]) -> None:
        if not node_types:
            raise OptimizationError("At least one node type is required")
        names = [node_type.name for node_type in node_types]
        if len(set(names)) != len(names):
            raise OptimizationError(f"Duplicate node type names: {names}")
        self.node_types = list(node_types)

    @property
    def max_nodes(self) -> int:
        return len(self.node_types)

    def candidates(self, node_count: int) -> List[Tuple[NodeType, ...]]:
        """All architectures with exactly ``node_count`` nodes, fastest first."""
        if not 1 <= node_count <= self.max_nodes:
            return []
        subsets = combinations(self.node_types, node_count)
        return sorted(
            subsets,
            key=lambda subset: (
                sum(node_type.speed_factor for node_type in subset),
                tuple(node_type.name for node_type in subset),
            ),
        )

    def build(self, subset: Iterable[NodeType]) -> Architecture:
        """Instantiate an architecture (min hardening) from a node-type subset."""
        nodes = [Node(node_type.name, node_type) for node_type in subset]
        architecture = Architecture(nodes)
        architecture.set_min_hardening()
        return architecture


class DesignStrategy:
    """The paper's OPT design strategy.

    Parameters
    ----------
    node_types:
        The library of available computation nodes (each with its h-versions).
    mapping_algorithm:
        The mapping heuristic used to evaluate each candidate architecture.
        Baselines inject a mapping algorithm whose redundancy optimizer locks
        the hardening levels.
    strategy_name:
        Label stored in the produced :class:`DesignResult` (``"OPT"``,
        ``"MIN"``, ``"MAX"`` ...).
    use_engine:
        When ``True`` (default) each :meth:`explore` call runs against an
        :class:`~repro.engine.engine.EvaluationEngine` — a fresh one per call
        unless a shared engine is injected — so revisited design points are
        served from cache.  Disable only to benchmark the unmemoized path;
        results are bit-identical either way.
    """

    def __init__(
        self,
        node_types: Sequence[NodeType],
        mapping_algorithm: Optional[MappingAlgorithm] = None,
        strategy_name: str = "OPT",
        use_engine: bool = True,
    ) -> None:
        self.enumerator = ArchitectureEnumerator(node_types)
        self.mapping_algorithm = (
            mapping_algorithm if mapping_algorithm is not None else MappingAlgorithm()
        )
        self.strategy_name = strategy_name
        self.use_engine = use_engine

    # ------------------------------------------------------------------
    def explore(
        self,
        application: Application,
        profile: ExecutionProfile,
        max_architecture_cost: Optional[float] = None,
        engine: Optional[EvaluationEngine] = None,
    ) -> DesignResult:
        """Explore architectures and return the best (cheapest feasible) design.

        ``max_architecture_cost`` only prunes the exploration (architectures
        whose minimum cost already exceeds it are skipped); acceptance against
        ``ArC`` is re-checked by the caller via
        :meth:`DesignResult.is_accepted`.

        ``engine`` lets callers share one evaluation engine across several
        strategies exploring the same (application, profile) — e.g. the
        synthetic experiment harness runs MIN / MAX / OPT against one engine
        so design points evaluated by one strategy are free for the others.
        """
        application.validate()
        if engine is None and self.use_engine:
            engine = EvaluationEngine(application, profile)
        # Attribute only this exploration's engine activity to the result when
        # the caller shares an engine across strategies.
        hits_before = engine.stats.hits if engine is not None else 0
        misses_before = engine.stats.misses if engine is not None else 0
        computed_before = engine.evaluations if engine is not None else 0
        self.mapping_algorithm.use_engine(engine)
        try:
            best, total_evaluations = self._explore(
                application, profile, max_architecture_cost
            )
        finally:
            self.mapping_algorithm.use_engine(None)
        cache_hits = engine.stats.hits - hits_before if engine is not None else 0
        cache_misses = engine.stats.misses - misses_before if engine is not None else 0
        points_computed = (
            engine.evaluations - computed_before if engine is not None else 0
        )

        if best is None:
            return infeasible_result(
                self.strategy_name,
                application.name,
                reason="no architecture meets the deadline and reliability goal",
                evaluations=total_evaluations,
                cache_hits=cache_hits,
                cache_misses=cache_misses,
                points_computed=points_computed,
            )
        return replace(
            best,
            evaluations=total_evaluations,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            points_computed=points_computed,
        )

    def _explore(
        self,
        application: Application,
        profile: ExecutionProfile,
        max_architecture_cost: Optional[float],
    ):
        best: Optional[DesignResult] = None
        best_cost = inf
        if max_architecture_cost is not None:
            cost_cap = max_architecture_cost
        else:
            cost_cap = inf
        total_evaluations = 0

        node_count = 1
        while node_count <= self.enumerator.max_nodes:
            advanced = False
            for subset in self.enumerator.candidates(node_count):
                architecture = self.enumerator.build(subset)
                if architecture.minimum_cost >= min(best_cost, cost_cap + 1e-9):
                    # Even at minimum hardening this architecture cannot beat
                    # the best cost so far or fit the cost cap — skip it
                    # without evaluating (paper line 6).  Note the cap prune
                    # applies from the very first candidate, before any
                    # feasible design is known.
                    continue
                schedule_result = self.mapping_algorithm.optimize(
                    application,
                    architecture,
                    profile,
                    objective=Objective.SCHEDULE_LENGTH,
                )
                if schedule_result is not None:
                    total_evaluations += schedule_result.evaluations
                if (
                    schedule_result is None
                    or schedule_result.schedule_length > application.deadline
                ):
                    # Not even the fastest mapping fits the deadline on this
                    # architecture: adding more nodes is the only way forward
                    # (paper line 15).
                    node_count += 1
                    advanced = True
                    break
                cost_result = self.mapping_algorithm.optimize(
                    application,
                    architecture,
                    profile,
                    objective=Objective.COST,
                    initial_mapping=schedule_result.mapping,
                )
                if cost_result is not None:
                    total_evaluations += cost_result.evaluations
                chosen = cost_result if cost_result is not None else schedule_result
                if chosen.is_feasible and chosen.cost < best_cost:
                    best_cost = chosen.cost
                    best = self._to_result(application, architecture, chosen)
            if not advanced:
                node_count += 1

        return best, total_evaluations

    # ------------------------------------------------------------------
    def _to_result(
        self,
        application: Application,
        architecture: Architecture,
        mapping_result: MappingResult,
    ) -> DesignResult:
        decision = mapping_result.decision
        node_types = {node.name: node.node_type.name for node in architecture}
        return DesignResult(
            strategy=self.strategy_name,
            application=application.name,
            feasible=True,
            node_types=node_types,
            hardening=dict(decision.hardening),
            reexecutions=dict(decision.reexecutions),
            mapping=mapping_result.mapping,
            schedule=decision.schedule,
            schedule_length=decision.schedule_length,
            deadline=application.deadline,
            cost=decision.cost,
            meets_reliability=decision.meets_reliability,
            evaluations=mapping_result.evaluations,
        )
