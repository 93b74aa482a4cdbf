"""ReExecutionOpt — greedy assignment of software re-executions (Section 6.3).

Given an architecture with fixed hardening levels and a mapping, the heuristic
finds the smallest numbers of re-executions ``k_j`` per node such that the
system reliability goal ``rho`` is met, using the SFP analysis of Appendix A.

The paper: "It starts without any re-executions in software and increases the
number of re-executions in a greedy fashion ... the exploration of the number
of re-executions is guided towards the largest increase in the system
reliability."  At each step, the node whose additional re-execution lowers the
system failure probability the most receives one more re-execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import EvaluationEngine

from repro.core.application import Application
from repro.core.architecture import Architecture
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.core.sfp import KernelSpec, SFPAnalysis, reliability_over_time_unit
from repro.kernels.registry import resolve_kernel
from repro.utils.rounding import DEFAULT_DECIMALS


@dataclass(frozen=True)
class ReExecutionDecision:
    """Result of the re-execution optimization."""

    reexecutions: Dict[str, int]
    system_failure_per_iteration: float
    reliability_over_time_unit: float
    meets_goal: bool

    @property
    def total_reexecutions(self) -> int:
        return sum(self.reexecutions.values())


class ReExecutionOpt:
    """Greedy re-execution assignment driven by the SFP analysis.

    Parameters
    ----------
    max_reexecutions_per_node:
        Safety cap on ``k_j``; if the goal is not reached within the cap on
        every node the heuristic reports failure (``None``), which the caller
        interprets as "this hardening level cannot satisfy the reliability
        goal with software redundancy alone".
    decimals:
        Rounding accuracy forwarded to the SFP analysis.
    engine:
        Optional :class:`~repro.engine.engine.EvaluationEngine` serving the
        per-node exceedance and system-failure memo tables.  The greedy loop
        re-queries the same (node, budget) exceedances on every iteration, so
        memoization removes most of the Decimal-chain recomputation.  Results
        are bit-identical with and without an engine.
    kernel:
        SFP kernel backend for the unmemoized path (an engine brings its
        own); a speed knob only, every backend is bit-identical.
    """

    def __init__(
        self,
        max_reexecutions_per_node: int = 20,
        decimals: int = DEFAULT_DECIMALS,
        engine: Optional["EvaluationEngine"] = None,
        kernel: KernelSpec = None,
    ) -> None:
        if max_reexecutions_per_node < 0:
            raise ValueError(
                "max_reexecutions_per_node must be >= 0, got "
                f"{max_reexecutions_per_node}"
            )
        self.max_reexecutions_per_node = max_reexecutions_per_node
        self.decimals = decimals
        self.engine = engine
        self.kernel = resolve_kernel(kernel)

    # ------------------------------------------------------------------
    def optimize(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
    ) -> Optional[ReExecutionDecision]:
        """Return the cheapest re-execution assignment meeting ``rho``.

        Returns ``None`` when the goal cannot be met within the per-node cap
        (typically because the hardening level is too low for the error rate).
        """
        engine = self.engine
        node_names = [node.name for node in architecture]
        # Ordered tuples: the DP sums are order-sensitive in their last bits,
        # and the engine memo must reproduce the unmemoized result exactly.
        analysis = SFPAnalysis(
            application, architecture, mapping, profile,
            decimals=self.decimals, engine=engine, kernel=self.kernel,
        )
        probabilities: Dict[str, Tuple[float, ...]] = {
            node.name: tuple(analysis.node_failure_probabilities(node))
            for node in architecture
        }

        kernel = self.kernel
        decimals = self.decimals
        cap = self.max_reexecutions_per_node

        # Per-node state lives in lists aligned with ``node_names``: the
        # candidate tuples below are substitute-snapshot-restore over one
        # flat list, which keeps the hottest expression of the optimizer
        # free of per-element dictionary lookups.
        prob_list = [probabilities[name] for name in node_names]
        count = len(node_names)

        def union_failure(values: Tuple[float, ...]) -> float:
            if engine is not None:
                return engine.system_failure(values, decimals)
            return kernel.system_failure(values, decimals)

        budget_list = [0] * count
        if engine is not None:
            ex_list = [
                engine.node_exceedance(block, 0, decimals) for block in prob_list
            ]
        else:
            ex_list = [
                kernel.probability_exceeds(block, 0, decimals)
                for block in prob_list
            ]

        goal = application.reliability_goal
        time_unit = application.time_unit
        period = application.period

        system = union_failure(tuple(ex_list))
        reliability = reliability_over_time_unit(system, time_unit, period)
        while reliability < goal:
            eligible = [
                i
                for i in range(count)
                if budget_list[i] < cap
                # Nodes without mapped processes: re-executions cannot help.
                and prob_list[i]
            ]
            best_index = -1
            best_system = system
            best_exceedance = 0.0
            for i in eligible:
                if engine is not None:
                    candidate_exceedance = engine.node_exceedance(
                        prob_list[i], budget_list[i] + 1, decimals
                    )
                else:
                    candidate_exceedance = kernel.probability_exceeds(
                        prob_list[i], budget_list[i] + 1, decimals
                    )
                previous = ex_list[i]
                ex_list[i] = candidate_exceedance
                candidate_values = tuple(ex_list)
                ex_list[i] = previous
                candidate_system = union_failure(candidate_values)
                if candidate_system < best_system:
                    # Only a strict improvement is accepted, so stagnation
                    # (no candidate lowers the rounded system failure) is
                    # detectable below.
                    best_index = i
                    best_system = candidate_system
                    best_exceedance = candidate_exceedance
            if best_index < 0:
                # No additional re-execution improves the (rounded) system
                # failure probability: the goal is unreachable in software.
                return None
            budget_list[best_index] += 1
            ex_list[best_index] = best_exceedance
            system = union_failure(tuple(ex_list))
            reliability = reliability_over_time_unit(system, time_unit, period)

        return ReExecutionDecision(
            reexecutions=dict(zip(node_names, budget_list)),
            system_failure_per_iteration=system,
            reliability_over_time_unit=reliability,
            meets_goal=True,
        )

    # ------------------------------------------------------------------
    def optimize_many(
        self,
        application: Application,
        architectures: Sequence[Architecture],
        mapping: ProcessMapping,
        profile: ExecutionProfile,
    ) -> List[Optional[ReExecutionDecision]]:
        """One :meth:`optimize` call per architecture, in order."""
        # Kept only because the perfbench tracer patches this name.
        return [
            self.optimize(application, architecture, mapping, profile)
            for architecture in architectures
        ]

    # ------------------------------------------------------------------
    def evaluate(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
        reexecutions: Dict[str, int],
    ) -> ReExecutionDecision:
        """Evaluate a user-supplied assignment without optimizing it."""
        analysis = SFPAnalysis(
            application, architecture, mapping, profile, decimals=self.decimals,
            engine=self.engine, kernel=self.kernel,
        )
        report = analysis.evaluate(reexecutions)
        return ReExecutionDecision(
            reexecutions=dict(report.reexecutions),
            system_failure_per_iteration=report.system_failure_per_iteration,
            reliability_over_time_unit=report.reliability_over_time_unit,
            meets_goal=report.meets_goal,
        )
