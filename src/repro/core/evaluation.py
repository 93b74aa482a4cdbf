"""Design-point evaluation records and acceptance criteria.

Section 7 of the paper counts *accepted* applications: an application is
accepted by a strategy if the produced implementation (architecture +
hardening + mapping + re-executions + schedule)

* meets the reliability goal,
* meets the deadline, and
* does not exceed the maximum architectural cost ``ArC``.

:class:`DesignResult` captures everything a strategy decided for one
application so the experiment harness (and the user) can inspect why a design
was or was not accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.mapping_model import ProcessMapping
from repro.scheduling.schedule import Schedule


@dataclass(frozen=True)
class DesignResult:
    """Outcome of one design-space exploration run for one application."""

    strategy: str
    application: str
    feasible: bool
    node_types: Dict[str, str] = field(default_factory=dict)
    hardening: Dict[str, int] = field(default_factory=dict)
    reexecutions: Dict[str, int] = field(default_factory=dict)
    mapping: Optional[ProcessMapping] = None
    schedule: Optional[Schedule] = None
    schedule_length: float = float("inf")
    deadline: float = float("inf")
    cost: float = float("inf")
    meets_reliability: bool = False
    failure_reason: str = ""
    #: Design points *examined* by the search (tabu-move evaluations); this is
    #: the paper's notion of search effort and is identical with or without
    #: caching.
    evaluations: int = 0
    # Engine counters attributed to this exploration.  Excluded from
    # equality: a warm-cache run must compare equal to a cold one as long as
    # the *design* is identical.  ``points_computed`` counts design points
    # actually evaluated (decision-cache misses that ran the re-execution
    # optimizer + scheduler) — on a warm cache it approaches zero while
    # ``evaluations`` stays constant.
    cache_hits: int = field(default=0, compare=False)
    cache_misses: int = field(default=0, compare=False)
    points_computed: int = field(default=0, compare=False)

    # ------------------------------------------------------------------
    @property
    def meets_deadline(self) -> bool:
        return self.schedule_length <= self.deadline

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of engine cache lookups served from cache (0.0 if none)."""
        lookups = self.cache_hits + self.cache_misses
        if not lookups:
            return 0.0
        return self.cache_hits / lookups

    def is_accepted(self, max_architecture_cost: Optional[float] = None) -> bool:
        """Paper acceptance criterion: reliable, schedulable, affordable."""
        if not self.feasible:
            return False
        if not self.meets_reliability or not self.meets_deadline:
            return False
        if max_architecture_cost is not None and self.cost > max_architecture_cost:
            return False
        return True

    def summary(self) -> str:
        """One-line human-readable summary used by the CLI and examples."""
        if not self.feasible:
            return (
                f"[{self.strategy}] {self.application}: infeasible"
                + (f" ({self.failure_reason})" if self.failure_reason else "")
            )
        nodes = ", ".join(
            f"{name}={self.node_types.get(name, '?')}^h{self.hardening.get(name, '?')}"
            f"(k={self.reexecutions.get(name, 0)})"
            for name in sorted(self.hardening)
        )
        return (
            f"[{self.strategy}] {self.application}: cost={self.cost:.1f}, "
            f"SL={self.schedule_length:.1f}/{self.deadline:.1f} ms, "
            f"reliable={self.meets_reliability}, nodes: {nodes}"
        )


def infeasible_result(
    strategy: str,
    application: str,
    reason: str,
    evaluations: int = 0,
    cache_hits: int = 0,
    cache_misses: int = 0,
    points_computed: int = 0,
) -> DesignResult:
    """Convenience constructor for an infeasible design outcome."""
    return DesignResult(
        strategy=strategy,
        application=application,
        feasible=False,
        failure_reason=reason,
        evaluations=evaluations,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        points_computed=points_computed,
    )


def acceptance_rate(
    results: List[DesignResult], max_architecture_cost: Optional[float] = None
) -> float:
    """Fraction (0..1) of results accepted under the given cost cap."""
    if not results:
        return 0.0
    accepted = sum(1 for result in results if result.is_accepted(max_architecture_cost))
    return accepted / len(results)
