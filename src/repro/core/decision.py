"""The outcome of one redundancy optimization: a plain value type.

Kept apart from :mod:`repro.core.redundancy` so that code which only
stores or rebuilds decisions (the persistent design-point store's codec)
does not import the optimizer, the list scheduler and, through them, the
kernel backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.scheduling.schedule import Schedule


@dataclass(frozen=True)
class RedundancyDecision:
    """Hardening levels + re-executions + resulting schedule for one mapping."""

    hardening: Dict[str, int]
    reexecutions: Dict[str, int]
    schedule: Schedule
    cost: float
    schedule_length: float
    meets_deadline: bool
    meets_reliability: bool

    @property
    def is_feasible(self) -> bool:
        """Schedulable and reliable — the two hard constraints of the paper."""
        return self.meets_deadline and self.meets_reliability
