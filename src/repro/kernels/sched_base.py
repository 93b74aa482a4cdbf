"""Kernel backend interface for root-schedule construction.

A *scheduler kernel* implements the inner loop of the list scheduler
(Section 6.4): partial-critical-path priorities, layer-by-layer process
placement, bus reservation and the per-node recovery-slack computation.
:class:`~repro.scheduling.list_scheduler.ListScheduler` stays the public
entry point — it validates inputs, normalizes re-execution budgets and
memoizes the application's static structure — and hands the resulting
:class:`SchedulingProblem` to the selected backend.

The backend contract mirrors the SFP kernels (:mod:`repro.kernels.base`):
**bit identity**.  Every scheduler kernel must return, for every
input, a :class:`~repro.scheduling.schedule.Schedule` that is value-equal
(``Schedule.__eq__``) to the one the ``reference`` backend produces — every
process window, message window, recovery-slack reservation and budget, down
to the last float bit.  All schedule arithmetic is max/+ chains over the same
input floats, so a backend is free to reorganize *how* the chains are
evaluated (integer-indexed tables, flat reservation arrays) but never *what*
comes out.  Because of this, the kernel selection is deliberately **not**
part of any evaluation-engine cache key: cached design points stay valid
across kernel switches.

Kernels may keep a compiled representation of the application between calls
and are therefore **not** thread-safe; the process-parallel sweep gives each
worker its own instances (module state is per process).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.comm.bus import Bus
    from repro.core.application import Application, Message
    from repro.core.architecture import Architecture
    from repro.core.mapping_model import ProcessMapping
    from repro.core.profile import ExecutionProfile
    from repro.scheduling.schedule import Schedule


@dataclass(frozen=True)
class ScheduleStructure:
    """Static scheduling structure of one application, memoized upstream.

    ``layers`` concatenates the topological generations of every task graph
    (each layer is exactly one ready set of the original ready-list loop);
    ``incoming`` maps each process to its incoming messages.  ``token`` is the
    application's structural token (see ``Application.structure_token``): a
    new token means a new structure object, which is what kernel-side
    compilation caches key their identity checks on.
    """

    token: Tuple[object, ...]
    layers: List[List[str]]
    incoming: Dict[str, List["Message"]]


@dataclass(frozen=True)
class SchedulingProblem:
    """Everything one root-schedule construction depends on.

    ``budgets`` is the normalized re-execution budget per node (every node of
    the architecture has an entry); ``structure`` is the memoized static
    structure of ``application``.  The mapping has already been validated
    against the architecture and profile.
    """

    application: "Application"
    architecture: "Architecture"
    mapping: "ProcessMapping"
    profile: "ExecutionProfile"
    budgets: Dict[str, int]
    bus: "Bus"
    slack_sharing: bool
    structure: ScheduleStructure


class SchedulerKernel:
    """Abstract scheduler kernel backend.

    Subclasses set :attr:`name` (the ``--sched-kernel`` identifier) and a
    one-line :attr:`description`.
    """

    #: Backend name, also accepted by ``--sched-kernel``.
    name: str = ""
    #: One-line human description shown by the CLI/benchmark artifacts.
    description: str = ""

    def build_schedule(self, problem: SchedulingProblem) -> "Schedule":
        """Construct the root schedule (with recovery slack) for ``problem``."""
        raise NotImplementedError

    def batch_schedule(self, problems: List[SchedulingProblem]) -> List["Schedule"]:
        """Construct root schedules for a block of problems, one per call.

        Each returned schedule is the corresponding :meth:`build_schedule`
        result, in row order.  No DSE layer calls it; it stays as the block
        entry point the ``perfbench`` tracer wraps by name.
        """
        return [self.build_schedule(problem) for problem in problems]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
