"""Static list scheduler with shared recovery slack.

This implements the ``Scheduling`` building block of the paper (Section 6.4),
adapted from the authors' earlier work [7, 15]:

1. Build the fault-free *root schedule*: processes are scheduled on their
   mapped nodes with list scheduling driven by partial-critical-path
   priorities; inter-node messages are scheduled on the shared bus in the
   order their consumers are placed.
2. Reserve recovery slack per node: after the last process of node ``Nj`` a
   slack of ``k_j * (max_i t_ijh + mu_i)`` is kept free so that up to ``k_j``
   re-executions (each preceded by the recovery overhead ``mu``) fit in the
   worst case.  The slack is shared between the processes of the node
   (see :mod:`repro.scheduling.slack`).
3. The worst-case schedule length is the latest node completion including its
   slack; it is the value compared against the deadline by every heuristic.

The scheduler is deterministic: ties in priority are broken by process name so
that repeated runs over the same inputs produce identical schedules (important
both for reproducibility of the experiments and for the tabu-search mapping
heuristic, which compares schedule lengths across small perturbations).

The root-schedule construction itself (priorities, layer placement, bus
reservation, recovery slack) runs in a pluggable *scheduler kernel backend*
(:mod:`repro.kernels.sched_base`): ``reference`` is the per-object loop this
class historically inlined, ``flat`` compiles the application into
integer-indexed tables (the default).  Both backends are bit-identical —
selection (``--sched-kernel``) is a speed knob only and never part of an
evaluation-engine cache key.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Union

from repro.comm.bus import Bus, SimpleBus
from repro.core.application import Application
from repro.core.architecture import Architecture
from repro.core.exceptions import SchedulingError
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.kernels.registry import resolve_sched_kernel
from repro.kernels.sched_base import (
    SchedulerKernel,
    ScheduleStructure,
    SchedulingProblem,
)
from repro.scheduling.schedule import Schedule

#: Accepted ``kernel=`` selections: an instance, a backend name or ``None``.
SchedulerKernelSpec = Union[SchedulerKernel, str, None]


class ListScheduler:
    """List scheduler producing root schedules with recovery slack.

    Parameters
    ----------
    bus:
        Bus model used for inter-node messages.  Defaults to a fresh
        :class:`~repro.comm.bus.SimpleBus`; a TDMA bus can be supplied for
        time-triggered platforms.
    slack_sharing:
        When ``True`` (default, the paper's approach) the recovery slack of a
        node covers the worst single victim ``k_j`` times; when ``False`` the
        naive per-process slack is reserved instead (ablation baseline).
    kernel:
        Scheduler kernel backend running the root-schedule construction (an
        instance, a backend name, or ``None`` for the active selection).
        A speed knob only: both backends are bit-identical.
    """

    def __init__(
        self,
        bus: Optional[Bus] = None,
        slack_sharing: bool = True,
        kernel: SchedulerKernelSpec = None,
    ) -> None:
        self.bus = bus if bus is not None else SimpleBus()
        self.slack_sharing = slack_sharing
        self.kernel = resolve_sched_kernel(kernel)
        # One-slot memo of the application's static structure (scheduling
        # layers and per-process incoming messages).  The DSE stack schedules
        # the same application thousands of times in a row.  The memo holds a
        # strong reference to the application (so a recycled object address
        # can never alias a dead one) and re-derives when the identity or the
        # structural token — process/message names, edge endpoints and
        # transmission times — changes, so in-place graph edits that preserve
        # the process/message counts still invalidate it.
        self._structure_app: Optional[Application] = None
        self._structure: Optional[ScheduleStructure] = None

    def _application_structure(self, application: Application) -> ScheduleStructure:
        """Static scheduling structure: (layers, incoming messages, token).

        ``layers`` concatenates the topological generations of every task
        graph: all processes of layer ``i`` have their predecessors in layers
        ``< i``, which is exactly the set the ready-list loop would discover
        batch by batch — but precomputed once instead of rescanned per call.
        """
        token = application.structure_token()
        structure = self._structure
        if (
            self._structure_app is not application
            or structure is None
            or structure.token != token
        ):
            graph_generations = [
                graph.topological_generations() for graph in application.graphs
            ]
            depth = max((len(g) for g in graph_generations), default=0)
            layers: List[List[str]] = []
            for level in range(depth):
                layer: List[str] = []
                for generations in graph_generations:
                    if level < len(generations):
                        layer.extend(generations[level])
                layers.append(layer)
            incoming: Dict[str, List] = {}
            for graph in application.graphs:
                for process in graph.process_names:
                    incoming[process] = graph.incoming_messages(process)
            structure = ScheduleStructure(token=token, layers=layers, incoming=incoming)
            self._structure = structure
            self._structure_app = application
        return structure

    # ------------------------------------------------------------------
    def schedule(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
        reexecutions: Optional[Mapping[str, int]] = None,
    ) -> Schedule:
        """Build the static schedule for one application iteration.

        Parameters
        ----------
        reexecutions:
            Re-execution budget ``k_j`` per node name; omitted nodes get 0.
        """
        mapping.validate(application, architecture, profile)
        budgets: Dict[str, int] = {node.name: 0 for node in architecture}
        if reexecutions:
            for name, value in reexecutions.items():
                if name not in budgets:
                    raise SchedulingError(
                        f"Re-execution budget given for unknown node {name}"
                    )
                if value < 0:
                    raise SchedulingError(
                        f"Re-execution budget of node {name} must be >= 0, got {value}"
                    )
                budgets[name] = int(value)

        problem = SchedulingProblem(
            application=application,
            architecture=architecture,
            mapping=mapping,
            profile=profile,
            budgets=budgets,
            bus=self.bus,
            slack_sharing=self.slack_sharing,
            structure=self._application_structure(application),
        )
        return self.kernel.build_schedule(problem)
