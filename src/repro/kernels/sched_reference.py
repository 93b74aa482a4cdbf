"""Reference scheduler kernel — the per-object list-scheduling path.

This is the implementation every other scheduler backend is measured
against: the exact placement loop, bus ``reserve`` calls and recovery-slack
arithmetic that historically lived in
:class:`~repro.scheduling.list_scheduler.ListScheduler` and produced the
paper reproduction's published schedules.  It is deliberately boring — name
keyed dictionaries, one :meth:`~repro.comm.bus.Bus.reserve` call per
inter-node message — so it stays readable as the executable specification
of the scheduler bit-identity contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.kernels.sched_base import SchedulerKernel, SchedulingProblem
from repro.scheduling.priorities import critical_path_priorities
from repro.scheduling.schedule import Schedule, ScheduledMessage, ScheduledProcess
from repro.scheduling.slack import naive_recovery_slack, shared_recovery_slack

if TYPE_CHECKING:
    from repro.comm.bus import Bus
    from repro.core.application import Message
    from repro.core.profile import ExecutionProfile


class ReferenceSchedulerKernel(SchedulerKernel):
    """Per-object list scheduling (the executable bit-identity specification)."""

    name = "reference"
    description = "per-object placement loop with Bus.reserve per message"

    # ------------------------------------------------------------------
    def build_schedule(self, problem: SchedulingProblem) -> Schedule:
        application = problem.application
        architecture = problem.architecture
        mapping = problem.mapping
        profile = problem.profile
        bus = problem.bus

        priorities = critical_path_priorities(application, architecture, mapping, profile)
        scheduled: Dict[str, ScheduledProcess] = {}
        scheduled_messages: List[ScheduledMessage] = []
        node_free: Dict[str, float] = {node.name: 0.0 for node in architecture}
        bus.reset()

        layers = problem.structure.layers
        incoming = problem.structure.incoming
        # Per-call node view: (name, wcet lookup key) resolved once per node
        # instead of re-deriving type/hardening for each placed process.
        node_info: Dict[str, Tuple[str, str, int]] = {
            node.name: (node.name, node.node_type.name, node.hardening)
            for node in architecture
        }
        node_of = mapping.node_of
        for layer in layers:
            for process in sorted(
                layer, key=lambda process: (-priorities[process], process)
            ):
                entry, new_messages = self._place_process(
                    process,
                    incoming[process],
                    node_info[node_of(process)],
                    profile,
                    scheduled,
                    node_free,
                    bus,
                )
                scheduled[process] = entry
                scheduled_messages.extend(new_messages)
                node_free[entry.node] = entry.finish

        slack = self._recovery_slack(problem)
        return Schedule(
            processes=list(scheduled.values()),
            messages=scheduled_messages,
            node_recovery_slack=slack,
            reexecutions=problem.budgets,
            hardening=architecture.hardening_vector(),
        )

    # ------------------------------------------------------------------
    def _place_process(
        self,
        process: str,
        incoming_messages: List[Message],
        node_info: Tuple[str, str, int],
        profile: ExecutionProfile,
        scheduled: Dict[str, ScheduledProcess],
        node_free: Dict[str, float],
        bus: Bus,
    ) -> Tuple[ScheduledProcess, List[ScheduledMessage]]:
        """Compute the execution window of ``process`` and its input messages."""
        node_name, type_name, hardening = node_info
        earliest = node_free[node_name]
        new_messages: List[ScheduledMessage] = []
        for message in incoming_messages:
            producer_entry = scheduled[message.source]
            if producer_entry.node == node_name:
                # Intra-node communication happens through local memory and is
                # available as soon as the producer finishes.
                earliest = max(earliest, producer_entry.finish)
                continue
            reservation = bus.reserve(
                message.name,
                producer_entry.node,
                producer_entry.finish,
                message.transmission_time,
            )
            new_messages.append(
                ScheduledMessage(
                    message=message.name,
                    source_process=message.source,
                    destination_process=message.destination,
                    source_node=producer_entry.node,
                    destination_node=node_name,
                    start=reservation.start,
                    finish=reservation.finish,
                )
            )
            earliest = max(earliest, reservation.finish)
        wcet = profile.wcet(process, type_name, hardening)
        entry = ScheduledProcess(
            process=process, node=node_name, start=earliest, finish=earliest + wcet
        )
        return entry, new_messages

    def _recovery_slack(self, problem: SchedulingProblem) -> Dict[str, float]:
        """Recovery slack reserved at the end of each node's schedule."""
        slack: Dict[str, float] = {}
        slack_function = (
            shared_recovery_slack if problem.slack_sharing else naive_recovery_slack
        )
        application = problem.application
        mapping = problem.mapping
        budgets = problem.budgets
        wcet = problem.profile.wcet
        for node in problem.architecture:
            type_name = node.node_type.name
            hardening = node.hardening
            pairs = [
                (
                    wcet(process, type_name, hardening),
                    application.recovery_overhead_of(process),
                )
                for process in mapping.processes_on(node.name)
            ]
            slack[node.name] = slack_function(pairs, budgets.get(node.name, 0))
        return slack
