"""Flat scheduler kernel — integer-indexed tables over preallocated arrays.

The per-object reference path spends most of a design-point evaluation in
string-keyed dictionary traffic: every placed process re-hashes its name to
find its node, its priority, its producers and its WCET, and every bus
message pays a :class:`~repro.comm.bus.BusReservation` round-trip through
``Bus.reserve``.  This backend compiles the memoized application structure
once into integer-indexed tables —

* process/node/message ids (names appear only in the final ``Schedule``),
* per ``(node type, hardening)`` WCET rows over all process ids,
* flat incoming-message and successor CSR tuples,

— and then runs priorities, layer placement and the ``SimpleBus``/``TDMABus``
gap search over plain float lists indexed by those ids.  The float arithmetic
is the exact operation sequence of the reference backend (same max/+ chains,
same reservation-scan order, same tie-breaks), so the resulting ``Schedule``
is value-equal bit for bit; the property suite and the golden fixtures pin
this.

Buses other than exactly ``SimpleBus`` / ``TDMABus`` may override
``_find_window`` with arbitrary policies the flat gap search cannot
reproduce, so those problems are delegated to the ``reference`` backend
rather than guessed at.

The compiled tables are cached per (structure, profile) identity — the
list scheduler memoizes the structure object, so the cache holds across the
thousands of design points of one exploration and recompiles only when the
application actually changes.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.comm.bus import SimpleBus, TDMABus
from repro.core.exceptions import SchedulingError
from repro.kernels.sched_base import (
    ScheduleStructure,
    SchedulerKernel,
    SchedulingProblem,
)
from repro.scheduling.schedule import Schedule, ScheduledMessage, ScheduledProcess

if TYPE_CHECKING:
    from repro.core.application import Application
    from repro.core.profile import ExecutionProfile

#: Name of the fallback backend for bus models the flat tables cannot honour.
_REFERENCE_NAME = "reference"

#: Bypass for the frozen-dataclass __setattr__ when handing a ready-made
#: __dict__ to a __new__-allocated output entry (see build_schedule).
_SET_ATTR = object.__setattr__


class _CompiledApplication:
    """Integer-indexed tables for one (application structure, profile) pair."""

    __slots__ = (
        "structure",
        "profile",
        "profile_version",
        "recovery_version",
        "names",
        "index",
        "layers",
        "in_edges",
        "rev_order",
        "succ_edges",
        "mu",
        "_entries",
        "_versions",
    )

    def __init__(
        self,
        structure: ScheduleStructure,
        application: Application,
        profile: ExecutionProfile,
    ) -> None:
        self.structure = structure
        self.profile = profile
        self.profile_version = profile.version
        self.recovery_version = application.recovery_version
        names: List[str] = []
        index: Dict[str, int] = {}
        for graph in application.graphs:
            for name in graph.process_names:
                index[name] = len(names)
                names.append(name)
        self.names = names
        self.index = index
        count = len(names)

        # Layers pre-sorted by process name: the per-call ordering sorts each
        # layer by descending priority with a *stable* sort, which then
        # reproduces the reference (-priority, name) tie-break without
        # building a tuple key per process per design point.
        self.layers = [
            [index[name] for name in sorted(layer)] for layer in structure.layers
        ]
        # Incoming CSR: (producer id, message name, producer name, duration)
        # per consumer, in the exact order the reference loop visits them.
        in_edges: List[Tuple] = [()] * count
        for name, messages in structure.incoming.items():
            in_edges[index[name]] = tuple(
                (index[message.source], message.name, message.source,
                 message.transmission_time)
                for message in messages
            )
        self.in_edges = in_edges

        # Priority walk: reversed topological order per graph, successor ids
        # with message durations, matching critical_path_priorities exactly
        # (a message always exists on an edge; adding 0.0 for a hypothetical
        # message-less edge is float-identical to not adding).
        rev_order: List[int] = []
        succ_edges: List[Tuple] = [()] * count
        for graph in application.graphs:
            successor_map = graph.adjacency_maps()[1]
            message_between = graph.message_between
            topological = graph.topological_order()
            for name in reversed(topological):
                rev_order.append(index[name])
            for name in topological:
                entries = []
                for successor in successor_map[name]:
                    message = message_between(name, successor)
                    entries.append(
                        (
                            index[successor],
                            message.transmission_time if message is not None else 0.0,
                        )
                    )
                succ_edges[index[name]] = tuple(entries)
        self.rev_order = rev_order
        self.succ_edges = succ_edges

        self.mu = [application.recovery_overhead_of(name) for name in names]
        self._entries = profile.entries()
        # WCET rows per (node type, hardening), built on first use; ``None``
        # marks a missing profile entry (never queried for validated
        # mappings, reported with the reference ProfileError if it is).
        self._versions: Dict[Tuple[str, int], List[Optional[float]]] = {}

    def wcet_row(self, type_name: str, hardening: int) -> List[Optional[float]]:
        key = (type_name, hardening)
        row = self._versions.get(key)
        if row is None:
            entries = self._entries
            row = [
                entry.wcet if entry is not None else None
                for entry in (
                    entries.get((name, type_name, hardening)) for name in self.names
                )
            ]
            self._versions[key] = row
        return row


class FlatSchedulerKernel(SchedulerKernel):
    """Integer-id placement + flat-array bus gap search (bit-identical)."""

    name = "flat"
    description = "integer-indexed tables and flat bus reservation arrays"

    def __init__(self) -> None:
        self._compiled: Optional[_CompiledApplication] = None
        # One-slot memo of the mapping-derived tables (node id per process,
        # process ids per node).  The redundancy optimizer evaluates many
        # hardening vectors for the same mapping object in a row; the guard
        # is (compiled, mapping identity, mapping version, node-name order).
        self._mapping_memo: Optional[Tuple] = None

    # ------------------------------------------------------------------
    def _compile(self, problem: SchedulingProblem) -> _CompiledApplication:
        compiled = self._compiled
        # The list scheduler re-creates the structure object whenever the
        # application's structural token changes, and the compiled object
        # keeps strong references, so a recycled address can never alias a
        # dead structure/profile.  Identity alone does not cover *in-place*
        # edits of the snapshotted tables, so the profile's and the
        # application's recovery-overhead mutation counters are part of the
        # guard: overwriting a WCET entry or a mu value recompiles instead of
        # silently replaying stale floats.
        if (
            compiled is None
            or compiled.structure is not problem.structure
            or compiled.profile is not problem.profile
            or compiled.profile_version != problem.profile.version
            or compiled.recovery_version != problem.application.recovery_version
        ):
            compiled = _CompiledApplication(
                problem.structure, problem.application, problem.profile
            )
            self._compiled = compiled
        return compiled

    # ------------------------------------------------------------------
    def build_schedule(self, problem: SchedulingProblem) -> Schedule:
        bus = problem.bus
        bus_type = type(bus)
        tdma = bus_type is TDMABus
        if not tdma and bus_type is not SimpleBus:
            # Unknown bus subclass: its _find_window may implement any
            # policy; only the reference backend can honour it.
            from repro.kernels.registry import get_sched_kernel

            return get_sched_kernel(_REFERENCE_NAME).build_schedule(problem)

        compiled = self._compile(problem)
        architecture = problem.architecture
        mapping = problem.mapping
        names = compiled.names
        index = compiled.index
        count = len(names)

        # --- per-design-point node tables ------------------------------
        node_names: List[str] = []
        node_rows: List[List[Optional[float]]] = []
        node_keys: List[Tuple[str, int]] = []
        node_index: Dict[str, int] = {}
        for node in architecture:
            node_index[node.name] = len(node_names)
            node_names.append(node.name)
            key = (node.node_type.name, node.hardening)
            node_keys.append(key)
            node_rows.append(compiled.wcet_row(*key))
        n_nodes = len(node_names)

        memo = self._mapping_memo
        if (
            memo is not None
            and memo[0] is compiled
            and memo[1] is mapping
            and memo[2] == mapping.version
            and memo[3] == node_names
        ):
            node_idx_of, on_node = memo[4], memo[5]
        else:
            node_idx_of = [0] * count
            on_node = [[] for _ in range(n_nodes)]
            for name, node_name in mapping.items():
                p = index[name]
                n = node_index[node_name]
                node_idx_of[p] = n
                on_node[n].append(p)
            self._mapping_memo = (
                compiled, mapping, mapping.version, list(node_names),
                node_idx_of, on_node,
            )

        # --- priorities (bit-identical to critical_path_priorities) ----
        # The reversed-topological walk visits every process exactly once,
        # so the per-process WCET resolution is fused into it.
        wcet_of = [0.0] * count
        priority = [0.0] * count
        succ_edges = compiled.succ_edges
        for p in compiled.rev_order:
            own_node = node_idx_of[p]
            wcet = node_rows[own_node][p]
            if wcet is None:
                # Raise the identical ProfileError of the per-object path.
                problem.profile.wcet(names[p], *node_keys[own_node])
            wcet_of[p] = wcet
            best_tail = 0.0
            for successor, duration in succ_edges[p]:
                tail = priority[successor]
                if node_idx_of[successor] != own_node:
                    tail += duration
                if tail > best_tail:
                    best_tail = tail
            priority[p] = wcet + best_tail

        # --- placement over flat arrays --------------------------------
        bus.reset()
        finish = [0.0] * count
        node_free = [0.0] * n_nodes
        processes_by_name: Dict[str, ScheduledProcess] = {}
        messages_by_name: Dict[str, ScheduledMessage] = {}
        max_message_finish = 0.0
        # Bus reservation windows, kept sorted by start time (parallel
        # arrays; ``windows`` carries the raw tuples the bus adopts lazily).
        res_start: List[float] = []
        res_finish: List[float] = []
        windows: List[Tuple[str, str, float, float]] = []
        if tdma:
            slot_length = bus.slot_length
            round_length = bus.round_length
            slot_index = {node: i for i, node in enumerate(bus.slot_order)}
            # Slot-indexed free-list: per slot, the granted windows sorted by
            # start time.  Every TDMA window lies inside one occurrence of
            # its sender's slot and distinct slots never share an instant
            # beyond boundary points, so a candidate can only ever conflict
            # with same-slot reservations — the gap search scans one short
            # sorted list (bisect + walk) instead of every bus reservation.
            slot_starts: List[List[float]] = [[] for _ in slot_index]
            slot_finishes: List[List[float]] = [[] for _ in slot_index]
            # The bisect walk needs the per-slot intervals pairwise disjoint,
            # which positive durations guarantee; the first zero-duration
            # grant in a slot drops that slot back to the full conflict scan.
            slot_clean: List[bool] = [True] * len(slot_index)

        # The output entries are frozen dataclasses whose generated __init__
        # assigns every field through object.__setattr__; handing __new__
        # instances a ready-made __dict__ produces identical objects (same
        # fields, same __eq__ / __hash__) at a fraction of the cost, which
        # matters at one object per process and message for every design
        # point of a sweep.
        new_message = ScheduledMessage.__new__
        new_process = ScheduledProcess.__new__
        in_edges = compiled.in_edges
        # While every granted window has positive duration the windows are
        # pairwise disjoint, so sorting by start also sorts by finish and a
        # bisect can skip the already-finished prefix of the gap scan.  The
        # first zero-duration reservation (zero-size message) drops back to
        # the reference full scan.
        finish_sorted = True
        for layer in compiled.layers:
            if len(layer) > 1:
                layer = sorted(layer, key=priority.__getitem__, reverse=True)
            for p in layer:
                n = node_idx_of[p]
                earliest = node_free[n]
                for producer, message_name, producer_name, duration in in_edges[p]:
                    pn = node_idx_of[producer]
                    ready = finish[producer]
                    if pn == n:
                        if ready > earliest:
                            earliest = ready
                        continue
                    sender = node_names[pn]
                    if tdma:
                        slot = slot_index.get(sender)
                        if slot is None:
                            raise SchedulingError(
                                f"Node {sender} owns no TDMA slot; slot order "
                                f"is {bus.slot_order}"
                            )
                        window = self._tdma_window(
                            ready, duration,
                            slot_starts[slot], slot_finishes[slot],
                            slot_clean[slot],
                            slot, slot_length, round_length,
                        )
                    else:
                        # SimpleBus._earliest_gap over the flat arrays.  A
                        # reservation with finish <= candidate can neither
                        # end the scan (its start precedes the candidate)
                        # nor move it, so the sorted-finish prefix is safely
                        # skipped when positive durations guarantee it.
                        candidate = ready
                        if finish_sorted and duration > 0.0:
                            scan = bisect_right(res_finish, candidate)
                        else:
                            scan = 0
                        for k in range(scan, len(res_start)):
                            if candidate + duration <= res_start[k]:
                                break
                            held = res_finish[k]
                            if candidate < held:
                                candidate = held
                        window = candidate
                    window_finish = window + duration
                    if window_finish == window:
                        finish_sorted = False
                    if tdma:
                        at_slot = bisect_right(slot_starts[slot], window)
                        slot_starts[slot].insert(at_slot, window)
                        slot_finishes[slot].insert(at_slot, window_finish)
                        if window_finish == window:
                            slot_clean[slot] = False
                    at = bisect_right(res_start, window)
                    res_start.insert(at, window)
                    res_finish.insert(at, window_finish)
                    windows.insert(
                        at, (message_name, sender, window, window_finish)
                    )
                    entry = new_message(ScheduledMessage)
                    _SET_ATTR(entry, "__dict__", {
                        "message": message_name,
                        "source_process": producer_name,
                        "destination_process": names[p],
                        "source_node": sender,
                        "destination_node": node_names[n],
                        "start": window,
                        "finish": window_finish,
                    })
                    messages_by_name[message_name] = entry
                    if window_finish > max_message_finish:
                        max_message_finish = window_finish
                    if window_finish > earliest:
                        earliest = window_finish
                done = earliest + wcet_of[p]
                finish[p] = done
                node_free[n] = done
                entry = new_process(ScheduledProcess)
                _SET_ATTR(entry, "__dict__", {
                    "process": names[p],
                    "node": node_names[n],
                    "start": earliest,
                    "finish": done,
                })
                processes_by_name[names[p]] = entry

        bus.adopt_reservations(windows)

        # --- recovery slack --------------------------------------------
        # Inlined shared/naive slack over the flat arrays: the same
        # ``budget * max_i(t + mu)`` / ``budget * sum_i(t + mu)`` chains as
        # repro.scheduling.slack, iterated in mapping order exactly like the
        # reference's processes_on scan (the list scheduler already rejected
        # negative budgets).
        sharing = problem.slack_sharing
        budgets = problem.budgets
        mu = compiled.mu
        slack: Dict[str, float] = {}
        for n in range(n_nodes):
            budget = budgets.get(node_names[n], 0)
            mapped = on_node[n]
            if not mapped or budget == 0:
                slack[node_names[n]] = 0.0
                continue
            if sharing:
                slack[node_names[n]] = budget * max(
                    wcet_of[p] + mu[p] for p in mapped
                )
            else:
                slack[node_names[n]] = budget * sum(
                    wcet_of[p] + mu[p] for p in mapped
                )

        schedule = Schedule.from_kernel(
            processes_by_name=processes_by_name,
            messages_by_name=messages_by_name,
            node_recovery_slack=slack,
            reexecutions=budgets,
            hardening={node_names[n]: node_keys[n][1] for n in range(n_nodes)},
        )
        # The worst-case length is already on hand: per-node completions are
        # the final node_free values and max over the same floats yields the
        # same float the lazy property would compute — seed it so the caller
        # skips the per-node table rebuild.
        length = max_message_finish
        for n in range(n_nodes):
            if on_node[n]:
                worst_case = node_free[n] + slack[node_names[n]]
                if worst_case > length:
                    length = worst_case
        schedule.seed_worst_case_length(length)
        return schedule

    # ------------------------------------------------------------------
    @staticmethod
    def _tdma_window(
        earliest_start: float,
        duration: float,
        starts: List[float],
        finishes: List[float],
        clean: bool,
        slot: int,
        slot_length: float,
        round_length: float,
    ) -> float:
        """``TDMABus._find_window`` over the sender's slot free-list.

        ``starts``/``finishes`` are the sender slot's granted windows sorted
        by start.  With pairwise-disjoint intervals (``clean``) the conflict
        resolution is a bisect into the finish array plus a forward walk —
        the walk visits exactly the contiguous run of conflicting windows the
        reference ``max(blocking)`` bump would jump over, one finish float at
        a time, so the resulting candidate is the identical float.  A slot
        polluted by zero-duration grants (nested intervals possible) keeps
        the reference full scan, restricted to the slot — cross-slot windows
        can never satisfy the strict-overlap predicate.
        """
        if duration > slot_length:
            raise SchedulingError(
                f"Message of duration {duration} ms does not fit into a TDMA slot "
                f"of {slot_length} ms"
            )
        total = len(starts)

        def conflicts(candidate: float) -> bool:
            limit = candidate + duration
            for k in range(total):
                if candidate < finishes[k] and starts[k] < limit:
                    return True
            return False

        round_number = max(0, int(earliest_start // round_length) - 1)
        for _ in range(total + int(1e6)):
            slot_start = round_number * round_length + slot * slot_length
            slot_end = slot_start + slot_length
            candidate = max(slot_start, earliest_start)
            if clean:
                k = bisect_right(finishes, candidate)
                while (
                    candidate + duration <= slot_end
                    and k < total
                    and starts[k] < candidate + duration
                ):
                    candidate = finishes[k]
                    k += 1
                if candidate + duration <= slot_end:
                    return candidate
            else:
                while candidate + duration <= slot_end and conflicts(candidate):
                    blocking = [
                        finishes[k]
                        for k in range(total)
                        if candidate < finishes[k]
                        and starts[k] < candidate + duration
                    ]
                    candidate = max(blocking)
                if candidate + duration <= slot_end and not conflicts(candidate):
                    return candidate
            round_number += 1
        raise SchedulingError(
            f"Could not find a TDMA window in slot {slot} "
            f"(duration {duration} ms after t={earliest_start} ms)"
        )  # pragma: no cover - defensive, loop bound is effectively unreachable
