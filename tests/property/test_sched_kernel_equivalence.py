"""Bit-identity property suite for the pluggable scheduler kernel backends.

Every scheduler backend must return, for every input, a
``Schedule`` that is value-equal (``Schedule.__eq__`` — every process window,
message window, recovery-slack reservation, budget and hardening level, down
to the last float bit) to the one the ``reference`` backend produces.  This
is the contract that makes ``--sched-kernel`` a pure speed knob and keeps
memoized/persisted design points valid across backends.

Hypothesis drives randomized problems through every backend:

* random DAGs (not just chains) with random WCETs, transmission times and
  recovery overheads, mapped arbitrarily onto 2-3 nodes with mixed hardening
  levels — so layers contain real priority ties, intra- and inter-node
  messages coexist, and some nodes may be left empty;
* both bus models: ``SimpleBus`` and ``TDMABus``, the latter including slot
  lengths a message fills *exactly* (``duration == slot_length``, the
  boundary of the fits-in-slot check) and zero-duration messages (which
  disable the flat backend's sorted-finish scan shortcut);
* naive and shared recovery slack, budgets 0..3 per node.

Equality is asserted with exact ``==`` on purpose — close is not a thing
here.  The seeded worst-case length and the adopted bus reservations are
checked against their lazily recomputed counterparts as well, so the flat
backend's fast paths cannot drift from the observable state a ``reserve``
call sequence would have left behind.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.bus import SimpleBus, TDMABus
from repro.core.application import Application, Message, Process
from repro.core.architecture import Architecture, HVersion, Node, NodeType
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.kernels import SCHED_KERNELS, get_sched_kernel
from repro.kernels.sched_reference import ReferenceSchedulerKernel
from repro.scheduling.list_scheduler import ListScheduler

REFERENCE = get_sched_kernel("reference")

#: All non-reference backends (the property is trivially true for reference).
OTHER_KERNELS = [name for name in SCHED_KERNELS if name != "reference"]

NODE_NAMES = ("NA", "NB", "NC")

#: WCETs/durations drawn from a small float pool on purpose: repeated values
#: provoke priority ties (resolved by process name) and same-start windows,
#: where ordering bugs between backends would otherwise hide.
DURATION = st.sampled_from([1.0, 2.0, 2.5, 3.0, 7.0, 10.0, 12.5])
TRANSMISSION = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])


@st.composite
def dag_problems(draw):
    """A random scheduling problem: DAG, platform, mapping, budgets, bus."""
    n_processes = draw(st.integers(min_value=1, max_value=9))
    n_nodes = draw(st.integers(min_value=2, max_value=3))
    node_names = NODE_NAMES[:n_nodes]

    application = Application(
        "prop", deadline=100_000.0, reliability_goal=0.9,
        recovery_overhead=draw(st.sampled_from([0.0, 1.0, 5.0])),
    )
    graph = application.new_graph("G")
    for index in range(n_processes):
        graph.add_process(Process(f"P{index}", nominal_wcet=10.0))
    # Random DAG: any (i, j) with i < j may carry a message, so generated
    # layers range from one wide layer (no edges) to a single chain.
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_processes - 1),
                st.integers(min_value=0, max_value=n_processes - 1),
            ).filter(lambda pair: pair[0] < pair[1]),
            unique=True,
            max_size=2 * n_processes,
        )
    )
    max_transmission = 0.0
    for source, destination in edges:
        transmission = draw(TRANSMISSION)
        max_transmission = max(max_transmission, transmission)
        graph.add_message(
            Message(
                f"m{source}_{destination}",
                f"P{source}",
                f"P{destination}",
                transmission_time=transmission,
            )
        )

    node_types = [
        NodeType(f"T{name}", [HVersion(1, 1.0), HVersion(2, 2.0)])
        for name in node_names
    ]
    profile = ExecutionProfile()
    for index in range(n_processes):
        for node_type in node_types:
            for level in (1, 2):
                profile.add_entry(
                    f"P{index}", node_type.name, level, draw(DURATION), 1e-6
                )
    architecture = Architecture(
        [
            Node(name, node_type, hardening=draw(st.sampled_from([1, 2])))
            for name, node_type in zip(node_names, node_types)
        ]
    )
    mapping = ProcessMapping(
        {
            f"P{index}": draw(st.sampled_from(node_names))
            for index in range(n_processes)
        }
    )
    budgets = {
        name: draw(st.integers(min_value=0, max_value=3)) for name in node_names
    }
    slack_sharing = draw(st.booleans())

    if draw(st.booleans()):
        # Slot lengths down to the largest transmission time exactly: a
        # message may fill its sender's slot with zero margin.
        slot_length = max(max_transmission, draw(st.sampled_from([0.5, 1.0, 3.0, 4.0])))
        make_bus = lambda: TDMABus(slot_order=list(node_names), slot_length=slot_length)
    else:
        make_bus = SimpleBus

    return application, architecture, mapping, profile, budgets, slack_sharing, make_bus


def _schedule_with(kernel_name, problem):
    """Run one backend on its own bus instance; return (schedule, bus)."""
    application, architecture, mapping, profile, budgets, slack_sharing, make_bus = problem
    bus = make_bus()
    scheduler = ListScheduler(bus=bus, slack_sharing=slack_sharing, kernel=kernel_name)
    schedule = scheduler.schedule(application, architecture, mapping, profile, budgets)
    return schedule, bus


@pytest.mark.parametrize("name", OTHER_KERNELS)
@given(problem=dag_problems())
@settings(max_examples=150, deadline=None)
def test_schedules_value_equal_across_backends(name, problem):
    expected, reference_bus = _schedule_with("reference", problem)
    produced, bus = _schedule_with(name, problem)
    assert produced == expected, (
        f"{name} drifted from reference:\n"
        f"produced:\n{produced.as_gantt_text()}\n"
        f"expected:\n{expected.as_gantt_text()}"
    )
    # Equal schedules must agree on every derived quantity bit for bit.
    assert produced.length == expected.length
    assert produced.fault_free_length == expected.fault_free_length
    assert hash(produced) == hash(expected)
    # The backend must leave the bus in the state the reference reserve
    # sequence produces (adopted windows materialize to equal reservations).
    assert bus.reservations == reference_bus.reservations


@pytest.mark.parametrize("name", OTHER_KERNELS)
@given(problem=dag_problems())
@settings(max_examples=60, deadline=None)
def test_seeded_length_matches_lazy_recomputation(name, problem):
    """The kernel-seeded worst-case length is the float the property computes."""
    produced, _ = _schedule_with(name, problem)
    seeded = produced.length
    produced._length = None  # force the lazy per-node recomputation
    assert produced.length == seeded


@pytest.mark.parametrize("name", OTHER_KERNELS)
@given(problem=dag_problems())
@settings(max_examples=40, deadline=None)
def test_backends_validate_and_reuse_structures(name, problem):
    """Back-to-back runs on one scheduler instance stay identical (memo reuse)."""
    application, architecture, mapping, profile, budgets, slack_sharing, make_bus = problem
    scheduler = ListScheduler(
        bus=make_bus(), slack_sharing=slack_sharing, kernel=name
    )
    first = scheduler.schedule(application, architecture, mapping, profile, budgets)
    first.validate()
    second = scheduler.schedule(application, architecture, mapping, profile, budgets)
    assert second == first


# ----------------------------------------------------------------------
# Deterministic TDMA boundary cases.
# ----------------------------------------------------------------------
def _two_node_problem(transmission, slot_length):
    """P0 on NA feeds P1 on NB over a TDMA bus."""
    application = Application(
        "tdma", deadline=10_000.0, reliability_goal=0.9, recovery_overhead=1.0
    )
    graph = application.new_graph("G")
    graph.add_process(Process("P0", nominal_wcet=5.0))
    graph.add_process(Process("P1", nominal_wcet=5.0))
    graph.add_message(Message("m0", "P0", "P1", transmission_time=transmission))
    node_types = [NodeType("TA", [HVersion(1, 1.0)]), NodeType("TB", [HVersion(1, 1.0)])]
    profile = ExecutionProfile()
    for process in ("P0", "P1"):
        for node_type in node_types:
            profile.add_entry(process, node_type.name, 1, 5.0, 1e-6)
    architecture = Architecture(
        [Node("NA", node_types[0]), Node("NB", node_types[1])]
    )
    mapping = ProcessMapping({"P0": "NA", "P1": "NB"})
    budgets = {"NA": 1, "NB": 1}
    make_bus = lambda: TDMABus(slot_order=["NA", "NB"], slot_length=slot_length)
    return application, architecture, mapping, profile, budgets, True, make_bus


@pytest.mark.parametrize("name", OTHER_KERNELS)
def test_message_exactly_filling_tdma_slot(name):
    """duration == slot_length is feasible and bit-identical across backends."""
    problem = _two_node_problem(transmission=4.0, slot_length=4.0)
    expected, _ = _schedule_with("reference", problem)
    produced, _ = _schedule_with(name, problem)
    assert produced == expected
    entry = produced.message_entry("m0")
    assert entry.duration == 4.0
    # The window must sit flush inside one of NA's slots (slot 0 of each
    # 8 ms round), not straddle a boundary.
    assert entry.start % 8.0 == 0.0


@pytest.mark.parametrize("name", list(SCHED_KERNELS))
def test_oversized_tdma_message_rejected_identically(name):
    from repro.core.exceptions import SchedulingError

    problem = _two_node_problem(transmission=4.5, slot_length=4.0)
    with pytest.raises(SchedulingError, match="does not fit into a TDMA slot"):
        _schedule_with(name, problem)


def test_reference_is_the_reference():
    """The registry's ``reference`` entry is the per-object specification."""
    assert type(REFERENCE) is ReferenceSchedulerKernel
