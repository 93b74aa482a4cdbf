"""Bit-identity property suite for the batched kernel contract.

The batch entry points — ``SFPKernel.batch_probability_exceeds`` and
``SchedulerKernel.batch_schedule`` — must return, for every block of rows,
exactly the values the scalar entry points return row by row, so batching is
never a semantics knob: results, cached entries and golden fixtures are
identical whether a design point was scored alone or inside a block.

Both backends of each family are swept.  Blocks include ragged rows, empty
rows, duplicate rows, degenerate one-row batches and the empty batch;
rounding accuracies cross the array backend's integer-quanta cutoff.

Equality is asserted with exact ``==`` on purpose — close is not a thing
here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.bus import SimpleBus, TDMABus
from repro.core.application import Application, Message, Process
from repro.core.architecture import Architecture, HVersion, Node, NodeType
from repro.core.exceptions import ModelError
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.kernels import SCHED_KERNELS, SFP_KERNELS, get_kernel
from repro.kernels.array_backend import MAX_FAST_DECIMALS
from repro.kernels.sched_base import SchedulingProblem
from repro.scheduling.list_scheduler import ListScheduler

SFP_REFERENCE = get_kernel("reference")

ALL_SFP = list(SFP_KERNELS)
ALL_SCHED = list(SCHED_KERNELS)

DECIMALS = st.sampled_from([2, 5, 11, MAX_FAST_DECIMALS, MAX_FAST_DECIMALS + 3])

PROBABILITY = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e-9, allow_nan=False),
    st.sampled_from([0.0, 1.0, 0.5, 0.1, 1e-11, 1.2e-5]),
)


@st.composite
def sfp_batches(draw):
    """A ragged block of probability rows with per-row budgets.

    Duplicate rows are provoked on purpose (a drawn row may be repeated) —
    within one batch they must come out identical to their first occurrence.
    """
    n_rows = draw(
        st.one_of(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=16, max_value=24),
        )
    )
    blocks = []
    budgets = []
    for _ in range(n_rows):
        if blocks and draw(st.booleans()) and draw(st.booleans()):
            row = draw(st.sampled_from(blocks))
        else:
            row = draw(st.lists(PROBABILITY, min_size=0, max_size=10))
        blocks.append(row)
        budgets.append(draw(st.integers(min_value=0, max_value=6)))
    return blocks, budgets


@pytest.mark.parametrize("name", ALL_SFP)
@given(batch=sfp_batches(), decimals=DECIMALS)
@settings(max_examples=200, deadline=None)
def test_batch_probability_exceeds_rowwise_identical(name, batch, decimals):
    blocks, budgets = batch
    kernel = get_kernel(name)
    expected = [
        SFP_REFERENCE.probability_exceeds(row, budget, decimals)
        for row, budget in zip(blocks, budgets)
    ]
    produced = kernel.batch_probability_exceeds(blocks, budgets, decimals)
    assert produced == expected, (
        f"{name} batch drifted for {blocks!r}, budgets={budgets}, "
        f"decimals={decimals}"
    )


@pytest.mark.parametrize("name", ALL_SFP)
@given(
    probabilities=st.lists(PROBABILITY, min_size=0, max_size=10),
    budget=st.integers(min_value=0, max_value=6),
    decimals=DECIMALS,
)
@settings(max_examples=100, deadline=None)
def test_one_row_batch_equals_scalar_call(name, probabilities, budget, decimals):
    """The degenerate 1-row batch is the scalar call, bit for bit."""
    kernel = get_kernel(name)
    assert kernel.batch_probability_exceeds(
        [probabilities], [budget], decimals
    ) == [kernel.probability_exceeds(probabilities, budget, decimals)]


@pytest.mark.parametrize("name", ALL_SFP)
def test_empty_batch_returns_empty(name):
    assert get_kernel(name).batch_probability_exceeds([], []) == []


@pytest.mark.parametrize("name", ALL_SFP)
def test_batch_raises_the_scalar_validation_error(name):
    """Bad rows fail with the scalar path's exception (negative budget,
    out-of-range probability), also deep inside a wide block."""
    kernel = get_kernel(name)
    with pytest.raises(ModelError):
        kernel.batch_probability_exceeds([[0.1], [0.2]], [1, -1])
    with pytest.raises(ValueError):
        kernel.batch_probability_exceeds([[0.1], [1.5]], [1, 1])
    wide = [[0.1]] * 19 + [[1.5]]
    with pytest.raises(ValueError):
        kernel.batch_probability_exceeds(wide, [1] * 20)


# ----------------------------------------------------------------------
# scheduler family
# ----------------------------------------------------------------------
NODE_NAMES = ("NA", "NB", "NC")
DURATION = st.sampled_from([1.0, 2.0, 2.5, 3.0, 7.0, 10.0])
TRANSMISSION = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@st.composite
def sched_batches(draw):
    """A base DAG problem plus 1..4 sibling rows.

    The rows vary exactly what the DSE neighbourhoods vary: per-node
    hardening levels (fresh architecture copies), one-process mapping moves
    and re-execution budgets — all against one application and profile.
    """
    n_processes = draw(st.integers(min_value=1, max_value=6))
    n_nodes = draw(st.integers(min_value=2, max_value=3))
    node_names = NODE_NAMES[:n_nodes]

    application = Application(
        "batch-prop", deadline=100_000.0, reliability_goal=0.9,
        recovery_overhead=draw(st.sampled_from([0.0, 1.0, 5.0])),
    )
    graph = application.new_graph("G")
    for index in range(n_processes):
        graph.add_process(Process(f"P{index}", nominal_wcet=10.0))
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
    base_architecture = Architecture(
        [Node(name, node_type) for name, node_type in zip(node_names, node_types)]
    )
    base_mapping = ProcessMapping(
        {
            f"P{index}": draw(st.sampled_from(node_names))
            for index in range(n_processes)
        }
    )

    n_rows = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for _ in range(n_rows):
        architecture = base_architecture.copy()
        for name in node_names:
            architecture.node(name).hardening = draw(st.sampled_from([1, 2]))
        mapping = base_mapping.copy()
        if draw(st.booleans()):
            process = draw(st.sampled_from(sorted(base_mapping.mapped_names())))
            mapping = mapping.moved(process, draw(st.sampled_from(node_names)))
        budgets = {
            name: draw(st.integers(min_value=0, max_value=3))
            for name in node_names
        }
        rows.append((architecture, mapping, budgets))
    slack_sharing = draw(st.booleans())

    if draw(st.booleans()):
        slot_length = max(
            max_transmission, draw(st.sampled_from([0.5, 1.0, 3.0]))
        )
        make_bus = lambda: TDMABus(  # noqa: E731
            slot_order=list(node_names), slot_length=slot_length
        )
    else:
        make_bus = SimpleBus
    return application, rows, profile, slack_sharing, make_bus


def _schedule_block(scheduler, application, rows, profile):
    """``scheduler.kernel.batch_schedule`` over ``(architecture, mapping,
    budgets)`` rows, each budget map already total over the nodes."""
    structure = scheduler._application_structure(application)
    problems = []
    for architecture, mapping, budgets in rows:
        mapping.validate(application, architecture, profile)
        problems.append(
            SchedulingProblem(
                application=application,
                architecture=architecture,
                mapping=mapping,
                profile=profile,
                budgets=dict(budgets),
                bus=scheduler.bus,
                slack_sharing=scheduler.slack_sharing,
                structure=structure,
            )
        )
    return scheduler.kernel.batch_schedule(problems)


@pytest.mark.parametrize("name", ALL_SCHED)
@given(problem=sched_batches())
@settings(max_examples=75, deadline=None)
def test_batch_schedule_rowwise_identical(name, problem):
    application, rows, profile, slack_sharing, make_bus = problem
    reference = ListScheduler(
        bus=make_bus(), slack_sharing=slack_sharing, kernel="reference"
    )
    expected = [
        reference.schedule(application, architecture, mapping, profile, budgets)
        for architecture, mapping, budgets in rows
    ]
    scheduler = ListScheduler(
        bus=make_bus(), slack_sharing=slack_sharing, kernel=name
    )
    produced = _schedule_block(scheduler, application, rows, profile)
    assert produced == expected, f"{name} batch drifted"
    for first, second in zip(produced, expected):
        assert first.length == second.length
        assert hash(first) == hash(second)


@pytest.mark.parametrize("name", ALL_SCHED)
@given(problem=sched_batches())
@settings(max_examples=30, deadline=None)
def test_batch_then_scalar_reuse_stays_identical(name, problem):
    """A scalar call after a batch on the same scheduler instance must not
    see stale per-mapping tables."""
    application, rows, profile, slack_sharing, make_bus = problem
    scheduler = ListScheduler(
        bus=make_bus(), slack_sharing=slack_sharing, kernel=name
    )
    batched = _schedule_block(scheduler, application, rows, profile)
    architecture, mapping, budgets = rows[0]
    again = scheduler.schedule(application, architecture, mapping, profile, budgets)
    assert again == batched[0]


@pytest.mark.parametrize("name", ALL_SCHED)
def test_empty_sched_batch_returns_empty(name):
    assert ListScheduler(kernel=name).kernel.batch_schedule([]) == []
