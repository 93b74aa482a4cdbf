"""Neighbourhood entry points against their scalar loops, per kernel pair.

The DSE scores whole neighbourhoods through three block entry points:

* ``ReExecutionOpt.optimize_many`` — one :meth:`optimize` per row;
* ``RedundancyOpt.evaluate_hardening_batch`` — a hardening neighbourhood
  partitioned against the decision memo in one ``get_many`` pass;
* ``optimize_batch`` — a mapping neighbourhood partitioned against the
  optimization memo.

Each must return exactly what the scalar calls return in row order, and,
with an engine attached, leave every memo counter where the scalar loop
leaves it; only the ``batch`` partition statistics tell the two apart.
Every case runs under both kernel pairs: the fast default and the
reference oracle.

The fixture is the Fig. 1 application on the Fig. 4(a) two-node platform:
its 3 x 3 hardening grid and 16 two-node mappings mix feasible, unreliable
and unschedulable design points.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.architecture import Architecture, Node
from repro.core.mapping_model import ProcessMapping
from repro.core.redundancy import FixedHardeningRedundancyOpt, RedundancyOpt
from repro.core.reexecution import ReExecutionOpt
from repro.core.sfp import SFPAnalysis
from repro.engine import EvaluationEngine
from repro.experiments.motivational import (
    fig1_application,
    fig1_node_types,
    fig1_profile,
)
from repro.kernels import use_kernel

PROCESSES = ("P1", "P2", "P3", "P4")

KERNEL_PAIRS = {"default": ("array", "flat"), "reference": ("reference", "reference")}

OPTIMIZERS = {
    "opt": RedundancyOpt,
    "min": lambda **kwargs: FixedHardeningRedundancyOpt("min", **kwargs),
    "max": lambda **kwargs: FixedHardeningRedundancyOpt("max", **kwargs),
}


@pytest.fixture(params=sorted(KERNEL_PAIRS))
def kernel_pair(request):
    """Scope both kernel families for the test; yields the pair's names."""
    sfp, sched = KERNEL_PAIRS[request.param]
    with use_kernel(sfp=sfp, sched=sched):
        yield sfp, sched


@pytest.fixture
def problem():
    application = fig1_application()
    profile = fig1_profile()
    n1, n2 = fig1_node_types()
    architecture = Architecture(
        [Node("N1", n1, hardening=2), Node("N2", n2, hardening=2)]
    )
    mapping = ProcessMapping({"P1": "N1", "P2": "N1", "P3": "N2", "P4": "N2"})
    return application, architecture, mapping, profile


def _hardening_grid():
    return [
        {"N1": first, "N2": second}
        for first, second in itertools.product((1, 2, 3), repeat=2)
    ]


def _all_mappings():
    return [
        ProcessMapping(dict(zip(PROCESSES, nodes)))
        for nodes in itertools.product(("N1", "N2"), repeat=len(PROCESSES))
    ]


def _engine(application, profile):
    return EvaluationEngine(application, profile)


def _counters(engine):
    """Every engine counter except the batch partition statistics."""
    report = engine.report()
    report.pop("batch")
    return report


# ----------------------------------------------------------------------
# ReExecutionOpt.optimize_many
# ----------------------------------------------------------------------
#: A re-execution cap low enough that the least hardened rows miss ``rho``.
CAP = 1


def test_optimize_many_equals_row_by_row_optimize(kernel_pair, problem):
    application, architecture, mapping, profile = problem
    rows = []
    expected = []
    for trial in _hardening_grid():
        candidate = architecture.copy()
        candidate.apply_hardening_vector(trial)
        analysis = SFPAnalysis(application, candidate, mapping, profile)
        probabilities = {
            node.name: tuple(analysis.node_failure_probabilities(node))
            for node in candidate
        }
        rows.append((candidate, probabilities))
        expected.append(
            ReExecutionOpt(max_reexecutions_per_node=CAP).optimize(
                application, candidate, mapping, profile
            )
        )
    assert any(decision is None for decision in expected)
    assert any(decision is not None for decision in expected)
    produced = ReExecutionOpt(max_reexecutions_per_node=CAP).optimize_many(
        application, rows, mapping, profile
    )
    assert produced == expected


def test_optimize_many_of_no_rows_is_empty(kernel_pair, problem):
    application, _, mapping, profile = problem
    assert ReExecutionOpt().optimize_many(application, [], mapping, profile) == []


# ----------------------------------------------------------------------
# evaluate_hardening_batch
# ----------------------------------------------------------------------
def test_evaluate_hardening_batch_equals_scalar_loop(kernel_pair, problem):
    application, architecture, mapping, profile = problem
    trials = _hardening_grid()
    batched_engine = _engine(application, profile)
    scalar_engine = _engine(application, profile)
    batched = RedundancyOpt(engine=batched_engine).evaluate_hardening_batch(
        application, architecture, mapping, profile, trials
    )
    scalar_opt = RedundancyOpt(engine=scalar_engine)
    scalar = [
        scalar_opt.evaluate_hardening(application, architecture, mapping, profile, t)
        for t in trials
    ]
    assert batched == scalar
    assert {decision.is_feasible for decision in batched} == {True, False}
    assert _counters(batched_engine) == _counters(scalar_engine)
    assert batched_engine.evaluations == len(trials)


def test_evaluate_hardening_batch_counts_warm_and_duplicate_rows(
    kernel_pair, problem
):
    application, architecture, mapping, profile = problem
    grid = _hardening_grid()
    # Warm rows from an earlier call, then duplicates inside the block.
    trials = grid[2:5] + grid + grid[:4]
    batched_engine = _engine(application, profile)
    scalar_engine = _engine(application, profile)
    batched_opt = RedundancyOpt(engine=batched_engine)
    scalar_opt = RedundancyOpt(engine=scalar_engine)
    batched_opt.evaluate_hardening_batch(
        application, architecture, mapping, profile, grid[2:5]
    )
    for trial in grid[2:5]:
        scalar_opt.evaluate_hardening(application, architecture, mapping, profile, trial)
    batched = batched_opt.evaluate_hardening_batch(
        application, architecture, mapping, profile, trials
    )
    scalar = [
        scalar_opt.evaluate_hardening(application, architecture, mapping, profile, t)
        for t in trials
    ]
    assert batched == scalar
    assert _counters(batched_engine) == _counters(scalar_engine)
    assert batched_engine.evaluations == len(grid)
    # The second call: every grid point not warmed by the first is cold once.
    assert batched_engine.batch.rows == 3 + len(trials)
    assert batched_engine.batch.cold_rows == len(grid)


def test_evaluate_hardening_batch_without_engine_equals_scalar_loop(
    kernel_pair, problem
):
    application, architecture, mapping, profile = problem
    trials = _hardening_grid()
    optimizer = RedundancyOpt()
    batched = optimizer.evaluate_hardening_batch(
        application, architecture, mapping, profile, trials
    )
    scalar = [
        optimizer.evaluate_hardening(application, architecture, mapping, profile, t)
        for t in trials
    ]
    assert batched == scalar


def test_partial_hardening_vectors_bypass_the_decision_memo(kernel_pair, problem):
    application, architecture, mapping, profile = problem
    engine = _engine(application, profile)
    trials = [{"N1": 3}, {"N2": 1}, {"N1": 3}]
    batched = RedundancyOpt(engine=engine).evaluate_hardening_batch(
        application, architecture, mapping, profile, trials
    )
    scalar = [
        RedundancyOpt().evaluate_hardening(
            application, architecture, mapping, profile, trial
        )
        for trial in trials
    ]
    assert batched == scalar
    assert engine.decisions.hits == engine.decisions.misses == 0
    assert engine.batch.calls == 0


def test_empty_hardening_neighbourhood(kernel_pair, problem):
    application, architecture, mapping, profile = problem
    engine = _engine(application, profile)
    assert (
        RedundancyOpt(engine=engine).evaluate_hardening_batch(
            application, architecture, mapping, profile, []
        )
        == []
    )
    assert engine.evaluations == 0
    assert engine.batch.as_dict()["rows"] == 0


# ----------------------------------------------------------------------
# optimize_batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(OPTIMIZERS))
def test_optimize_batch_equals_scalar_optimize(kernel_pair, problem, kind):
    application, architecture, _, profile = problem
    mappings = _all_mappings()
    mappings += mappings[:3]  # duplicates are memo hits, as in the scalar loop
    batched_engine = _engine(application, profile)
    scalar_engine = _engine(application, profile)
    batched = OPTIMIZERS[kind](engine=batched_engine).optimize_batch(
        application, architecture, mappings, profile
    )
    scalar_opt = OPTIMIZERS[kind](engine=scalar_engine)
    scalar = [
        scalar_opt.optimize(application, architecture, mapping, profile)
        for mapping in mappings
    ]
    assert batched == scalar
    assert _counters(batched_engine) == _counters(scalar_engine)
    assert batched_engine.optimizations.misses == len(mappings) - 3


@pytest.mark.parametrize("kind", sorted(OPTIMIZERS))
def test_optimize_batch_without_engine_equals_scalar_optimize(kind, problem):
    application, architecture, _, profile = problem
    mappings = _all_mappings()
    optimizer = OPTIMIZERS[kind]()
    batched = optimizer.optimize_batch(application, architecture, mappings, profile)
    assert batched == [
        optimizer.optimize(application, architecture, mapping, profile)
        for mapping in mappings
    ]
    assert any(decision is None for decision in batched)


def test_optimize_batch_records_one_partition_per_call(problem):
    application, architecture, _, profile = problem
    engine = _engine(application, profile)
    optimizer = FixedHardeningRedundancyOpt("max", engine=engine)
    mappings = _all_mappings()
    optimizer.optimize_batch(application, architecture, mappings, profile)
    optimizer.optimize_batch(application, architecture, mappings[:4], profile)
    # The fixed policy evaluates one design point per mapping and never
    # batches internally, so only the two calls above are recorded.
    assert engine.batch.as_dict() == {
        "calls": 2,
        "rows": len(mappings) + 4,
        "cold_rows": len(mappings),
        "fill_rate": len(mappings) / (len(mappings) + 4),
    }


def test_empty_mapping_neighbourhood(kernel_pair, problem):
    application, architecture, _, profile = problem
    engine = _engine(application, profile)
    assert RedundancyOpt(engine=engine).optimize_batch(
        application, architecture, [], profile
    ) == []
    assert engine.optimizations.misses == 0


def test_neighbourhood_results_identical_across_kernel_pairs(problem):
    application, architecture, _, profile = problem
    mappings = _all_mappings()
    results = {}
    for label, (sfp, sched) in KERNEL_PAIRS.items():
        with use_kernel(sfp=sfp, sched=sched):
            engine = _engine(application, profile)
            results[label] = (
                RedundancyOpt(engine=engine).optimize_batch(
                    application, architecture, mappings, profile
                ),
                _counters(engine),
            )
            assert results[label][1]["kernel"] == sfp
            assert results[label][1]["sched_kernel"] == sched
    (default, default_counters), (reference, reference_counters) = (
        results["default"],
        results["reference"],
    )
    assert default == reference
    for report in (default_counters, reference_counters):
        report.pop("kernel")
        report.pop("sched_kernel")
    assert default_counters == reference_counters
