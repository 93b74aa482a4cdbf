"""Neighbourhood scoring through the scalar memo path, per kernel pair.

The OPT heuristic scores one design point at a time: each +1/-1 hardening
trial is one ``evaluate_hardening`` call (a decision-memo lookup) and each
tabu move is one ``optimize`` call (an optimization-memo lookup).  These
tests pin what that path counts: partial hardening vectors bypass the
decision memo, warm and duplicate points are hits, and results and counters
are identical across kernel pairs.

``ReExecutionOpt.optimize_many``, ``evaluate_hardening_batch`` and
``optimize_batch`` are plain loops over their scalar call, kept because the
``perfbench`` tracer wraps them by name; they must return exactly what the
scalar calls return, in order.

Every case runs under both kernel pairs: the fast default and the reference
oracle.  The fixture is the Fig. 1 application on the Fig. 4(a) two-node
platform: its 3 x 3 hardening grid and 16 two-node mappings mix feasible,
unreliable and unschedulable design points.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.architecture import Architecture, Node
from repro.core.mapping import MappingAlgorithm
from repro.core.mapping_model import ProcessMapping
from repro.core.redundancy import FixedHardeningRedundancyOpt, RedundancyOpt
from repro.core.reexecution import ReExecutionOpt
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


# ----------------------------------------------------------------------
# the scalar memo path
# ----------------------------------------------------------------------
def test_warm_and_duplicate_trials_count_as_hits(kernel_pair, problem):
    application, architecture, mapping, profile = problem
    grid = _hardening_grid()
    engine = _engine(application, profile)
    optimizer = RedundancyOpt(engine=engine)
    # Warm trials from an earlier pass, then duplicates within the second.
    for trial in grid[2:5]:
        optimizer.evaluate_hardening(application, architecture, mapping, profile, trial)
    trials = grid[2:5] + grid + grid[:4]
    decisions = [
        optimizer.evaluate_hardening(application, architecture, mapping, profile, t)
        for t in trials
    ]
    assert decisions == [
        RedundancyOpt().evaluate_hardening(application, architecture, mapping, profile, t)
        for t in trials
    ]
    assert {decision.is_feasible for decision in decisions} == {True, False}
    # Each grid point is computed once; every other lookup is a hit.
    assert engine.evaluations == engine.decisions.misses == len(grid)
    assert engine.decisions.hits == 3 + len(trials) - len(grid)


def test_partial_hardening_vectors_bypass_the_decision_memo(kernel_pair, problem):
    application, architecture, mapping, profile = problem
    engine = _engine(application, profile)
    optimizer = RedundancyOpt(engine=engine)
    trials = [{"N1": 3}, {"N2": 1}, {"N1": 3}]
    memoized = [
        optimizer.evaluate_hardening(application, architecture, mapping, profile, trial)
        for trial in trials
    ]
    scalar = [
        RedundancyOpt().evaluate_hardening(
            application, architecture, mapping, profile, trial
        )
        for trial in trials
    ]
    assert memoized == scalar
    assert engine.decisions.hits == engine.decisions.misses == 0
    assert engine.evaluations == 0


def test_every_hardening_trial_is_one_decision_lookup(kernel_pair, problem):
    application, architecture, _, profile = problem
    engine = _engine(application, profile)
    calls = []

    class CountingOpt(RedundancyOpt):
        def evaluate_hardening(self, *args):
            calls.append(args[-1])
            return super().evaluate_hardening(*args)

    optimizer = CountingOpt(engine=engine)
    for mapping in _all_mappings():
        optimizer.optimize(application, architecture, mapping, profile)
    assert calls
    assert engine.decisions.hits + engine.decisions.misses == len(calls)
    assert engine.optimizations.misses == len(_all_mappings())


def test_every_tabu_move_is_one_optimization_lookup(kernel_pair, problem):
    application, architecture, _, profile = problem
    engine = _engine(application, profile)
    result = MappingAlgorithm(engine=engine).optimize(application, architecture, profile)
    assert result is not None
    assert result.evaluations > 1
    assert (
        engine.optimizations.hits + engine.optimizations.misses == result.evaluations
    )


def test_neighbourhood_results_identical_across_kernel_pairs(problem):
    application, architecture, _, profile = problem
    mappings = _all_mappings()
    results = {}
    for label, (sfp, sched) in KERNEL_PAIRS.items():
        with use_kernel(sfp=sfp, sched=sched):
            engine = _engine(application, profile)
            optimizer = RedundancyOpt(engine=engine)
            decisions = [
                optimizer.optimize(application, architecture, mapping, profile)
                for mapping in mappings
            ]
            report = engine.report()
            assert report.pop("kernel") == sfp
            assert report.pop("sched_kernel") == sched
            results[label] = (decisions, report)
    assert results["default"] == results["reference"]


# ----------------------------------------------------------------------
# the loops kept for the perfbench tracer
# ----------------------------------------------------------------------
#: A re-execution cap low enough that the least hardened rows miss ``rho``.
CAP = 1


def test_optimize_many_equals_row_by_row_optimize(kernel_pair, problem):
    application, architecture, mapping, profile = problem
    candidates = []
    for trial in _hardening_grid():
        candidate = architecture.copy()
        candidate.apply_hardening_vector(trial)
        candidates.append(candidate)
    optimizer = ReExecutionOpt(max_reexecutions_per_node=CAP)
    expected = [
        optimizer.optimize(application, candidate, mapping, profile)
        for candidate in candidates
    ]
    assert any(decision is None for decision in expected)
    assert any(decision is not None for decision in expected)
    assert optimizer.optimize_many(application, candidates, mapping, profile) == expected


def test_optimize_many_of_no_rows_is_empty(kernel_pair, problem):
    application, _, mapping, profile = problem
    assert ReExecutionOpt().optimize_many(application, [], mapping, profile) == []


def test_evaluate_hardening_batch_equals_scalar_loop(kernel_pair, problem):
    application, architecture, mapping, profile = problem
    trials = _hardening_grid() + _hardening_grid()[:3]
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
    assert batched_engine.report() == scalar_engine.report()


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


@pytest.mark.parametrize("kind", sorted(OPTIMIZERS))
def test_optimize_batch_equals_scalar_optimize(kernel_pair, problem, kind):
    application, architecture, _, profile = problem
    mappings = _all_mappings()
    mappings += mappings[:3]  # duplicates are memo hits
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
    assert any(decision is None for decision in batched)
    assert batched_engine.report() == scalar_engine.report()
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


def test_empty_mapping_neighbourhood(kernel_pair, problem):
    application, architecture, _, profile = problem
    engine = _engine(application, profile)
    assert RedundancyOpt(engine=engine).optimize_batch(
        application, architecture, [], profile
    ) == []
    assert engine.optimizations.misses == 0
