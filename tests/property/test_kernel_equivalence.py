"""Bit-identity property suite for the pluggable SFP kernel backends.

Every backend must return, for every input, the exact float the
``reference`` backend returns — this is the contract that makes kernel
selection a pure speed knob and keeps memoized/persisted design points valid
across backends.  Hypothesis drives randomized probability tuples, budgets
and rounding accuracies through every backend, including:

* the decimal accuracies on both sides of the array backend's integer-quanta
  cutoff (``MAX_FAST_DECIMALS``), so the fallback path is exercised;
* inputs wide enough to trigger the numpy row-recurrence path
  (``NUMPY_MIN_WIDTH``), so its accumulate order is pinned too;
* grid-aligned, near-grid and degenerate (0.0 / 1.0) probabilities, where
  shortest-repr rounding semantics are most fragile.

Identity is asserted with ``math.isclose``-free exact ``==`` on purpose:
close is not a thing here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import ModelError
from repro.kernels import SFP_KERNELS, get_kernel
from repro.kernels.array_backend import MAX_FAST_DECIMALS, NUMPY_MIN_WIDTH
from repro.kernels.reference import ReferenceKernel

REFERENCE = get_kernel("reference")

#: All non-reference backends (the property is trivially true for reference).
OTHER_KERNELS = [name for name in SFP_KERNELS if name != "reference"]

#: Rounding accuracies: the paper's 11, coarse grids, the fast-path cutoff
#: and one value beyond it (exercising the Decimal fallback).
DECIMALS = st.sampled_from([2, 5, 11, MAX_FAST_DECIMALS, MAX_FAST_DECIMALS + 3])

#: Individual failure probabilities across the magnitudes the fault model
#: produces (SER ~1e-12..1e-9 per cycle scaled by WCET) plus adversarial
#: grid-aligned values.
PROBABILITY = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e-9, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e-4, allow_nan=False),
    st.sampled_from([0.0, 1.0, 0.5, 0.1, 0.3, 1e-11, 3e-11, 1.2e-5]),
    st.integers(min_value=0, max_value=10 ** 11).map(lambda n: n / 10 ** 11),
)

PROBABILITIES = st.lists(PROBABILITY, min_size=0, max_size=12)
WIDE_PROBABILITIES = st.lists(
    PROBABILITY, min_size=NUMPY_MIN_WIDTH, max_size=NUMPY_MIN_WIDTH + 80
)
BUDGET = st.integers(min_value=0, max_value=8)


@pytest.mark.parametrize("name", OTHER_KERNELS)
@given(probabilities=PROBABILITIES, budget=BUDGET, decimals=DECIMALS)
@settings(max_examples=300, deadline=None)
def test_probability_exceeds_bit_identical(name, probabilities, budget, decimals):
    kernel = get_kernel(name)
    expected = REFERENCE.probability_exceeds(probabilities, budget, decimals)
    produced = kernel.probability_exceeds(probabilities, budget, decimals)
    assert produced == expected, (
        f"{name} drifted: {produced.hex()} != {expected.hex()} "
        f"for {probabilities!r}, k={budget}, decimals={decimals}"
    )


@pytest.mark.parametrize("name", OTHER_KERNELS)
@given(probabilities=WIDE_PROBABILITIES, budget=BUDGET)
@settings(max_examples=50, deadline=None)
def test_probability_exceeds_wide_inputs(name, probabilities, budget):
    """Wide tuples route the array backend through the numpy recurrence."""
    kernel = get_kernel(name)
    expected = REFERENCE.probability_exceeds(probabilities, budget)
    assert kernel.probability_exceeds(probabilities, budget) == expected


@pytest.mark.parametrize("name", OTHER_KERNELS)
@given(probabilities=PROBABILITIES, decimals=DECIMALS)
@settings(max_examples=200, deadline=None)
def test_probability_no_fault_bit_identical(name, probabilities, decimals):
    kernel = get_kernel(name)
    expected = REFERENCE.probability_no_fault(probabilities, decimals)
    assert kernel.probability_no_fault(probabilities, decimals) == expected


@pytest.mark.parametrize("name", OTHER_KERNELS)
@given(
    exceedances=st.lists(PROBABILITY, min_size=0, max_size=6),
    decimals=DECIMALS,
)
@settings(max_examples=200, deadline=None)
def test_system_failure_bit_identical(name, exceedances, decimals):
    kernel = get_kernel(name)
    expected = REFERENCE.system_failure(exceedances, decimals)
    assert kernel.system_failure(exceedances, decimals) == expected


@pytest.mark.parametrize("name", list(SFP_KERNELS))
def test_negative_budget_rejected(name):
    with pytest.raises(ModelError):
        get_kernel(name).probability_exceeds([0.1], -1)


@pytest.mark.parametrize("name", list(SFP_KERNELS))
def test_out_of_range_probability_rejected(name):
    kernel = get_kernel(name)
    with pytest.raises(ValueError):
        kernel.probability_exceeds([1.5], 1)
    with pytest.raises(ValueError):
        kernel.system_failure([-0.1])


def test_reference_is_the_reference():
    """The registry's ``reference`` entry is the pure-Python specification."""
    assert isinstance(REFERENCE, ReferenceKernel)
    assert type(REFERENCE) is ReferenceKernel
