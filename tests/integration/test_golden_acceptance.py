"""Golden regression fixtures for the Fig. 6a / 6b fast-preset sweeps.

The checked-in JSON files under ``tests/golden/`` pin the exact acceptance
percentages of the fast preset.  Kernel backends, engine caching, the
persistent store and parallelism are all required to be bit-identical
transformations — so *any* drift in these fixtures is a correctness bug, not
noise, and the diff in the failure message names the exact setting that
moved.  Both figures run under the default kernel pair and under the
``reference`` pair, so each backend of both families is held to the same
fixtures.  Regenerate deliberately (only when the experiment definition itself
changes) by rerunning the sweep and rewriting the JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

import pytest

from repro.core.fault_model import SER_MEDIUM
from repro.experiments.synthetic import (
    AcceptanceExperiment,
    ExperimentPreset,
    figure_6a_hpd_sweep,
    figure_6b_cost_table,
)
from repro.kernels import use_kernel

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def _load(name: str) -> dict:
    with (GOLDEN_DIR / name).open(encoding="utf-8") as handle:
        return json.load(handle)


#: Kernel pairs the figures are checked under: the defaults and the oracles.
KERNEL_PAIRS = {
    "default": {},
    "reference": {"sfp": "reference", "sched": "reference"},
}


@pytest.fixture(scope="module", params=list(KERNEL_PAIRS))
def fast_experiment(request) -> Iterator[AcceptanceExperiment]:
    """One fast-preset experiment per kernel pair, shared by both figures
    (same settings); the pair stays selected while the figures compute."""
    with use_kernel(**KERNEL_PAIRS[request.param]):
        yield AcceptanceExperiment(preset=ExperimentPreset.fast())


def test_fig6a_acceptance_matches_golden(fast_experiment):
    golden = _load("fig6a_fast.json")
    assert golden["ser"] == SER_MEDIUM
    sweep = figure_6a_hpd_sweep(fast_experiment)
    produced = {f"{hpd:g}": values for hpd, values in sweep.items()}
    assert produced == golden["acceptance"]


def test_fig6b_acceptance_matches_golden(fast_experiment):
    golden = _load("fig6b_fast.json")
    table = figure_6b_cost_table(fast_experiment)
    produced = {
        f"{hpd:g}": {f"{arc:g}": values for arc, values in per_arc.items()}
        for hpd, per_arc in table.items()
    }
    assert produced == golden["acceptance"]


def test_goldens_cover_all_strategies():
    """The fixtures themselves must stay structurally complete."""
    fig6a = _load("fig6a_fast.json")
    assert set(fig6a["acceptance"]) == {"5", "25", "50", "100"}
    for values in fig6a["acceptance"].values():
        assert set(values) == {"MIN", "MAX", "OPT"}
    fig6b = _load("fig6b_fast.json")
    for per_arc in fig6b["acceptance"].values():
        assert set(per_arc) == {"15", "20", "25"}
