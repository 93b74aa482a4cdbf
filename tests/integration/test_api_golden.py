"""API ↔ CLI ↔ golden-fixture equivalence.

``api.run("fig6a", RunConfig(preset="fast"))`` and
``repro-ftes run fig6a --preset fast`` must produce results payloads that
match the checked-in golden fixture exactly, under both kernel pairs.
The same runs pin the engine's exact work counters: the DSE is
deterministic, so a change that scores the same design points in the same
order leaves ``hits``, ``misses``, ``points_computed`` and
``search_evaluations`` exactly where they are.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import api
from repro.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: RunConfig kernel selections: the fast default pair and the reference oracle.
KERNEL_PAIRS = {
    "default": {"sfp_kernel": "array", "sched_kernel": "flat"},
    "reference": {"sfp_kernel": "reference", "sched_kernel": "reference"},
}

#: Exact engine work counters (``RunReport.cache``); kernel-independent.
WORK_COUNTERS = ("hits", "misses", "points_computed", "search_evaluations")
FIG6A_FAST_COUNTERS = (51282, 34513, 4326, 1896)
SYNTHETIC_RANDOM_SMOKE_COUNTERS = (8086, 4244, 686, 178)


def _load(name: str) -> dict:
    with (GOLDEN_DIR / name).open(encoding="utf-8") as handle:
        return json.load(handle)


def _work_counters(report: api.RunReport) -> tuple:
    return tuple(report.cache[key] for key in WORK_COUNTERS)


@pytest.fixture(scope="module", params=sorted(KERNEL_PAIRS))
def fig6a_report(request) -> api.RunReport:
    return api.run("fig6a", api.RunConfig(preset="fast", **KERNEL_PAIRS[request.param]))


def test_api_fig6a_payload_equals_the_golden_fixture(fig6a_report):
    # The scenario payload *is* the golden fixture's structure — key for key.
    assert fig6a_report.results == _load("fig6a_fast.json")


def test_api_fig6a_work_counters_are_pinned(fig6a_report):
    assert _work_counters(fig6a_report) == FIG6A_FAST_COUNTERS


def test_api_fig6b_payload_equals_the_golden_fixture():
    report = api.run("fig6b", api.RunConfig(preset="fast"))
    assert report.results == _load("fig6b_fast.json")


@pytest.mark.parametrize("pair", sorted(KERNEL_PAIRS))
def test_synthetic_random_smoke_matches_the_golden_fixture(pair):
    # Kernel-independent determinism gate for the parameterized family: the
    # full MIN/MAX/OPT exploration of one small generated application must
    # reproduce the checked-in payload bit for bit, with the same work.
    report = api.run(
        "synthetic-random",
        api.RunConfig(
            preset="smoke",
            scenario_params={"n_processes": 10, "seed": 3},
            **KERNEL_PAIRS[pair],
        ),
    )
    assert report.results == _load("synthetic_random_smoke.json")
    assert _work_counters(report) == SYNTHETIC_RANDOM_SMOKE_COUNTERS


def test_generic_run_driver_writes_a_golden_matching_report(tmp_path, capsys):
    output = tmp_path / "report.json"
    exit_code = main(
        ["run", "fig6a", "--preset", "fast", "--output", str(output)]
    )
    capsys.readouterr()
    assert exit_code == 0
    report = api.RunReport.from_json(output.read_text(encoding="utf-8"))
    assert report.results == _load("fig6a_fast.json")
