"""API ↔ CLI ↔ golden-fixture equivalence.

``api.run("fig6a", RunConfig(preset="fast"))`` and
``repro-ftes run fig6a --preset fast`` must produce results payloads that
match the checked-in golden fixture exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import api
from repro.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def _load(name: str) -> dict:
    with (GOLDEN_DIR / name).open(encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def fig6a_report() -> api.RunReport:
    return api.run("fig6a", api.RunConfig(preset="fast"))


def test_api_fig6a_payload_equals_the_golden_fixture(fig6a_report):
    # The scenario payload *is* the golden fixture's structure — key for key.
    assert fig6a_report.results == _load("fig6a_fast.json")


def test_api_fig6b_payload_equals_the_golden_fixture():
    report = api.run("fig6b", api.RunConfig(preset="fast"))
    assert report.results == _load("fig6b_fast.json")


def test_synthetic_random_smoke_matches_the_golden_fixture():
    # Kernel-independent determinism gate for the parameterized family: the
    # full MIN/MAX/OPT exploration of one small generated application must
    # reproduce the checked-in payload bit for bit.
    report = api.run(
        "synthetic-random",
        api.RunConfig(preset="smoke", scenario_params={"n_processes": 10, "seed": 3}),
    )
    assert report.results == _load("synthetic_random_smoke.json")


def test_generic_run_driver_writes_a_golden_matching_report(tmp_path, capsys):
    output = tmp_path / "report.json"
    exit_code = main(
        ["run", "fig6a", "--preset", "fast", "--output", str(output)]
    )
    capsys.readouterr()
    assert exit_code == 0
    report = api.RunReport.from_json(output.read_text(encoding="utf-8"))
    assert report.results == _load("fig6a_fast.json")
