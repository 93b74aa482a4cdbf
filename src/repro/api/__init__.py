"""``repro.api`` — the unified programmatic front door.

Declare *what* to run (a scenario id), *how* to run it (a frozen
:class:`RunConfig`), execute through a :class:`Session`, and consume a
structured :class:`RunReport`:

>>> from repro.api import run, RunConfig
>>> report = run("fig6a", RunConfig(preset="fast"))
>>> report.results["acceptance"]["5"]["OPT"]
100.0

Kernel backends are named in the config and selected for the run through
the scoped :func:`repro.kernels.registry.use_kernel` (see
:mod:`repro.api.config`).  The CLI's ``repro-ftes run`` is a thin driver
over exactly this API.
"""

from __future__ import annotations

from typing import Optional

from repro.api.config import DEFAULT_CACHE_SIZE_MB, PRESETS, RunConfig
from repro.api.registry import (
    ScenarioOutcome,
    ScenarioParam,
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.api.report import REPORT_SCHEMA_VERSION, RunReport
from repro.api.session import ProgressCallback, Session

# Importing the modules registers the built-in scenarios and the
# parameterized scenario families.
import repro.api.scenarios  # noqa: F401,E402  (registration side effect)
import repro.api.scenarios_synthetic  # noqa: F401,E402  (registration side effect)


def run(scenario_id: str, config: Optional[RunConfig] = None) -> RunReport:
    """Run one registered scenario under ``config`` and return its report.

    When ``config.output`` is set, the report is also written there as JSON
    (only this one-shot helper writes; ``Session.run`` never does, so
    multi-scenario sessions cannot silently overwrite earlier reports).
    """
    with Session(config) as session:
        report = session.run(scenario_id)
    if report.config.output is not None:
        report.config.output.write_text(report.to_json(), encoding="utf-8")
    return report


__all__ = [
    "DEFAULT_CACHE_SIZE_MB",
    "PRESETS",
    "ProgressCallback",
    "REPORT_SCHEMA_VERSION",
    "RunConfig",
    "RunReport",
    "ScenarioOutcome",
    "ScenarioParam",
    "ScenarioSpec",
    "Session",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "run",
]
