"""Cruise-controller case study: compare MIN, MAX and OPT on a fixed platform.

Reconstructs the paper's 32-process vehicle cruise controller mapped on three
ECUs (ETM, ABS, TCM) with five hardening levels each, and reproduces the
published comparison: software-only fault tolerance (MIN) misses the 300 ms
deadline, full hardening (MAX) works but is expensive, and the paper's OPT
trade-off is schedulable at a fraction of the cost.

Run with:

    python examples/cruise_controller.py
"""

from __future__ import annotations

from repro.experiments.cruise_control import (
    cruise_controller_application,
    run_cruise_controller_study,
)
from repro.experiments.results import format_table


def main() -> None:
    application = cruise_controller_application()
    graph = application.graphs[0]
    print(
        f"cruise controller: {application.number_of_processes()} processes, "
        f"{len(graph.messages)} messages, deadline {application.deadline:.0f} ms, "
        f"reliability goal {application.reliability_goal}"
    )

    study = run_cruise_controller_study()
    rows = []
    for strategy, outcome in study.outcomes.items():
        rows.append(
            [
                strategy,
                "yes" if outcome.schedulable else "no",
                f"{outcome.cost:.0f}" if outcome.schedulable else "-",
                f"{outcome.schedule_length:.1f}",
                ", ".join(f"{node}^{level}" for node, level in outcome.hardening.items()),
                ", ".join(f"{node}:{k}" for node, k in outcome.reexecutions.items()),
            ]
        )
    print()
    print(
        format_table(
            ["strategy", "schedulable", "cost", "worst-case SL (ms)", "h-versions", "re-executions"],
            rows,
            title="MIN vs. MAX vs. OPT on the three-ECU cruise controller",
        )
    )
    print()
    print(f"OPT saves {study.opt_saving_vs_max * 100:.1f}% of the MAX cost (paper: ~66%)")


if __name__ == "__main__":
    main()
