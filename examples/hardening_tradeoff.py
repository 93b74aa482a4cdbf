"""Hardening vs. software redundancy trade-off for a single process.

Reproduces the reasoning behind Fig. 2 and Fig. 3 of the paper: for one
process on one node, each additional hardening level reduces the number of
re-executions the SFP analysis demands, but slows the processor down and
raises its cost.  The script prints the trade-off table.

Run with:

    python examples/hardening_tradeoff.py
"""

from __future__ import annotations

from repro.experiments.motivational import (
    evaluate_fig3_alternatives,
    fig3_profile,
)
from repro.experiments.results import format_table


def main() -> None:
    profile = fig3_profile()

    rows = []
    for outcome in evaluate_fig3_alternatives():
        level = outcome.hardening["N1"]
        wcet = profile.wcet("P1", "N1", level)
        probability = profile.failure_probability("P1", "N1", level)
        k = outcome.reexecutions["N1"]
        rows.append(
            [
                f"N1^{level}",
                f"{wcet:.0f}",
                f"{probability:.0e}",
                k,
                f"{outcome.schedule_length:.0f}",
                f"{outcome.cost:.0f}",
                "yes" if outcome.schedulable else "no",
            ]
        )

    print(
        format_table(
            ["h-version", "WCET (ms)", "p", "k", "worst-case SL (ms)", "cost", "schedulable"],
            rows,
            title="Hardening vs. software re-execution (the paper's Fig. 3)",
        )
    )
    print()
    print(
        "Reading: the unhardened node needs 6 re-executions and misses the deadline;\n"
        "one hardening step cuts that to 2 re-executions and is the cheapest design\n"
        "that meets both the deadline and the reliability goal — exactly the paper's\n"
        "motivation for trading hardware against software redundancy."
    )


if __name__ == "__main__":
    main()
