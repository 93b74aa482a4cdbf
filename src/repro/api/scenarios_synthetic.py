"""Parameterized scenario families: generator + faults wired into the registry.

The built-in scenarios of :mod:`repro.api.scenarios` are *fixed* — each one
reproduces a specific paper figure.  This module registers the three
*parameterized families* that expose the synthetic-benchmark generator and
the fault-injection machinery through the same :class:`ScenarioSpec`
contract (``repro-ftes run <family> --param key=value``):

``synthetic-random``
    One generated application run through the full MIN/MAX/OPT design-space
    exploration at an arbitrary size — the knob that scales the paper's
    20/40-process setup to 10-100x.
``synthetic-suite``
    A whole acceptance sweep over a generated suite, the shape of the
    paper's 150-application evaluation at user-chosen size and seed.
``fault-injection``
    A Monte-Carlo fault-injection campaign profiling a small control
    application, cross-validated per (process, node, level) against the
    analytic :meth:`~repro.faults.processor.ProcessorModel.failure_probability`.

Payloads contain only run-to-run deterministic quantities (no cache or
timing counters), so re-running a family with identical parameters yields a
bit-identical ``results`` block; engine counters flow into the report's
``cache`` section through :meth:`Session.add_cache_counters` instead.
"""

from __future__ import annotations

from dataclasses import replace
from math import sqrt
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.api.registry import ScenarioOutcome, ScenarioParam, register_scenario
from repro.core.application import Application, Message, Process, TaskGraph
from repro.core.architecture import linear_cost_node_type
from repro.core.evaluation import DesignResult
from repro.core.fault_model import SER_MEDIUM
from repro.experiments.results import format_table
from repro.experiments.synthetic import (
    PAPER_ARC_VALUES,
    STRATEGIES,
    AcceptanceExperiment,
    _evaluate_benchmark_setting,
)
from repro.faults.hardening import SelectiveHardeningPlan, apply_selective_hardening
from repro.faults.injection import FaultInjectionCampaign
from repro.faults.processor import ProcessorModel
from repro.generator.benchmark import BenchmarkConfig, generate_benchmark

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session

#: The (SER, HPD) technology setting the generator families are evaluated
#: at: the medium-SER technology with 25 % hardening performance
#: degradation — the center of the paper's Fig. 6 sweeps.
FAMILY_SER = SER_MEDIUM
FAMILY_HPD = 25.0


def _finite(value: float) -> Optional[float]:
    """JSON-safe rendering of possibly-infinite costs/lengths."""
    return None if value == float("inf") else float(value)


def _result_summary(result: DesignResult, max_cost: float) -> Dict[str, Any]:
    """Deterministic per-strategy summary (no cache/timing counters)."""
    return {
        "feasible": result.feasible,
        "accepted": result.is_accepted(max_cost),
        "meets_reliability": result.meets_reliability,
        "cost": _finite(result.cost),
        "schedule_length": _finite(result.schedule_length),
        "deadline": _finite(result.deadline),
        "node_types": dict(result.node_types),
        "hardening": dict(result.hardening),
        "reexecutions": dict(result.reexecutions),
        "evaluations": result.evaluations,
        "failure_reason": result.failure_reason,
    }


def _design_counters(results: Dict[str, DesignResult]) -> Dict[str, float]:
    """Map DesignResult counters onto the session's additive cache keys."""
    counters = {
        "hits": 0.0,
        "misses": 0.0,
        "search_evaluations": 0.0,
        "points_computed": 0.0,
    }
    for result in results.values():
        counters["hits"] += result.cache_hits
        counters["misses"] += result.cache_misses
        counters["search_evaluations"] += result.evaluations
        counters["points_computed"] += result.points_computed
    return counters


# ----------------------------------------------------------------------
# synthetic-random: one generated application, full DSE
# ----------------------------------------------------------------------
@register_scenario(
    "synthetic-random",
    title="Full MIN/MAX/OPT exploration of one generated application",
    description=(
        "Generate one synthetic benchmark (size, shape and seed are "
        "parameters) and run the complete design-space exploration at the "
        f"medium-SER technology with HPD={FAMILY_HPD:g} %"
    ),
    params=(
        ScenarioParam(
            "n_processes",
            "int",
            default=20,
            minimum=1,
            maximum=2000,
            description="Application size (the paper uses 20 and 40)",
        ),
        ScenarioParam(
            "n_node_types",
            "int",
            default=4,
            minimum=1,
            maximum=16,
            description="Size of the node-type library",
        ),
        ScenarioParam("seed", "int", default=1, description="Generator seed"),
        ScenarioParam(
            "layers",
            "int",
            minimum=1,
            description="DAG layer count; default derives ~sqrt(n_processes)",
        ),
        ScenarioParam(
            "extra_edge_probability",
            "float",
            default=0.2,
            minimum=0.0,
            maximum=1.0,
            description="Probability of extra cross-layer dependencies",
        ),
    ),
)
def run_synthetic_random(session: "Session", params: Dict[str, Any]) -> ScenarioOutcome:
    config = BenchmarkConfig(
        n_processes=params["n_processes"],
        n_node_types=params["n_node_types"],
        layers=params["layers"],
        extra_edge_probability=params["extra_edge_probability"],
    )
    seed = params["seed"]
    benchmark = generate_benchmark(seed, config, name=f"synthetic_random_{seed}")
    preset = session.config.resolved_preset()
    max_cost = preset.arc_default
    results, disk = _evaluate_benchmark_setting(
        benchmark,
        FAMILY_SER,
        FAMILY_HPD,
        preset,
        tuple(STRATEGIES),
        session.config.cache_dir,
        session.config.cache_max_bytes,
        session.single_flight,
    )
    counters = _design_counters(results)
    counters.update({key: float(value) for key, value in disk.items()})
    session.add_cache_counters(counters)

    summaries = {name: _result_summary(results[name], max_cost) for name in STRATEGIES}
    payload = {
        "benchmark": {
            "name": benchmark.name,
            "seed": seed,
            "n_processes": config.n_processes,
            "n_node_types": config.n_node_types,
            "deadline": benchmark.application.deadline,
        },
        "setting": {"ser": FAMILY_SER, "hpd": FAMILY_HPD, "max_cost": max_cost},
        "strategies": summaries,
    }
    rows = [
        [
            name,
            "yes" if summary["feasible"] else "no",
            "yes" if summary["accepted"] else "no",
            "inf" if summary["cost"] is None else f"{summary['cost']:g}",
            "inf" if summary["schedule_length"] is None else f"{summary['schedule_length']:.2f}",
            summary["evaluations"],
        ]
        for name, summary in summaries.items()
    ]
    text = format_table(
        ["strategy", "feasible", "accepted", "cost", "worst-case SL (ms)", "evaluations"],
        rows,
        title=(
            f"synthetic-random — {benchmark.name} "
            f"({config.n_processes} processes, seed {seed}, ArC {max_cost:g})"
        ),
    )
    return ScenarioOutcome(payload=payload, text=text)


# ----------------------------------------------------------------------
# synthetic-suite: the acceptance sweep shape at arbitrary size
# ----------------------------------------------------------------------
@register_scenario(
    "synthetic-suite",
    title="Acceptance sweep over a generated benchmark suite",
    description=(
        "Reproduce the shape of the paper's 150-application acceptance "
        "evaluation over a suite of chosen size: MIN/MAX/OPT acceptance "
        f"percentages at ArC in {{15, 20, 25}} for the medium-SER/"
        f"HPD={FAMILY_HPD:g} % setting"
    ),
    params=(
        ScenarioParam(
            "count",
            "int",
            default=6,
            minimum=1,
            maximum=500,
            description="Number of generated applications (the paper uses 150)",
        ),
        ScenarioParam(
            "n_processes",
            "int",
            default=16,
            minimum=1,
            maximum=2000,
            description="Processes per application",
        ),
        ScenarioParam("seed", "int", default=1, description="Base seed; app i uses seed+i"),
    ),
)
def run_synthetic_suite(session: "Session", params: Dict[str, Any]) -> ScenarioOutcome:
    preset = replace(
        session.config.resolved_preset(),
        n_applications=params["count"],
        process_counts=(params["n_processes"],),
        base_seed=params["seed"],
    )
    # The session's shared experiment is pinned to the configured preset;
    # this family needs its own suite, so it owns (and closes) a private
    # experiment and registers its counters with the session explicitly.
    experiment = AcceptanceExperiment(
        preset=preset,
        n_jobs=session.config.jobs,
        store_dir=session.config.cache_dir,
        store_max_bytes=session.config.cache_max_bytes,
        single_flight=session.single_flight,
        progress=session.emit_progress if session.progress is not None else None,
    )
    try:
        setting = experiment.run_setting(FAMILY_SER, FAMILY_HPD)
        acceptance = {
            f"{arc:g}": setting.acceptance_percent(arc) for arc in PAPER_ARC_VALUES
        }
        average_cost = {
            name: _finite(setting.average_cost(name)) for name in STRATEGIES
        }
        session.add_cache_counters(experiment.cache_report())
    finally:
        experiment.close()

    payload = {
        "suite": {
            "count": params["count"],
            "n_processes": params["n_processes"],
            "base_seed": params["seed"],
        },
        "setting": {"ser": FAMILY_SER, "hpd": FAMILY_HPD},
        "acceptance_percent": acceptance,
        "average_cost": average_cost,
    }
    rows = [
        [f"{arc:g}"] + [acceptance[f"{arc:g}"][name] for name in STRATEGIES]
        for arc in PAPER_ARC_VALUES
    ]
    text = format_table(
        ["ArC"] + list(STRATEGIES),
        rows,
        title=(
            f"synthetic-suite — % accepted over {params['count']} applications "
            f"({params['n_processes']} processes, base seed {params['seed']})"
        ),
    )
    return ScenarioOutcome(payload=payload, text=text)


# ----------------------------------------------------------------------
# fault-injection: Monte-Carlo campaign vs. the analytic model
# ----------------------------------------------------------------------
#: Fixed three-process control application profiled by the campaign
#: (name, nominal WCET in ms).
_INJECTION_PROCESSES = (("sense", 4.0), ("compute", 6.0), ("actuate", 2.0))

#: Baseline (unhardened) ECU model the hardening ladder is applied to.
_INJECTION_ECU = ProcessorModel(
    name="ECU",
    flip_flops=20_000,
    upset_rate_per_ff_cycle=5e-12,
    clock_mhz=100.0,
    architectural_derating=0.1,
)


def _injection_application() -> Application:
    graph = TaskGraph("injection_chain")
    for name, wcet in _INJECTION_PROCESSES:
        graph.add_process(Process(name, nominal_wcet=wcet))
    graph.add_message(Message("m1", "sense", "compute", transmission_time=0.5))
    graph.add_message(Message("m2", "compute", "actuate", transmission_time=0.5))
    application = Application(
        name="injection_chain",
        deadline=50.0,
        reliability_goal=1.0 - 1e-5,
    )
    application.add_graph(graph)
    return application


@register_scenario(
    "fault-injection",
    title="Monte-Carlo fault injection vs. the analytic failure model",
    description=(
        "Profile a three-process control application entirely from "
        "injection campaigns and cross-validate every (process, node, "
        "level) estimate against the closed-form failure probability"
    ),
    params=(
        ScenarioParam(
            "runs",
            "int",
            default=20_000,
            minimum=100,
            maximum=10_000_000,
            description="Simulated executions per estimate",
        ),
        ScenarioParam("seed", "int", default=2009, description="Campaign seed"),
        ScenarioParam(
            "hardening_levels",
            "int",
            default=3,
            minimum=1,
            maximum=8,
            description="Levels of the selective-hardening ladder",
        ),
    ),
)
def run_fault_injection(session: "Session", params: Dict[str, Any]) -> ScenarioOutcome:
    runs = params["runs"]
    levels = params["hardening_levels"]
    application = _injection_application()
    ecu = linear_cost_node_type("ECU", base_cost=10.0, levels=levels)
    plan = SelectiveHardeningPlan.linear(levels)
    campaign = FaultInjectionCampaign(runs=runs, seed=params["seed"])
    profile = campaign.profile_application(
        application, [ecu], {"ECU": _INJECTION_ECU}, plan
    )

    entries: List[Dict[str, Any]] = []
    all_within = True
    for name, _ in _INJECTION_PROCESSES:
        for level in ecu.hardening_levels:
            wcet = profile.wcet(name, "ECU", level)
            observed_p = profile.failure_probability(name, "ECU", level)
            hardened = apply_selective_hardening(_INJECTION_ECU, plan, level)
            analytic_p = hardened.failure_probability(wcet)
            observed = round(observed_p * runs)
            expected = analytic_p * runs
            # Count-space tolerance: ~4 sigma of the binomial failure count
            # plus a rule-of-three floor so near-zero expectations (heavily
            # hardened levels) do not reject legitimate small-sample noise.
            tolerance = 4.0 * sqrt(expected * (1.0 - analytic_p)) + 3.0
            within = abs(observed - expected) <= tolerance
            all_within = all_within and within
            entries.append(
                {
                    "process": name,
                    "node_type": "ECU",
                    "level": level,
                    "wcet_ms": wcet,
                    "monte_carlo": observed_p,
                    "analytic": analytic_p,
                    "observed_failures": observed,
                    "expected_failures": expected,
                    "tolerance_failures": tolerance,
                    "within_tolerance": within,
                }
            )

    payload = {
        "campaign": {"runs": runs, "seed": params["seed"], "hardening_levels": levels},
        "entries": entries,
        "all_within_tolerance": all_within,
    }
    rows = [
        [
            entry["process"],
            entry["level"],
            f"{entry['wcet_ms']:.2f}",
            f"{entry['monte_carlo']:.3e}",
            f"{entry['analytic']:.3e}",
            "yes" if entry["within_tolerance"] else "NO",
        ]
        for entry in entries
    ]
    text = format_table(
        ["process", "level", "WCET (ms)", "Monte-Carlo p", "analytic p", "within tol."],
        rows,
        title=(
            f"fault-injection — {runs} runs/estimate, seed {params['seed']}, "
            f"{levels} hardening level(s)"
        ),
    )
    return ScenarioOutcome(payload=payload, text=text)
