"""Benchmark of the repro-ftes design-space exploration, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig6a-cold --seed 1 --seconds 10 --trace 0

Workloads: ``fig6a-cold``, ``fig6a-warm``, ``random-n400`` (in process,
through ``repro.api.Session``) and ``serve-mix`` (a live ``repro.serve``).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics, measured by wrapping each
layer's public functions from this directory (see ``tracer.py``).

Human-readable lines go to standard output first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The run exits non-zero, without that line, when the program cannot be
imported or a run could not take place at all.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

import calibrate

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"

#: Import and session construction, timed inside a fresh interpreter.
_SETUP_PROBE = """
import time
start = time.perf_counter()
import repro.api
repro.api.Session(repro.api.RunConfig(preset="fast"))
print(repr(time.perf_counter() - start))
"""
SETUP_PROBES = 4


def _python_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup() -> List[float]:
    """``import repro.api`` plus ``Session`` construction, in fresh processes.

    One untimed probe first, so byte-compilation of a fresh checkout is not
    counted; the median of the timed probes, in reference seconds, is
    ``setup_s``.
    """
    samples = []
    before = calibrate.sample()
    for probe in range(SETUP_PROBES + 1):
        result = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE], cwd=ROOT, env=_python_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = calibrate.sample()
        if probe:
            seconds = float(result.stdout.strip().splitlines()[-1])
            samples.append(seconds * calibrate.scale([before, after]))
        before = after
    return samples


def run_in_process(name: str, work_dir: Path, seed: int, seconds: float,
                   trace: bool) -> Tuple[Dict[str, float], int, int, List[str]]:
    import inproc

    setup = measure_setup()
    sys.path.insert(0, str(ROOT / "src"))
    outcome = inproc.run_workload(name, ROOT, work_dir, seed, seconds, trace)
    if trace:
        metrics = inproc.per_layer(outcome)
        print(f"# layer coverage of traced wall clock: {inproc.coverage(outcome):.3f}")
    else:
        metrics = inproc.end_to_end(outcome)
        metrics["setup_s"] = statistics.median(setup)
    plain = [rep for rep in outcome.plain if rep.error is None]
    traced = [rep for rep in outcome.traced if rep.error is None]
    print(f"# {len(plain)} untraced and {len(traced)} traced repetitions checked")
    if plain:
        print(f"# run_s wall clock: {[round(rep.run_s, 4) for rep in plain]}")
        print(f"# reference scale: {[round(rep.scale, 3) for rep in plain]}")
        print(f"# work counters: {plain[0].counters}")
    return metrics, outcome.attempted, outcome.failed, outcome.errors


def run_serve(work_dir: Path, seconds: float,
              trace: bool) -> Tuple[Dict[str, float], int, int, List[str]]:
    sys.path.insert(0, str(ROOT / "src"))
    import serve_mix

    outcome = serve_mix.run_serve_mix(ROOT, work_dir, seconds)
    if trace:
        metrics = serve_mix.per_layer(outcome)
    else:
        metrics = serve_mix.end_to_end(outcome)
        metrics["setup_s"] = statistics.median(outcome.setup_s) if outcome.setup_s else 0.0
    good = [job for job in outcome.measured if job.error is None]
    print(f"# {len(good)} measured jobs checked, {len(outcome.warm_up)} warm-up jobs")
    print(f"# server launch-to-healthy samples: {[round(s, 4) for s in outcome.setup_s]}")
    return metrics, outcome.attempted, outcome.failed, outcome.errors


def main() -> int:
    # BENCHMARK.json names the workloads and every metric with its unit.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(arguments.trace)
    # SIGTERM unwinds like an exception, so the clean-up below still runs
    # and a serve-mix server is stopped with its workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{arguments.workload}-", dir=WORK_ROOT))
    try:
        if arguments.workload == "serve-mix":
            metrics, attempted, failed, errors = run_serve(work_dir, arguments.seconds, trace)
        else:
            metrics, attempted, failed, errors = run_in_process(
                arguments.workload, work_dir, arguments.seed, arguments.seconds, trace
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        # A layer a workload never reaches reads 0.
        metrics = {name: metrics.get(name, 0) for name in units}
        metrics["error_rate"] = failed / attempted if attempted else 1.0
    for error in errors:
        print(f"# FAILED: {error}")
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": not errors and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
