"""Determinism of parallel sweeps: ``n_jobs=N`` ≡ serial, bit for bit.

The experiment harness promises that worker processes are an implementation
detail: same seed, same preset → identical :class:`DesignResult`s, identical
acceptance percentages and identical rendered (golden) output, regardless of
``n_jobs``.  Worker processes inherit no engine state (caches are per
process) and enter the parent's kernel selection in their pool initializer,
also when they are spawned rather than forked.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.fault_model import SER_MEDIUM
from repro.experiments.synthetic import (
    AcceptanceExperiment,
    ExperimentPreset,
    render_hpd_sweep,
)
from repro.kernels import use_kernel

SRC = Path(__file__).resolve().parents[2] / "src"

HPD_VALUES = (5.0, 100.0)


def _run(n_jobs, store_dir=None):
    experiment = AcceptanceExperiment(
        preset=ExperimentPreset.smoke(), n_jobs=n_jobs, store_dir=store_dir
    )
    sweep = experiment.hpd_sweep(
        ser=SER_MEDIUM, hpd_values=HPD_VALUES, max_cost=20.0
    )
    settings = [experiment.run_setting(SER_MEDIUM, hpd) for hpd in HPD_VALUES]
    return sweep, settings


@pytest.fixture(scope="module")
def serial():
    return _run(n_jobs=1)


@pytest.fixture(scope="module")
def parallel():
    return _run(n_jobs=2)


def test_acceptance_percentages_identical(serial, parallel):
    assert serial[0] == parallel[0]


def test_design_results_identical(serial, parallel):
    """Every semantic field of every DesignResult matches (cache counters are
    excluded from DesignResult equality by construction)."""
    for setting_serial, setting_parallel in zip(serial[1], parallel[1]):
        assert setting_serial.results == setting_parallel.results


def test_rendered_golden_output_identical(serial, parallel):
    title = "determinism check"
    assert render_hpd_sweep(serial[0], title) == render_hpd_sweep(
        parallel[0], title
    )


def test_reference_kernels_parallel_sweep_identical(serial):
    """The reference kernel pair under ``n_jobs=2`` reproduces the default
    serial results bit for bit, with identical work counters: kernel choice
    and worker processes are both implementation details."""
    with use_kernel(sfp="reference", sched="reference"):
        reference = _run(n_jobs=2)
    assert reference[0] == serial[0]
    for setting_reference, setting_serial in zip(reference[1], serial[1]):
        assert setting_reference.results == setting_serial.results
        assert setting_reference.cache_summary() == setting_serial.cache_summary()


#: Runs a smoke sweep on two spawn-started workers inside a reference-pair
#: Session, then asks each worker which kernels it has active.
_SPAWN_PROBE = textwrap.dedent(
    """
    import json
    import multiprocessing

    from repro.api import RunConfig, Session
    from repro.kernels import active_kernel, active_sched_kernel


    def probe(_):
        return active_kernel().name, active_sched_kernel().name


    if __name__ == "__main__":
        multiprocessing.set_start_method("spawn")
        config = RunConfig(
            preset="smoke", sfp_kernel="reference", sched_kernel="reference", jobs=2
        )
        with Session(config) as session:
            report = session.run("fig6a")
            workers = sorted(set(session.experiment()._pool().map(probe, range(8))))
        print(json.dumps({"report": report.kernels, "workers": workers}))
    """
)


def test_spawned_workers_run_the_sessions_kernels(tmp_path):
    script = tmp_path / "spawn_probe.py"
    script.write_text(_SPAWN_PROBE, encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
    observed = json.loads(completed.stdout.strip().splitlines()[-1])
    assert observed["report"] == {"sfp": "reference", "sched": "reference"}
    assert observed["workers"] == [["reference", "reference"]]


def test_parallel_run_with_store_stays_identical(tmp_path, serial):
    """The persistent store must not perturb parallel results either; a
    second warm parallel run must hit the disk cache and still agree."""
    cold = _run(n_jobs=2, store_dir=tmp_path)
    assert cold[0] == serial[0]
    warm = _run(n_jobs=2, store_dir=tmp_path)
    assert warm[0] == serial[0]
    warm_disk_hits = sum(setting.disk_hits for setting in warm[1])
    warm_loaded = sum(setting.disk_entries_loaded for setting in warm[1])
    assert warm_loaded > 0
    assert warm_disk_hits > 0
