"""Session: scoped kernel ownership, store/engine construction, reports."""

from __future__ import annotations

import pytest

from repro.api import RunConfig, RunReport, Session
from repro.api.registry import ScenarioOutcome, register_scenario
from repro.core.exceptions import ModelError
from repro.engine.store import DesignPointStore
from repro.experiments.motivational import fig1_application, fig1_profile
from repro.kernels import (
    KERNEL_ENV_VAR,
    SCHED_KERNEL_ENV_VAR,
    active_kernel,
    active_sched_kernel,
)

from tests.conftest import FIG1_MAPPINGS, fig1_optimize


@pytest.fixture(autouse=True)
def _no_env(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    monkeypatch.delenv(SCHED_KERNEL_ENV_VAR, raising=False)


class TestKernelScope:
    def test_with_block_pins_and_restores_selection(self):
        config = RunConfig(sfp_kernel="reference", sched_kernel="reference")
        with Session(config):
            assert active_kernel().name == "reference"
            assert active_sched_kernel().name == "reference"
        assert active_kernel().name == "array"
        assert active_sched_kernel().name == "flat"

    def test_restores_selection_when_body_raises(self):
        with pytest.raises(RuntimeError, match="boom"):
            with Session(RunConfig(sfp_kernel="reference")):
                raise RuntimeError("boom")
        assert active_kernel().name == "array"

    def test_session_is_not_reentrant(self):
        session = Session()
        with session:
            with pytest.raises(RuntimeError, match="not re-entrant"):
                session.__enter__()

    def test_run_scopes_kernels_without_a_with_block(self):
        observed = {}

        @register_scenario("_probe-kernels", title="test probe")
        def _probe(session, params):
            observed["sfp"] = active_kernel().name
            observed["sched"] = active_sched_kernel().name
            return ScenarioOutcome(payload={})

        try:
            report = Session(
                RunConfig(sfp_kernel="reference", sched_kernel="reference")
            ).run("_probe-kernels")
        finally:
            # Keep the global registry clean for other tests (and reruns).
            from repro.api.registry import _SCENARIOS

            _SCENARIOS.pop("_probe-kernels", None)
        assert observed == {"sfp": "reference", "sched": "reference"}
        assert report.kernels == {"sfp": "reference", "sched": "reference"}
        # Standalone run() restored the ambient selection afterwards.
        assert active_kernel().name == "array"
        assert active_sched_kernel().name == "flat"


class TestOwnedResources:
    def test_no_store_without_cache_dir(self):
        assert Session().store is None

    def test_store_is_lazily_created_and_memoized(self, tmp_path):
        session = Session(RunConfig(cache_dir=tmp_path / "store"))
        store = session.store
        assert isinstance(store, DesignPointStore)
        assert session.store is store

    def test_engine_binds_context_and_warms_from_store(self, tmp_path):
        application, profile = fig1_application(), fig1_profile()
        session = Session(RunConfig(cache_dir=tmp_path / "store"))
        engine = session.engine(application, profile)
        assert engine.matches(application, profile)
        # Persist a warm engine; a second session must reload its entries.
        decision = fig1_optimize(engine, FIG1_MAPPINGS[2])
        session.persist(engine)
        second = Session(RunConfig(cache_dir=tmp_path / "store"))
        warmed = second.engine(application, profile)
        assert fig1_optimize(warmed, FIG1_MAPPINGS[2]) == decision
        assert warmed.disk_hits == 1

    def test_experiment_is_shared_within_a_session(self):
        session = Session(RunConfig(preset="smoke"))
        assert session.experiment() is session.experiment()
        assert session.experiment().preset.n_applications == 2

    def test_cache_report_is_zeroed_before_any_experiment(self):
        report = Session().cache_report()
        assert report["hits"] == 0
        assert report["points_computed"] == 0


class TestRun:
    def test_unknown_scenario_fails_with_known_list(self):
        with pytest.raises(ModelError, match="Unknown scenario"):
            Session().run("fig9z")

    def test_one_shot_run_writes_the_report_to_output(self, tmp_path):
        from repro import api

        output = tmp_path / "report.json"
        config = RunConfig(preset="smoke", output=output)
        report = api.run("fig6a", config)
        assert output.exists()
        assert RunReport.from_json(output.read_text(encoding="utf-8")) == report

    def test_session_run_does_not_write_output(self, tmp_path):
        # Multi-scenario sessions must not silently overwrite reports; only
        # the one-shot api.run persists to config.output.
        output = tmp_path / "report.json"
        Session(RunConfig(preset="smoke", output=output)).run("fig6a")
        assert not output.exists()
