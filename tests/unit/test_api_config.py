"""RunConfig: validation and serialization.

Kernel names are validated when the config is built: only the two backends
of each family are accepted, so a typo fails at construction instead of at
run time.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import RunConfig
from repro.core.exceptions import ModelError
from repro.experiments.synthetic import ExperimentPreset


class TestKernelNames:
    @pytest.mark.parametrize(
        "sfp, sched", [(None, None), ("array", "flat"), ("reference", "reference")]
    )
    def test_known_names_are_accepted(self, sfp, sched):
        config = RunConfig(sfp_kernel=sfp, sched_kernel=sched)
        assert (config.sfp_kernel, config.sched_kernel) == (sfp, sched)

    @pytest.mark.parametrize("name", ["auto", "batch", "no-such-backend", "flat"])
    def test_unknown_sfp_kernel_is_rejected_at_construction(self, name):
        with pytest.raises(ModelError, match="Unknown SFP kernel"):
            RunConfig(sfp_kernel=name)

    @pytest.mark.parametrize("name", ["auto", "batch", "no-such-backend", "array"])
    def test_unknown_sched_kernel_is_rejected_at_construction(self, name):
        with pytest.raises(ModelError, match="Unknown scheduler kernel"):
            RunConfig(sched_kernel=name)

    def test_from_dict_rejects_auto(self):
        with pytest.raises(ModelError, match="Unknown SFP kernel"):
            RunConfig.from_dict({"sfp_kernel": "auto"})


class TestValidation:
    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.preset == "fast"
        assert config.jobs == 1
        assert config.cache_dir is None

    def test_unknown_preset_rejected(self):
        with pytest.raises(ModelError, match="Unknown preset"):
            RunConfig(preset="warp-speed")

    def test_negative_jobs_rejected(self):
        with pytest.raises(ModelError, match="jobs must be >= 0"):
            RunConfig(jobs=-1)

    def test_tiny_cache_cap_rejected(self):
        with pytest.raises(ModelError, match="cache_size_mb"):
            RunConfig(cache_size_mb=0)

    def test_string_paths_are_coerced(self):
        config = RunConfig(cache_dir="/tmp/cache", output="/tmp/report.json")
        assert config.cache_dir == Path("/tmp/cache")
        assert config.output == Path("/tmp/report.json")

    def test_tilde_paths_are_expanded(self):
        config = RunConfig(cache_dir="~/.cache/repro")
        assert "~" not in str(config.cache_dir)
        assert config.cache_dir.is_absolute()


class TestPreset:
    def test_resolved_preset_matches_name(self):
        assert RunConfig(preset="smoke").resolved_preset() == ExperimentPreset.smoke()
        assert RunConfig(preset="fast").resolved_preset() == ExperimentPreset.fast()

    def test_seed_overrides_base_seed_only(self):
        preset = RunConfig(preset="fast", seed=42).resolved_preset()
        assert preset.base_seed == 42
        assert preset.n_applications == ExperimentPreset.fast().n_applications


class TestSerialization:
    def test_round_trip_defaults(self):
        config = RunConfig()
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_round_trip_fully_populated(self):
        config = RunConfig(
            sfp_kernel="reference",
            sched_kernel="flat",
            cache_dir=Path("/tmp/store"),
            cache_size_mb=64,
            jobs=2,
            seed=7,
            preset="smoke",
            output=Path("/tmp/out.json"),
        )
        data = config.to_dict()
        assert data["cache_dir"] == "/tmp/store"  # JSON-native
        assert RunConfig.from_dict(data) == config

    def test_unknown_fields_rejected(self):
        with pytest.raises(ModelError, match="Unknown RunConfig fields"):
            RunConfig.from_dict({"preset": "fast", "warp": 9})


class TestScenarioParams:
    def test_default_is_an_empty_dict(self):
        assert RunConfig().scenario_params == {}

    def test_round_trip(self):
        config = RunConfig(
            scenario_params={"n_processes": 100, "seed": "7", "ratio": 0.25}
        )
        data = config.to_dict()
        assert data["scenario_params"] == {"n_processes": 100, "seed": "7", "ratio": 0.25}
        assert RunConfig.from_dict(data) == config

    def test_mapping_is_normalized_to_a_plain_dict(self):
        from collections import OrderedDict

        config = RunConfig(scenario_params=OrderedDict(a=1))
        assert type(config.scenario_params) is dict

    def test_empty_key_rejected(self):
        with pytest.raises(ModelError, match="non-empty strings"):
            RunConfig(scenario_params={"": 1})

    def test_non_scalar_value_rejected(self):
        with pytest.raises(ModelError, match="JSON-native scalar"):
            RunConfig(scenario_params={"grid": [1, 2, 3]})
