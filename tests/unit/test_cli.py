"""Unit tests for the command-line interface (generic driver, serve, lint)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["run", "fig6a"]).scenario == "fig6a"
        assert parser.parse_args(["run", "--list"]).list_scenarios

    @pytest.mark.parametrize("command", ["motivational", "synthetic", "cruise-control"])
    def test_scenarios_are_not_subcommands(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])

    @pytest.mark.parametrize(
        "flags",
        [["--sfp-kernel", "auto"], ["--sfp-kernel", "batch"],
         ["--sched-kernel", "auto"], ["--sched-kernel", "batch"]],
    )
    def test_only_the_two_backends_per_family_are_choices(self, flags):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig6a", *flags])

    def test_run_accepts_config_flags(self):
        arguments = build_parser().parse_args(
            ["run", "fig6a", "--preset", "smoke", "--jobs", "2",
             "--sfp-kernel", "reference", "--sched-kernel", "flat",
             "--seed", "9"]
        )
        assert arguments.preset == "smoke"
        assert arguments.jobs == 2
        assert arguments.sfp_kernel == "reference"
        assert arguments.sched_kernel == "flat"
        assert arguments.seed == 9

    def test_run_accepts_repeated_param_flags(self):
        arguments = build_parser().parse_args(
            ["run", "synthetic-random",
             "--param", "n_processes=100", "--param", "seed=7"]
        )
        assert arguments.params == [("n_processes", "100"), ("seed", "7")]

    def test_param_values_may_contain_equals_signs(self):
        arguments = build_parser().parse_args(
            ["run", "synthetic-random", "--param", "label=a=b"]
        )
        assert arguments.params == [("label", "a=b")]

    def test_malformed_param_rejected_at_parse_time(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "synthetic-random", "--param", "n_processes"])
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "synthetic-random", "--param", "=5"])


class TestRunCommand:
    def test_list_prints_all_scenarios(self, capsys):
        exit_code = main(["run", "--list"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        for scenario_id in ("fig6a", "fig6b", "fig6c", "fig6d",
                            "motivational", "cruise-control"):
            assert scenario_id in captured

    def test_list_shows_parameter_schemas(self, capsys):
        exit_code = main(["run", "--list"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "--param n_processes:int=20 [1..2000]" in captured
        assert "--param runs:int=20000" in captured

    def test_param_overrides_reach_the_scenario(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        exit_code = main(
            ["run", "synthetic-random", "--preset", "smoke", "--output", str(output),
             "--param", "n_processes=8", "--param", "seed=3"]
        )
        capsys.readouterr()
        assert exit_code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["params"]["n_processes"] == 8
        assert report["params"]["seed"] == 3
        assert report["params"]["n_node_types"] == 4  # declared default
        assert report["config"]["scenario_params"] == {"n_processes": "8", "seed": "3"}
        assert report["results"]["benchmark"]["n_processes"] == 8

    def test_invalid_param_value_is_a_clean_error(self, capsys):
        exit_code = main(
            ["run", "synthetic-random", "--param", "n_processes=zero"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "expects int" in captured.err

    def test_param_on_parameterless_scenario_is_a_clean_error(self, capsys):
        exit_code = main(["run", "fig6a", "--param", "n_processes=5"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "accepts no parameters" in captured.err

    def test_missing_scenario_is_an_error(self, capsys):
        exit_code = main(["run"])
        assert exit_code == 2
        assert "scenario id is required" in capsys.readouterr().err

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        exit_code = main(["run", "fig6x"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "Unknown scenario" in captured.err
        assert "fig6a" in captured.err  # the known list helps recovery

    def test_runs_a_scenario_and_prints_summary(self, capsys):
        exit_code = main(["run", "fig6a", "--preset", "smoke"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Fig. 6a" in captured
        assert "evaluation engine" in captured
        assert "scenario fig6a" in captured

    def test_writes_a_structured_report(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        exit_code = main(
            ["run", "fig6a", "--preset", "smoke", "--output", str(output)]
        )
        assert exit_code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["scenario"] == "fig6a"
        assert report["config"]["preset"] == "smoke"
        assert "acceptance" in report["results"]


class TestMotivationalScenario:
    def test_prints_fig3_and_fig4_tables(self, capsys):
        exit_code = main(["run", "motivational"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Fig. 3" in captured
        assert "Fig. 4" in captured
        assert "Appendix A.2" in captured
        assert "680.0" in captured  # the unschedulable N1^1 alternative

    def test_writes_json_output(self, tmp_path, capsys):
        output = tmp_path / "motivational.json"
        exit_code = main(["run", "motivational", "--output", str(output)])
        assert exit_code == 0
        payload = json.loads(output.read_text(encoding="utf-8"))["results"]
        assert "fig3" in payload and "fig4" in payload and "appendix" in payload


class TestCruiseControlScenario:
    def test_prints_study_table(self, capsys):
        exit_code = main(["run", "cruise-control"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Cruise controller" in captured
        assert "OPT cost saving over MAX" in captured


class TestServeCommand:
    def test_serve_flags_parse(self):
        parser = build_parser()
        arguments = parser.parse_args(
            [
                "serve",
                "--port", "9000",
                "--workers", "4",
                "--queue-size", "8",
                "--job-timeout", "30",
                "--no-single-flight",
                "--sanitize",
            ]
        )
        assert arguments.command == "serve"
        assert arguments.port == 9000
        assert arguments.workers == 4
        assert arguments.queue_size == 8
        assert arguments.job_timeout == 30.0
        assert arguments.no_single_flight is True
        assert arguments.sanitize is True

    @pytest.mark.parametrize("flag", ["--workers", "--queue-size"])
    def test_degenerate_counts_rejected_at_parse_time(self, flag):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", flag, "0"])

    def test_serve_builds_the_config_and_delegates(self, monkeypatch, tmp_path):
        import repro.serve

        seen = {}

        def fake_run_server(config):
            seen["config"] = config
            return 0

        monkeypatch.setattr(repro.serve, "run_server", fake_run_server)
        exit_code = main(
            [
                "serve",
                "--port", "9100",
                "--workers", "3",
                "--spool-dir", str(tmp_path / "spool"),
                "--no-single-flight",
            ]
        )
        assert exit_code == 0
        config = seen["config"]
        assert config.host == "127.0.0.1"
        assert config.port == 9100
        assert config.workers == 3
        assert config.single_flight is False
        assert config.spool_dir == tmp_path / "spool"

    def test_degenerate_timeout_is_a_clean_error(self, capsys):
        exit_code = main(["serve", "--job-timeout", "-1"])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err
