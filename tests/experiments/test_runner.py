"""Unit tests for the CLI runner."""

import pytest

from repro.experiments.runner import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_options(self):
        args = build_parser().parse_args(
            ["run", "table1", "figure7", "--scale", "quick", "--seed", "3"]
        )
        assert args.command == "run"
        assert args.ids == ["table1", "figure7"]
        assert args.scale == "quick"
        assert args.seed == 3

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table1", "--scale", "huge"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_latency_loss_options(self):
        args = build_parser().parse_args(
            [
                "run",
                "figure2",
                "--engine",
                "fast-event",
                "--latency",
                "0.2",
                "--loss",
                "0.01",
            ]
        )
        assert args.engine == "fast-event"
        assert args.latency == pytest.approx(0.2)
        assert args.loss == pytest.approx(0.01)

    def test_event_engines_selectable(self):
        for name in ("event", "fast-event"):
            args = build_parser().parse_args(
                ["run", "table1", "--engine", name]
            )
            assert args.engine == name


class TestMain:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in (
            "table1",
            "figure2",
            "figure3",
            "figure4",
            "table2",
            "figure5",
            "figure6",
            "figure7",
        ):
            assert experiment_id in output

    def test_unknown_experiment_returns_error(self, capsys):
        assert main(["run", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bad_repro_engine_env_fails_eagerly(self, capsys, monkeypatch):
        # A typo'd $REPRO_ENGINE must fail before any experiment starts,
        # with the full registry listing in the message.
        monkeypatch.setenv("REPRO_ENGINE", "warpdrive")
        assert main(["run", "table1"]) == 2
        err = capsys.readouterr().err
        assert "warpdrive" in err
        for name in ("cycle", "fast", "live", "event", "fast-event"):
            assert name in err

    def test_latency_rejected_for_cycle_engine(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert main(["run", "table1", "--latency", "0.2"]) == 2
        err = capsys.readouterr().err
        assert "--latency" in err
        assert "event" in err

    def test_loss_rejected_for_explicit_cycle_engine(self, capsys):
        assert (
            main(["run", "table1", "--engine", "fast", "--loss", "0.1"]) == 2
        )
        assert "--loss" in capsys.readouterr().err

    def test_env_knob_rejected_for_cycle_engine(self, capsys, monkeypatch):
        # The $REPRO_LOSS fallback must hit the same eager validation as
        # the CLI flag -- a clean exit 2, not a traceback mid-experiment.
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.setenv("REPRO_LOSS", "0.1")
        assert main(["run", "table1"]) == 2
        err = capsys.readouterr().err
        assert "REPRO_LOSS" in err
        assert "event" in err

    def test_malformed_env_knob_fails_eagerly(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "fast-event")
        monkeypatch.setenv("REPRO_LATENCY", "soon")
        assert main(["run", "table1"]) == 2
        assert "REPRO_LATENCY" in capsys.readouterr().err

    def test_nan_latency_rejected_eagerly(self, capsys):
        # NaN slips through a bare `< 0` check and would schedule every
        # message at time NaN -- a silently empty but exit-0 report.
        assert (
            main(
                ["run", "table1", "--engine", "event", "--latency", "nan"]
            )
            == 2
        )
        assert "finite" in capsys.readouterr().err

    def test_negative_latency_rejected_eagerly(self, capsys):
        assert (
            main(
                ["run", "table1", "--engine", "event", "--latency", "-0.5"]
            )
            == 2
        )
        assert "latency" in capsys.readouterr().err

    def test_out_of_range_loss_rejected_eagerly(self, capsys):
        assert (
            main(
                ["run", "table1", "--engine", "fast-event", "--loss", "1.5"]
            )
            == 2
        )
        assert "loss" in capsys.readouterr().err


class TestListScenarios:
    def test_lists_vocabulary(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in (
            "random-convergence",
            "growing-overlay",
            "catastrophic-failure",
            "churn-trace",
            "partition-heal",
        ):
            assert name in out
        for kind in ("grow", "continuous-churn", "partition", "heal"):
            assert kind in out
        assert "measurements" in out

    def test_list_includes_engines_scales_and_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for scale in ("quick", "default", "full"):
            assert scale in out
        for engine in ("cycle", "fast", "live", "event", "fast-event"):
            assert engine in out
        assert "churn-trace" in out
        assert "bootstrap kinds" in out


class TestRunSpec:
    PLAN = {
        "name": "cli-demo",
        "scenario": {
            "name": "mini-heal",
            "bootstrap": "random",
            "cycles": 6,
            "events": [
                {"kind": "catastrophic-failure", "at_cycle": 4,
                 "fraction": 0.5}
            ],
        },
        "protocols": ["(rand,head,pushpull)"],
        "scales": ["quick"],
        "engines": ["fast"],
        "seeds": [0],
        "n_nodes": 30,
        "measurements": ["dead-links"],
    }

    def _write(self, tmp_path, payload):
        import json

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_plan_document_runs(self, capsys, tmp_path):
        assert main(["run-spec", self._write(tmp_path, self.PLAN)]) == 0
        out = capsys.readouterr().out
        assert "1 run(s)" in out
        assert "(rand,head,pushpull)" in out
        assert "digest" in out

    def test_bare_scenario_document_runs(self, capsys, tmp_path):
        path = self._write(tmp_path, self.PLAN["scenario"])
        assert main(
            ["run-spec", path, "--engine", "fast", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "mini-heal" in out

    def test_out_writes_machine_readable_records(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "records.json"
        assert main(
            [
                "run-spec",
                self._write(tmp_path, self.PLAN),
                "--out",
                str(out_path),
            ]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["plan"]["name"] == "cli-demo"
        record = payload["records"][0]
        assert record["engine"] == "fast"
        assert len(record["views_digest"]) == 64
        assert record["measurements"]["dead-links"]["dead_links"]

    def test_unknown_event_kind_fails_eagerly(self, capsys, tmp_path):
        bad = dict(self.PLAN)
        bad["scenario"] = {
            "name": "bad",
            "events": [{"kind": "asteroid"}],
        }
        assert main(["run-spec", self._write(tmp_path, bad)]) == 2
        err = capsys.readouterr().err
        assert "unknown event kind" in err
        assert "asteroid" in err

    def test_out_of_range_parameter_fails_eagerly(self, capsys, tmp_path):
        bad = dict(self.PLAN)
        bad["scenario"] = {
            "name": "bad",
            "events": [
                {"kind": "catastrophic-failure", "at_cycle": 1,
                 "fraction": 7.0}
            ],
        }
        assert main(["run-spec", self._write(tmp_path, bad)]) == 2
        assert "fraction" in capsys.readouterr().err

    def test_unknown_engine_fails_eagerly(self, capsys, tmp_path):
        bad = dict(self.PLAN)
        bad["engines"] = ["warpdrive"]
        assert main(["run-spec", self._write(tmp_path, bad)]) == 2
        assert "warpdrive" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["run-spec", "/nonexistent/plan.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["run-spec", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_protocol_override_with_hs_suffix(self, capsys, tmp_path):
        path = self._write(tmp_path, self.PLAN)
        assert main(
            [
                "run-spec",
                path,
                "--protocol",
                "(rand,rand,pushpull);H2S1",
            ]
        ) == 0
        assert "(rand,rand,pushpull);H2S1" in capsys.readouterr().out

    def test_workers_flag_parses(self):
        args = build_parser().parse_args(
            ["run-spec", "plan.json", "--workers", "4"]
        )
        assert args.workers == 4
        args = build_parser().parse_args(["run", "table1", "--workers", "0"])
        assert args.workers == 0

    def test_parallel_run_spec_matches_serial_records(self, capsys, tmp_path):
        import json

        plan = dict(self.PLAN)
        plan["seeds"] = [0, 1]
        path = self._write(tmp_path, plan)
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        assert main(
            ["run-spec", path, "--workers", "1", "--out", str(serial_out)]
        ) == 0
        assert main(
            ["run-spec", path, "--workers", "2", "--out", str(parallel_out)]
        ) == 0
        out = capsys.readouterr().out
        assert "2 run(s) on 1 worker(s)" in out
        assert "2 run(s) on 2 worker(s)" in out

        def canonical(payload_path):
            records = json.loads(payload_path.read_text())["records"]
            for record in records:
                del record["elapsed_seconds"]
                del record["timings"]
            return records

        assert canonical(serial_out) == canonical(parallel_out)

    def test_bad_workers_flag_fails_eagerly(self, capsys, tmp_path):
        path = self._write(tmp_path, self.PLAN)
        assert main(["run-spec", path, "--workers", "-2"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_bad_workers_env_fails_eagerly(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert main(["run", "table1"]) == 2
        assert "REPRO_WORKERS" in capsys.readouterr().err
