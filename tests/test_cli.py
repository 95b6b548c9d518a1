"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.runs == 20
        assert args.frames == 2_000

    def test_overrides(self):
        args = build_parser().parse_args(["fig5", "--runs", "3", "--frames", "100"])
        assert args.runs == 3
        assert args.frames == 100


class TestExecution:
    def test_fig3_prints_sequence(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "tc + Dc + L + E" in out

    def test_ablation_small(self, capsys):
        assert main(["ablation", "--seeds", "4"]) == 0
        out = capsys.readouterr().out
        assert "sources of nondeterminism" in out

    def test_det_small(self, capsys):
        assert main(["det", "--seeds", "1", "--frames", "60"]) == 0
        out = capsys.readouterr().out
        assert "deterministic brake assistant" in out

    def test_scaling(self, capsys):
        assert main(["scaling"]) == 0
        assert "EXT-SCALE" in capsys.readouterr().out


class TestExplore:
    def test_explore_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.strategy == "pct"
        assert args.budget == 40
        assert not args.shrink

    def test_pct_finds_shrinks_records_and_replays(self, capsys, tmp_path):
        trace_file = str(tmp_path / "trace.json")
        artifact_file = str(tmp_path / "schedule.json")
        assert main([
            "explore", "--budget", "10", "--shrink",
            "--record", trace_file, "--schedule-out", artifact_file,
            "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "failing schedule found" in out
        assert "the failure needs exactly" in out

        artifact = json.loads((tmp_path / "schedule.json").read_text())
        assert artifact["found"] is True
        assert artifact["strategy"] == "pct"
        assert artifact["schedule"]["preemptions"]
        assert sum(artifact["errors"].values()) > 0

        # The recorded trace replays: exit 0 means the error counters
        # reproduced bit-exactly from the decision trace alone.
        assert main(["explore", "--replay", trace_file, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "errors reproduced" in out

    def test_exhausted_budget_exits_nonzero(self, capsys):
        # depth=0 yields baseline-only schedules: no failure to find.
        assert main([
            "explore", "--budget", "2", "--depth", "0",
            "--frames", "10", "--no-cache",
        ]) == 1
        assert "no failure" in capsys.readouterr().out


class TestServiceCLI:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.local_workers == 0
        assert args.campaigns == 0
        assert args.chunk_size == 4
        assert args.max_attempts == 3
        assert args.lease_ttl == 15.0
        assert args.job_timeout == 600.0

    def test_submit_requires_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_submit_parser(self):
        args = build_parser().parse_args(
            ["submit", "--spec", "spec.json", "--wait", "--timeout", "30"]
        )
        assert args.spec == "spec.json"
        assert args.wait
        assert args.timeout == 30.0
        assert args.coordinator == "http://127.0.0.1:8765"

    def test_worker_parser(self):
        args = build_parser().parse_args(
            ["worker", "--coordinator", "http://host:1", "--idle-exit", "5"]
        )
        assert args.coordinator == "http://host:1"
        assert args.idle_exit == 5.0
        assert args.max_jobs == 0  # 0 means unlimited

    def test_serve_submit_end_to_end(self, tmp_path, capsys):
        """`repro serve` + `repro submit --wait`, fully in process."""
        import socket
        import threading

        from repro.apps.brake import BrakeScenario
        from repro.harness import ScenarioSpec

        with socket.socket() as probe:  # find a free port
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        spec_path = tmp_path / "spec.json"
        ScenarioSpec(
            variant="det",
            seeds=(0, 1, 2),
            scenario=BrakeScenario(n_frames=20),
            label="cli-e2e",
        ).save(spec_path)
        serve_rc = []
        server = threading.Thread(
            target=lambda: serve_rc.append(
                main(
                    [
                        "serve",
                        "--port", str(port),
                        "--store-dir", str(tmp_path / "store"),
                        "--local-workers", "2",
                        "--campaigns", "1",
                        "--chunk-size", "2",
                    ]
                )
            ),
            daemon=True,
        )
        server.start()
        rc = main(
            [
                "submit",
                "--spec", str(spec_path),
                "--coordinator", f"http://127.0.0.1:{port}",
                "--wait",
                "--out", str(tmp_path / "result.json"),
                "--report-out", str(tmp_path / "report.json"),
            ]
        )
        server.join(timeout=30)
        assert rc == 0
        assert serve_rc == [0]
        out = capsys.readouterr().out
        assert "3 seed(s)" in out
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["status"] == "done"
        assert [o["seed"] for o in result["outcomes"]] == [0, 1, 2]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["format"] == "sweep-service/v1"
        assert report["jobs"]


@pytest.fixture
def spec_4_5(tmp_path):
    """A saved spec of seeds (4, 5) x 12 brake frames."""
    from repro.apps.brake import BrakeScenario
    from repro.harness import ScenarioSpec

    path = tmp_path / "spec.json"
    ScenarioSpec(seeds=(4, 5), scenario=BrakeScenario(n_frames=12)).save(path)
    return str(path)


class TestSpecFlag:
    """``--spec`` decides the seeds and frames of every observed run."""

    def test_metrics_sweeps_the_spec(self, tmp_path, spec_4_5):
        out = tmp_path / "aggregate.json"
        assert main([
            "metrics", "det", "--spec", spec_4_5, "--workers", "1",
            "--no-cache", "--metrics-out", str(out),
        ]) == 0
        document = json.loads(out.read_text())
        assert document["seeds"] == 2
        assert document["aggregate"]["seeds"] == 2
        assert document["frames"] == 12

    def test_trace_runs_the_first_spec_seed(self, tmp_path, spec_4_5, capsys):
        assert main([
            "trace", "det", "--spec", spec_4_5,
            "--trace-out", str(tmp_path / "trace.json"),
        ]) == 0
        assert "seed 4, 12 frames" in capsys.readouterr().out

    def test_export_runs_the_first_spec_seed(self, tmp_path, spec_4_5, capsys):
        metrics = tmp_path / "metrics.json"
        assert main([
            "det", "--spec", spec_4_5, "--workers", "1", "--no-cache",
            "--metrics-out", str(metrics),
        ]) == 0
        assert json.loads(metrics.read_text())["format"] == "repro-metrics/v1"
        assert "brake det, seed 4" in capsys.readouterr().err


@pytest.fixture
def brake_spec_80(tmp_path):
    """A saved spec of seed 0 x 80 brake frames."""
    from repro.apps.brake import BrakeScenario
    from repro.harness import ScenarioSpec

    path = tmp_path / "brake80.json"
    ScenarioSpec(scenario=BrakeScenario(n_frames=80)).save(path)
    return str(path)


class TestBrakeFigureSpecFlag:
    """``--spec`` drives every brake figure, and only brake specs do."""

    @pytest.mark.parametrize(
        "command", ["fig5", "det", "tradeoff", "overhead", "let", "distributed"]
    )
    def test_library_app_spec_exits_with_a_message(self, tmp_path, command):
        from repro.harness import ScenarioSpec

        path = tmp_path / "fusion.json"
        ScenarioSpec(app="fusion").save(path)
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--spec", str(path), "--workers", "1", "--no-cache"])
        assert isinstance(excinfo.value.code, str)
        assert "'fusion'" in excinfo.value.code
        assert command in excinfo.value.code

    def test_distributed_runs_the_spec_frames(self, brake_spec_80, capsys):
        assert main([
            "distributed", "--spec", brake_spec_80, "--workers", "1", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "/80" in out
        assert "/200" not in out

    def test_let_runs_the_spec(self, tmp_path, capsys):
        from repro.apps.brake import BrakeScenario
        from repro.dear import StpConfig
        from repro.harness import ScenarioSpec

        def dear_mean(argv):
            assert main(["let", *argv, "--workers", "1", "--no-cache"]) == 0
            (line,) = [
                row for row in capsys.readouterr().out.splitlines()
                if row.strip().startswith("DEAR")
            ]
            return float(line.split()[-1])

        path = tmp_path / "let.json"
        ScenarioSpec(
            seeds=(0, 1),
            scenario=BrakeScenario(n_frames=40),
            stp=StpConfig(latency_bound_ns=10_000_000, clock_error_ns=0),
        ).save(path)
        # Three safe-to-process releases of a doubled L: +15 ms.
        default = dear_mean(["--frames", "40"])
        assert dear_mean(["--spec", str(path)]) == pytest.approx(default + 15.0)
