"""Tests for the command-line interface."""

import json
import re
from dataclasses import replace

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

    def test_spec_reaches_the_search_and_its_artifacts(
        self, tmp_path, faulted_spec_7, capsys
    ):
        from repro.explore import Explorer
        from repro.harness import ScenarioSpec

        path, spec = faulted_spec_7
        trace, artifact = tmp_path / "trace.json", tmp_path / "schedule.json"
        metrics = tmp_path / "metrics.json"
        assert main([
            "explore", "--spec", path, "--budget", "4", "--workers", "1",
            "--no-cache", "--record", str(trace),
            "--schedule-out", str(artifact), "--metrics-out", str(metrics),
        ]) == 0
        document = json.loads(artifact.read_text())
        assert document["schedule"]["base_seed"] == 7
        horizon = Explorer(spec).horizon
        assert document["horizon"] == horizon
        # The fault plan ran: it changes the dispatch horizon.
        assert horizon != Explorer(replace(spec, faults=None)).horizon
        assert ScenarioSpec.from_dict(document["spec"]) == spec
        assert len(document["provenance"]["code_fingerprint"]) == 16
        # The export observes the explored spec's first seed.
        assert "observed brake nondet, seed 7" in capsys.readouterr().err
        counters = json.loads(metrics.read_text())["metrics"]["counters"]
        assert counters["faults.drop"] > 0
        assert counters["sched.dispatches"] == horizon
        # The trace carries its spec, so the replay re-runs the plan.
        assert json.loads(trace.read_text())["params"]["spec"] == spec.to_dict()
        assert main(["explore", "--replay", str(trace), "--no-cache"]) == 0
        assert "seed 7, 30 frames" in capsys.readouterr().out

    def test_replay_of_a_trace_without_a_spec_exits(self, tmp_path):
        from repro.explore import DecisionTrace

        path = tmp_path / "trace.json"
        DecisionTrace(base_seed=0, params={"app": "brake"}).save(path)
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--replay", str(path), "--no-cache"])
        assert "records no spec" in excinfo.value.code

    def test_counter_verify_exits_with_a_message(self):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "explore", "--app", "counter", "--verify", "2",
                "--budget", "1", "--frames", "4", "--no-cache",
            ])
        assert "has no seed-fixed inputs" in excinfo.value.code


@pytest.fixture
def faulted_spec_7(tmp_path):
    """Seed 7 x 30 calibration frames under a 50 % camera drop plan."""
    from repro.explore import calibration_scenario
    from repro.faults import FaultPlan
    from repro.harness import ScenarioSpec

    spec = ScenarioSpec(
        variant="nondet",
        seeds=(7,),
        scenario=calibration_scenario(30),
        faults=FaultPlan.camera_faults(seed=1, drop=0.5, label="explore-spec"),
    )
    path = tmp_path / "faulted.json"
    spec.save(path)
    return str(path), spec


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
        block = document["variants"]["det"]
        assert block["seeds"] == [4, 5]
        assert block["metrics"]["seeds"] == 2
        assert document["spec"]["scenario"]["n_frames"] == 12

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


def _faults(tmp_path, *argv):
    """Run ``repro faults`` with *argv*; return (exit code, report)."""
    out = tmp_path / "faults.json"
    code = main([
        "faults", *argv, "--workers", "1", "--no-cache", "--out", str(out),
        "--counterexample-out", str(tmp_path / "counterexample.json"),
    ])
    return code, json.loads(out.read_text())


class TestFaults:
    """``repro faults``: the DEAR determinism check under a fault plan."""

    def test_in_bound_drops_keep_dear_deterministic(self, tmp_path):
        from repro.snapshot import SNAPSHOTS_SUPPORTED

        code, report = _faults(
            tmp_path, "--drop", "0.05", "--seeds", "3", "--frames", "80"
        )
        assert code == 0
        assert report["format"] == "sweep-report/v1"
        det = report["variants"]["det"]
        assert det["distinct_fingerprints"] == 1
        assert not report["silent_divergence"]
        summaries = det["fault_summaries"].values()
        assert all(summary["fired"] > 0 for summary in summaries)
        # PRF schedules are world-seed independent: one fingerprint.
        assert len({s["trace_fingerprint"] for s in summaries}) == 1
        if SNAPSHOTS_SUPPORTED:
            assert report["snapshots"]["stats"]["fork_hits"] > 0

    def test_partition_beyond_l_is_flagged(self, tmp_path):
        code, report = _faults(
            tmp_path, "--partition", "900:1100", "--seeds", "3", "--frames", "120"
        )
        assert code == 0
        assert not report["silent_divergence"]
        assert report["variants"]["det"]["flagged_violations"] > 0

    def test_spec_keeps_its_fault_plan(self, tmp_path):
        from repro.apps.brake import BrakeScenario
        from repro.faults import FaultPlan
        from repro.harness import ScenarioSpec

        path = tmp_path / "spec.json"
        ScenarioSpec(
            seeds=(0, 1, 2),
            scenario=BrakeScenario(n_frames=80, deterministic_camera=True),
            faults=FaultPlan.camera_faults(seed=1, drop=0.3, label="spec-plan"),
        ).save(path)
        code, report = _faults(tmp_path, "--spec", str(path), "--no-snapshot")
        assert code == 0
        assert report["faults"]["label"] == "spec-plan"
        fired = [
            summary["fired"]
            for summary in report["variants"]["det"]["fault_summaries"].values()
        ]
        assert len(fired) == 3
        assert all(count > 5 for count in fired)

    def test_exports_observe_the_faulted_spec(self, tmp_path):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code, _ = _faults(
            tmp_path, "--drop", "0.3", "--seeds", "2", "--frames", "80",
            "--no-snapshot", "--trace-out", str(trace),
            "--metrics-out", str(metrics),
        )
        assert code == 0
        assert "faults" in json.loads(trace.read_text())["otherData"]["tracks"]
        counters = json.loads(metrics.read_text())["metrics"]["counters"]
        assert counters["faults.drop"] > 0


@pytest.fixture
def counter_spec_6(tmp_path):
    """A saved counter spec of seeds 10..15."""
    from repro.harness import ScenarioSpec

    path = tmp_path / "counter6.json"
    ScenarioSpec(app="counter", variant="nondet", seeds=range(10, 16)).save(path)
    return str(path)


def _histogram(out: str, title: str) -> dict[int, float]:
    """The value -> probability rows of the histogram titled *title*."""
    lines = out.split(title, 1)[1].splitlines()[1:]
    rows = {}
    for line in lines:
        if not line.strip():
            break
        value, rest = line.split(":", 1)
        rows[int(value)] = float(rest.split("|")[0])
    return rows


class TestCounterFigures:
    """``fig1`` and ``ablation`` run the counter app from one spec."""

    SWEEP = ["--workers", "1", "--no-cache"]

    def test_fig1_spec_gives_a_six_run_histogram(self, counter_spec_6, capsys):
        assert main(["fig1", "--spec", counter_spec_6, *self.SWEEP]) == 0
        captured = capsys.readouterr()
        stock = _histogram(captured.out, "stock AP (probability):")
        assert sum(stock.values()) == pytest.approx(1.0, abs=0.01)
        for probability in stock.values():
            assert probability * 6 == pytest.approx(round(probability * 6), abs=0.01)
        # Six stock seeds plus the DEAR contrast on the same six.
        assert "sweep: 12 seeds" in captured.err

    def test_ablation_spec_sets_the_seeds_per_row(self, counter_spec_6, capsys):
        assert main(["ablation", "--spec", counter_spec_6, *self.SWEEP]) == 0
        captured = capsys.readouterr()
        assert "sweep: 24 seeds" in captured.err
        rows = [line for line in captured.out.splitlines() if " on: " in line]
        rows.append(next(line for line in captured.out.splitlines() if "off:" in line))
        assert len(rows) == 4
        for row in rows:
            counts = re.findall(r"\b(\d+):(\d+)\b", row)
            assert sum(int(count) for _, count in counts) == 6, row

    @pytest.mark.parametrize("command", ["fig1", "ablation"])
    def test_brake_spec_exits_with_a_message(self, brake_spec_80, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--spec", brake_spec_80, *self.SWEEP])
        assert isinstance(excinfo.value.code, str)
        assert "'brake'" in excinfo.value.code
        assert command in excinfo.value.code

    @pytest.mark.parametrize(
        "command,flag",
        [("fig1", "--trace-out"), ("ablation", "--metrics-out")],
    )
    def test_exports_observe_the_counter(self, tmp_path, capsys, command, flag):
        out = tmp_path / "export.json"
        assert main([command, "--seeds", "3", *self.SWEEP, flag, str(out)]) == 0
        assert "observed counter nondet, seed 0" in capsys.readouterr().err
        assert out.exists()

    @pytest.mark.parametrize("command", ["fig3", "skew", "scaling", "native"])
    @pytest.mark.parametrize("flag", ["--trace-out", "--metrics-out"])
    def test_specless_commands_refuse_exports(self, tmp_path, command, flag):
        out = tmp_path / "export.json"
        with pytest.raises(SystemExit) as excinfo:
            main([command, *self.SWEEP, flag, str(out)])
        assert isinstance(excinfo.value.code, str)
        assert command in excinfo.value.code
        assert "\n" not in excinfo.value.code
        assert not out.exists()


#: Every subcommand that takes ``--app``, run on the counter: the exit
#: code, or the message it must exit with.
APP_COUNTER_RUNS = {
    "trace": (["trace", "det", "--trace-out", "{tmp}/trace.json"], 0),
    "metrics": (["metrics", "nondet", "--seeds", "2"], 0),
    "flows": (["flows", "--seeds", "2", "--frames", "2"], 0),
    "faults": (["faults", "--seeds", "2"], "has no seed-fixed inputs"),
    "explore": (["explore", "--budget", "3", "--frames", "4"], 0),
}


class TestAppCounter:
    """``--app counter`` runs, or exits 1 with a message, everywhere."""

    def test_every_app_subcommand_is_covered(self):
        (subparsers,) = build_parser()._subparsers._group_actions
        takes_app = {
            name
            for name, sub in subparsers.choices.items()
            if any("--app" in action.option_strings for action in sub._actions)
        }
        assert takes_app == set(APP_COUNTER_RUNS)

    @pytest.mark.parametrize("command", sorted(APP_COUNTER_RUNS))
    def test_counter_runs_or_exits_with_a_message(self, tmp_path, command):
        argv, expected = APP_COUNTER_RUNS[command]
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        argv += ["--app", "counter", "--workers", "1", "--no-cache"]
        if isinstance(expected, int):
            assert main(argv) == expected
            return
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert isinstance(excinfo.value.code, str)
        assert expected in excinfo.value.code
