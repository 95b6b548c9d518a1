"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro fig5 --runs 20 --frames 2000
    python -m repro det --seeds 5 --frames 500
    python -m repro fig5 --workers 8          # parallel sweep
    python -m repro fig5 --force              # ignore cached results
    python -m repro all
    python -m repro explore --strategy pct --shrink --record trace.json
    python -m repro explore --replay trace.json
    python -m repro trace det --trace-out trace.json      # Perfetto timeline
    python -m repro metrics det --seeds 20 --metrics-out metrics.json
    python -m repro faults --drop 0.05 --partition 800:1200 --seeds 10
    python -m repro faults --plan plan.json --out report.json
    python -m repro det --spec spec.json      # any subcommand from a spec
    python -m repro serve --port 8765 --local-workers 2   # sweep service
    python -m repro submit --spec spec.json --wait        # run a campaign
    python -m repro worker --coordinator http://host:8765 # join the fleet

Every subcommand runs the corresponding experiment driver and prints
the text rendering of the paper figure/table it reproduces.  Sweeps run
in parallel on a process pool (``--workers``, ``REPRO_WORKERS``,
default: all cores) and cache per-seed results in one sqlite file,
``.repro_cache/results.sqlite`` (``--cache-dir``, ``REPRO_CACHE_DIR``),
so repeated invocations only pay for what changed; a throughput summary
(seeds/s, cache hits) is printed to stderr after each run.  ``repro
serve`` keeps campaign results in the same kind of store under
``--store-dir``.
"""

from __future__ import annotations

import argparse
import sys
import time


def _add_int(parser: argparse.ArgumentParser, name: str, default: int, help_text: str):
    parser.add_argument(name, type=int, default=default, help=help_text)


def _add_app(parser: argparse.ArgumentParser) -> None:
    """``--app`` selector: any registered application, brake by default."""
    from repro import apps

    parser.add_argument(
        "--app", choices=apps.names(), default="brake",
        help="application to run (default: brake; see `repro library` "
             "for the multi-ECU scenario library)",
    )


def _sweep_options() -> argparse.ArgumentParser:
    """Options shared by every subcommand: parallelism and caching."""
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("sweep execution")
    group.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size for seed sweeps "
             "(default: REPRO_WORKERS or all cores; 1 = sequential)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk result cache",
    )
    group.add_argument(
        "--force", action="store_true",
        help="recompute every seed, overwriting cached results",
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache location (default: REPRO_CACHE_DIR or .repro_cache)",
    )
    group.add_argument(
        "--spec", default=None, metavar="FILE",
        help="load a scenario-spec JSON file (v1 or v2: app, seeds, "
             "scenario, network, STP bounds, fault plan) and run the "
             "experiment from it",
    )
    obs_group = common.add_argument_group("observability")
    obs_group.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also run the first seed of the subcommand's spec observed "
             "and write its Perfetto/Chrome trace_event JSON to FILE",
    )
    obs_group.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the observed run's (or the metrics sweep's) "
             "metrics JSON to FILE",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Achieving Determinism in Adaptive AUTOSAR' "
            "(DATE 2020): run any experiment and print its figure."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    common = _sweep_options()

    fig1 = commands.add_parser(
        "fig1", help="Figure 1: client/server histogram", parents=[common]
    )
    _add_int(fig1, "--seeds", 200, "number of stock-AP runs (DEAR: the first 8)")

    commands.add_parser(
        "fig3", help="Figure 3: tagged message sequence", parents=[common]
    )

    fig5 = commands.add_parser(
        "fig5", help="Figure 5: error prevalence", parents=[common]
    )
    _add_int(fig5, "--runs", 20, "number of experiment instances")
    _add_int(fig5, "--frames", 2_000, "frames per run (paper: 100000)")

    det = commands.add_parser(
        "det", help="Section IV.B: deterministic variant", parents=[common]
    )
    _add_int(det, "--seeds", 5, "number of seeds")
    _add_int(det, "--frames", 500, "frames per run")

    tradeoff = commands.add_parser(
        "tradeoff", help="deadline vs. error/latency", parents=[common]
    )
    _add_int(tradeoff, "--frames", 300, "frames per point")

    ablation = commands.add_parser(
        "ablation", help="the three sources (II.B)", parents=[common]
    )
    _add_int(ablation, "--seeds", 25, "seeds per configuration")

    overhead = commands.add_parser(
        "overhead", help="cost of determinism", parents=[common]
    )
    _add_int(overhead, "--frames", 400, "frames per variant")

    let = commands.add_parser(
        "let", help="LET baseline comparison", parents=[common]
    )
    _add_int(let, "--frames", 300, "frames")

    commands.add_parser(
        "skew", help="EXT: clock-sync error sweep", parents=[common]
    )
    commands.add_parser(
        "scaling", help="EXT: pipeline-depth latency", parents=[common]
    )
    commands.add_parser(
        "native", help="EXT: native tag transport", parents=[common]
    )

    distributed = commands.add_parser(
        "distributed",
        help="EXT: brake assistant across two processing ECUs",
        parents=[common],
    )
    _add_int(distributed, "--frames", 200, "frames per configuration")

    explore = commands.add_parser(
        "explore",
        help="search scheduler interleavings for a failure "
             "(record/replay, shrink, verify determinism)",
        parents=[common],
    )
    _add_app(explore)
    explore.add_argument(
        "--strategy", choices=("random", "pct"), default="pct",
        help="random = uniform seed sweeping; pct = bounded preemption "
             "injection (default)",
    )
    _add_int(explore, "--budget", 40, "maximum executions to explore")
    _add_int(explore, "--frames", 50, "frames per execution")
    _add_int(explore, "--seed", 0, "base root seed")
    _add_int(explore, "--depth", 6, "PCT: preemption points per execution")
    explore.add_argument(
        "--max-preempt-ms", type=float, default=25.0, metavar="MS",
        help="PCT: delay injected at each preemption point (default: 25)",
    )
    explore.add_argument(
        "--shrink", action="store_true",
        help="delta-debug the failing schedule to a minimal preemption set",
    )
    explore.add_argument(
        "--record", metavar="FILE", default=None,
        help="write the failing run's full decision trace as JSON",
    )
    explore.add_argument(
        "--replay", metavar="FILE", default=None,
        help="replay a recorded decision trace instead of exploring; "
             "exit 0 iff the recorded error counters reproduce",
    )
    explore.add_argument(
        "--schedule-out", metavar="FILE", default=None,
        help="write the (shrunk) failing schedule as a JSON artifact",
    )
    _add_int(
        explore, "--verify", 0,
        "also verify DEAR determinism across N in-budget schedules",
    )
    explore.add_argument(
        "--snapshot", action=argparse.BooleanOptionalAction, default=True,
        help="fork executions from copy-on-write snapshots of shared "
             "schedule prefixes instead of replaying from t=0 "
             "(default: on; falls back to plain runs where os.fork is "
             "unavailable)",
    )

    faults = commands.add_parser(
        "faults",
        help="deterministic fault-injection sweep: run the DEAR and stock "
             "variants under a seeded fault plan and check that in-bound "
             "faults keep DEAR's logical traces bit-identical",
        parents=[common],
    )
    _add_app(faults)
    faults.add_argument(
        "--plan", metavar="FILE", default=None,
        help="load a fault-plan/v1 JSON file (otherwise built from the "
             "quick flags below; library apps with no quick flags fall "
             "back to their scenario's own fault plan)",
    )
    faults.add_argument(
        "--drop", type=float, default=None, metavar="P",
        help="camera-flow frame drop probability "
             "(default: 0.05 for brake, 0 for library apps)",
    )
    faults.add_argument(
        "--duplicate", type=float, default=0.0, metavar="P",
        help="camera-flow duplication probability",
    )
    faults.add_argument(
        "--reorder", type=float, default=0.0, metavar="P",
        help="camera-flow reordering probability",
    )
    faults.add_argument(
        "--corrupt", type=float, default=0.0, metavar="P",
        help="camera-flow corruption (FCS drop) probability",
    )
    faults.add_argument(
        "--spike", type=float, default=0.0, metavar="P",
        help="camera-flow latency-spike probability",
    )
    faults.add_argument(
        "--spike-ms", type=float, default=2.0, metavar="MS",
        help="latency-spike magnitude in ms (default: 2)",
    )
    faults.add_argument(
        "--partition", action="append", metavar="START_MS:END_MS",
        default=None,
        help="sever all inter-host links over [START, END) ms; "
             "repeatable; deferred frames arrive after the heal",
    )
    _add_int(faults, "--fault-seed", 1, "fault-plan PRF seed")
    _add_int(faults, "--seeds", 5, "world seeds to sweep per variant")
    faults.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="frames per run (default: 150 for brake, the scenario's "
             "own size for library apps)",
    )
    faults.add_argument(
        "--late-policy",
        choices=("process", "drop", "last-known", "fault-signal"),
        default="process",
        help="DEAR policy for L-bound-violating messages (default: process)",
    )
    faults.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the full sweep-report/v1 JSON to FILE",
    )
    faults.add_argument(
        "--counterexample-out", metavar="FILE", default="fault-counterexample.json",
        help="where to write the divergence artifact if DEAR silently "
             "diverges (default: fault-counterexample.json)",
    )
    faults.add_argument(
        "--snapshot", action=argparse.BooleanOptionalAction, default=True,
        help="triage seed 0's fired faults down to the decisive subset "
             "by ddmin over copy-on-write snapshot forks (default: on "
             "where os.fork is available)",
    )

    flows = commands.add_parser(
        "flows",
        help="causal flow tracing: sweep any app's variants with per-frame "
             "hop records, print per-hop latency, drop attribution and the "
             "critical path, and diff stock vs DEAR",
        parents=[common],
    )
    _add_app(flows)
    _add_int(flows, "--seeds", 10, "world seeds to sweep per variant")
    flows.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="frames per run (default: 120 for brake, the scenario's "
             "own size for library apps)",
    )
    flows.add_argument(
        "--variant", choices=("det", "nondet", "both"), default="both",
        help="which variant(s) to flow-trace (default: both)",
    )
    flows.add_argument(
        "--drop", type=float, default=0.0, metavar="P",
        help="camera-flow fault-plan drop probability "
             "(default: 0, no plan; brake only)",
    )
    _add_int(flows, "--fault-seed", 1, "fault-plan PRF seed")
    flows.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the sweep-report/v1 JSON to FILE",
    )

    bench_diff = commands.add_parser(
        "bench-diff",
        help="perf trajectory: compare fresh BENCH_*.json benchmark output "
             "against committed baselines with a configurable tolerance",
    )
    bench_diff.add_argument(
        "--baseline-dir", default="benchmarks/baselines", metavar="DIR",
        help="committed baseline BENCH_*.json directory "
             "(default: benchmarks/baselines)",
    )
    bench_diff.add_argument(
        "--current-dir", default="bench-artifacts", metavar="DIR",
        help="freshly generated BENCH_*.json directory (REPRO_BENCH_DIR; "
             "default: bench-artifacts)",
    )
    bench_diff.add_argument(
        "--tolerance", type=float, default=0.75, metavar="REL",
        help="relative tolerance for timing fields (default: 0.75 — CI "
             "runners are noisy; tighten locally)",
    )
    bench_diff.add_argument(
        "--strict", action="store_true",
        help="exit 1 on regressions beyond tolerance (default: warn only)",
    )
    bench_diff.add_argument(
        "--gate-fields", action="store_true",
        help="curated strict subset: structural mismatches, throughput "
             "(*_per_s) regressions and missing/new benchmarks fail; "
             "plain wall-time noise only warns (combine with --strict)",
    )
    bench_diff.add_argument(
        "--only", metavar="PATTERN", default=None,
        help="restrict the diff to benchmark names matching this fnmatch "
             "pattern (for partial runs that regenerate one suite)",
    )
    bench_diff.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the bench-diff/v1 JSON report to FILE",
    )

    serve = commands.add_parser(
        "serve",
        help="run the sweep-service coordinator: accept scenario-spec "
             "campaigns over HTTP (sweep-service/v1), shard them into "
             "seed-chunk jobs and queue them for the worker fleet",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    _add_int(serve, "--port", 8765, "bind port (0 = ephemeral)")
    serve.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="shared content-addressed result store "
             "(default: <REPRO_CACHE_DIR or .repro_cache>/service)",
    )
    _add_int(
        serve, "--local-workers", 0,
        "also spawn N in-process workers over loopback HTTP (one-host mode)",
    )
    _add_int(serve, "--chunk-size", 4, "seeds per job")
    _add_int(
        serve, "--max-attempts", 3,
        "lease-or-fail attempts before a job fails terminally",
    )
    serve.add_argument(
        "--lease-ttl", type=float, default=15.0, metavar="S",
        help="lease seconds a job survives without a heartbeat "
             "(worker-death requeue horizon; default: 15)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=600.0, metavar="S",
        help="hard wall-clock budget per job attempt (default: 600)",
    )
    serve.add_argument(
        "--retry-backoff", type=float, default=0.25, metavar="S",
        help="requeue delay after the first failure, doubling per "
             "attempt (default: 0.25)",
    )
    _add_int(
        serve, "--campaigns", 0,
        "exit once N campaigns have completed (0 = serve forever)",
    )

    submit = commands.add_parser(
        "submit",
        help="submit a scenario-spec campaign to a running coordinator "
             "and optionally wait for the merged result",
    )
    submit.add_argument(
        "--spec", required=True, metavar="FILE",
        help="scenario-spec JSON file (v1 or v2) describing the campaign",
    )
    submit.add_argument(
        "--coordinator", default="http://127.0.0.1:8765", metavar="URL",
        help="coordinator base URL (default: http://127.0.0.1:8765)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the campaign completes and print the summary",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="--wait timeout in seconds (default: 600)",
    )
    submit.add_argument(
        "--connect-timeout", type=float, default=30.0, metavar="S",
        help="seconds to wait for the coordinator to come up (default: 30)",
    )
    submit.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the merged sweep-service/v1 result document to FILE",
    )
    submit.add_argument(
        "--report-out", metavar="FILE", default=None,
        help="write the campaign post-mortem report JSON to FILE",
    )

    worker = commands.add_parser(
        "worker",
        help="run one sweep-service worker: lease jobs from a "
             "coordinator under a heartbeat and stream results back",
    )
    worker.add_argument(
        "--coordinator", default="http://127.0.0.1:8765", metavar="URL",
        help="coordinator base URL (default: http://127.0.0.1:8765)",
    )
    worker.add_argument(
        "--poll", type=float, default=0.2, metavar="S",
        help="idle poll interval in seconds (default: 0.2)",
    )
    worker.add_argument(
        "--idle-exit", type=float, default=None, metavar="S",
        help="exit after this long without work (default: run forever)",
    )
    _add_int(worker, "--max-jobs", 0, "exit after completing N jobs (0 = no limit)")
    worker.add_argument(
        "--connect-timeout", type=float, default=30.0, metavar="S",
        help="seconds to wait for the coordinator to come up (default: 30)",
    )

    status = commands.add_parser(
        "status",
        help="live campaign status from a running coordinator "
             "(per-job state, queue depth, seeds/s, ETA)",
    )
    status.add_argument(
        "campaign", nargs="?", default=None,
        help="campaign id (default: the most recently submitted)",
    )
    status.add_argument(
        "--coordinator", default="http://127.0.0.1:8765", metavar="URL",
        help="coordinator base URL (default: http://127.0.0.1:8765)",
    )
    status.add_argument(
        "--watch", action="store_true",
        help="refresh the table until the campaign completes",
    )
    status.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="--watch refresh interval in seconds (default: 1)",
    )

    report = commands.add_parser(
        "report",
        help="fetch a campaign's post-mortem report; --trace-out renders "
             "the job timelines as a Perfetto fleet trace",
    )
    report.add_argument(
        "campaign", nargs="?", default=None,
        help="campaign id (default: the most recently submitted)",
    )
    report.add_argument(
        "--coordinator", default="http://127.0.0.1:8765", metavar="URL",
        help="coordinator base URL (default: http://127.0.0.1:8765)",
    )
    report.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the sweep-service/v1 report JSON to FILE",
    )
    report.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write the fleet Perfetto trace (trace_event JSON) to FILE",
    )

    trace = commands.add_parser(
        "trace",
        help="run one observed app run and export a Perfetto trace",
        parents=[common],
    )
    _add_app(trace)
    trace.add_argument(
        "experiment", choices=("det", "nondet"),
        help="variant to observe",
    )
    _add_int(trace, "--seed", 0, "seed of the observed run")
    trace.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="frames for the observed run (default: 200 for brake, the "
             "scenario's own size for library apps)",
    )

    metrics = commands.add_parser(
        "metrics",
        help="sweep observed app runs and print cross-seed "
             "metric aggregates (p50/p95/max)",
        parents=[common],
    )
    _add_app(metrics)
    metrics.add_argument(
        "experiment", choices=("det", "nondet"),
        help="variant to observe",
    )
    _add_int(metrics, "--seeds", 10, "number of observed seeds")
    metrics.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="frames per run (default: 200 for brake, the scenario's "
             "own size for library apps)",
    )

    library = commands.add_parser(
        "library",
        help="list the registered applications and the multi-ECU "
             "scenario library (topology size, variants, default faults)",
    )
    library.add_argument(
        "--json", action="store_true",
        help="emit the listing as JSON instead of a table",
    )

    run_all = commands.add_parser(
        "all", help="run every experiment (default scale)", parents=[common]
    )
    run_all.add_argument(
        "--quick", action="store_true", help="reduced sizes for a fast pass"
    )
    return parser


def _make_sweep(args: argparse.Namespace):
    """A :class:`SweepRunner` configured from the common CLI options."""
    from repro.harness.sweep import SweepRunner

    return SweepRunner(
        workers=args.workers,
        use_cache=False if args.no_cache else None,
        force=args.force,
        cache_dir=args.cache_dir,
    )


def _load_spec(args: argparse.Namespace):
    """The :class:`ScenarioSpec` named by ``--spec``, or ``None``."""
    if not getattr(args, "spec", None):
        return None
    from repro.harness.config import ScenarioSpec

    return ScenarioSpec.load(args.spec)


def _cli_spec(
    args: argparse.Namespace,
    variant: str = "det",
    brake_frames: int | None = None,
    n_seeds: int | None = None,
    app: str = "brake",
):
    """The :class:`ScenarioSpec` a seeded subcommand runs.

    ``--spec FILE`` wins, with *variant* applied.  Otherwise the spec is
    ``--app`` (else *app*: the counter for ``fig1``/``ablation``, brake
    for the rest) with seeds ``0..N-1`` from *n_seeds*
    (a subcommand's own seed count, e.g. ``fig5 --runs``) or ``--seeds
    N``, else the single ``--seed``, and ``--frames`` applied to the
    app's default scenario; without ``--frames`` brake runs
    *brake_frames* frames (the subcommand's own default) and library
    apps their scenario's own size.
    """
    from dataclasses import replace

    from repro import apps
    from repro.harness.config import ScenarioSpec

    spec = _load_spec(args)
    if spec is not None:
        return replace(spec, variant=variant)
    app = getattr(args, "app", app)
    frames = getattr(args, "frames", None)
    if frames is None and app == "brake":
        frames = brake_frames
    scenario = apps.get(app).default_scenario()
    if frames is not None:
        scenario = replace(scenario, n_frames=frames)
    if n_seeds is None:
        n_seeds = getattr(args, "seeds", None)
    seeds = range(n_seeds) if n_seeds is not None else (getattr(args, "seed", 0),)
    return ScenarioSpec(
        app=app, variant=variant, seeds=tuple(seeds), scenario=scenario
    )


def _with_frames(spec, n_frames: int):
    """*spec* with its scenario resized to *n_frames* frames."""
    from dataclasses import replace

    return replace(spec, scenario=replace(spec.scenario, n_frames=n_frames))


def _observe(
    args: argparse.Namespace, spec, flows: bool = False, metrics: bool = True
):
    """Run the spec's first seed observed; write ``--trace-out``/``--metrics-out``.

    The CLI's one observed single run: ``repro trace`` and every
    subcommand's trace/metrics export go through it, and it runs nothing
    unless one was asked for.  *metrics=False* leaves ``--metrics-out``
    to the caller (``repro metrics`` writes its sweep report there).
    """
    from repro import obs
    from repro.harness.config import observe_spec

    if not (args.trace_out or (metrics and args.metrics_out)):
        return None
    seed = spec.seeds[0]
    observation, result = observe_spec(seed, spec, flows=flows)
    what = f"{spec.app} {spec.variant}, seed {seed}"
    if args.trace_out:
        obs.write_trace(observation, args.trace_out)
        print(f"observed {what}: trace -> {args.trace_out}", file=sys.stderr)
    if metrics and args.metrics_out:
        obs.write_metrics(observation, args.metrics_out)
        print(f"observed {what}: metrics -> {args.metrics_out}", file=sys.stderr)
    return observation, result


def _run_one(name: str, args: argparse.Namespace, sweep):
    """Run figure *name*; returns its rendering and the spec it ran.

    The spec is ``None`` for the drivers that run none (``fig3`` and the
    extensions; ``skew`` and ``scaling`` read only its STP bounds).
    """
    from repro.harness import extensions, figures

    if name == "fig3":
        return figures.figure3_sequence().render(), None
    if name == "skew":
        result = extensions.clock_skew_sweep(sweep=sweep, spec=_load_spec(args))
        return result.render(), None
    if name == "scaling":
        result = extensions.pipeline_scaling(sweep=sweep, spec=_load_spec(args))
        return result.render(), None
    if name == "native":
        return extensions.native_transport_comparison(sweep=sweep).render(), None
    # The paper figures: presets over one spec each.
    if name in ("fig1", "ablation"):
        spec = _cli_spec(args, "nondet", app="counter")
        driver = figures.figure1 if name == "fig1" else figures.ablation_sources
    elif name == "fig5":
        spec = _cli_spec(args, "nondet", n_seeds=args.runs)
        driver = figures.figure5
    elif name == "let":
        spec = _cli_spec(args, n_seeds=3)
        driver = figures.let_baseline
    else:
        spec = _cli_spec(args)
        driver = {
            "det": figures.det_case_study,
            "tradeoff": figures.tradeoff,
            "overhead": figures.overhead,
            "distributed": figures.distributed,
        }[name]
    return driver(spec, sweep=sweep).render(), spec


def _replay_trace(args: argparse.Namespace):
    """``repro explore --replay FILE``: re-execute a recorded trace.

    Re-runs the spec the trace recorded, fault plan included.  Returns
    ``(exit code, spec)``.
    """
    from repro.explore import ScheduleReplayer
    from repro.explore.decisions import DecisionTrace
    from repro.harness.config import ScenarioSpec, run_scenario_spec
    from repro.sim.rng import stream_hooks

    trace = DecisionTrace.load(args.replay)
    if "spec" not in trace.params:
        raise SystemExit(
            f"explore --replay: {args.replay} records no spec to re-run "
            "(record it again with explore --record)"
        )
    spec = ScenarioSpec.from_dict(trace.params["spec"])
    replayer = ScheduleReplayer(trace)
    with stream_hooks(replayer):
        result = run_scenario_spec(trace.base_seed, spec)
    errors = result.errors.as_dict()
    print(
        f"replay: {replayer.consumed}/{len(trace.records)} recorded "
        f"decisions consumed (seed {trace.base_seed}, "
        f"{spec.scenario.n_frames} frames)"
    )
    expected = trace.params.get("errors")
    if expected is not None and errors != expected:
        print(
            "replay: error counters DIVERGED\n"
            f"  expected: {expected}\n  got:      {errors}"
        )
        return 1, spec
    nonzero = {name: count for name, count in errors.items() if count}
    print(f"replay: errors reproduced: {nonzero or 'none'}")
    return 0, spec


def _run_explore(args: argparse.Namespace, sweep) -> int:
    """``repro explore``: search, then optionally shrink/record/verify.

    Searches the stock variant of ``_cli_spec`` (brake without
    ``--spec``: its calibration scenario at ``--frames``) from the
    spec's first seed; ``--verify`` checks the spec's DEAR variant with
    seed-fixed inputs.  ``--trace-out``/``--metrics-out`` observe the
    explored spec's first seed.
    """
    from dataclasses import replace

    from repro.explore import PctStrategy, RandomSweepStrategy, calibration_scenario
    from repro.time import MS

    if args.replay:
        code, spec = _replay_trace(args)
    else:
        spec = _cli_spec(args, "nondet")
        if spec.app == "brake" and not args.spec:
            spec = replace(spec, scenario=calibration_scenario(args.frames))
        if args.strategy == "pct":
            strategy = PctStrategy(
                depth=args.depth,
                preempt_ns=int(args.max_preempt_ms * MS),
                seed=spec.seeds[0],
            )
        else:
            strategy = RandomSweepStrategy()
        engine = None
        if args.snapshot:
            from repro.snapshot import SNAPSHOTS_SUPPORTED, SnapshotEngine

            if SNAPSHOTS_SUPPORTED:
                engine = SnapshotEngine()
        try:
            code = _explore_spec(args, spec, sweep, strategy, engine)
        finally:
            if engine is not None:
                engine.close()
                print(engine.stats.describe(), file=sys.stderr)
    _observe(args, _with_frames(spec, min(spec.scenario.n_frames, 500)))
    return code


def _explore_spec(args, spec, sweep, strategy, engine) -> int:
    import json
    from dataclasses import replace

    from repro.analysis.report import (
        exploration_report,
        shrink_report,
        verification_report,
    )
    from repro.apps.world import seed_fixed
    from repro.explore import (
        IN_BUDGET_PREEMPT_NS,
        Explorer,
        PctStrategy,
        shrink_schedule,
        verify_determinism,
    )
    from repro.harness.report import provenance

    if args.verify > 0:
        try:
            det_spec = replace(spec, variant="det", scenario=seed_fixed(spec.scenario))
        except ValueError as exc:
            raise SystemExit(
                f"explore --verify: app {spec.app!r} {exc} "
                "to verify DEAR determinism under"
            ) from None
    explorer = Explorer(spec, strategy=strategy, sweep=sweep, snapshots=engine)
    result = explorer.explore(budget=args.budget)
    print(exploration_report(result))

    schedule = result.found.schedule if result.found else None
    errors = dict(result.found.errors) if result.found else {}
    shrunk = None
    if result.found is not None and args.shrink:
        if schedule.preemptions:
            shrunk = shrink_schedule(explorer, schedule)
            schedule, errors = shrunk.minimal, dict(shrunk.errors)
            print(shrink_report(shrunk))
        else:
            print("shrink: schedule has no preemption points, nothing to remove")

    if result.found is not None and args.record:
        run_result, trace = explorer.record(schedule)
        trace.params["errors"] = run_result.errors.as_dict()
        trace.save(args.record)
        print(
            f"record: {len(trace.records)} decisions "
            f"({trace.fingerprint()[:12]}) -> {args.record}"
        )

    if args.schedule_out:
        artifact = {
            "spec": spec.to_dict(),
            "provenance": provenance(),
            "strategy": result.strategy,
            "budget": result.budget,
            "executions_used": result.executions_used,
            "horizon": result.horizon,
            "found": result.found is not None,
            "schedule": schedule.to_dict() if schedule else None,
            "errors": errors,
            "shrink": (
                {"trials": shrunk.trials, "removed": shrunk.removed}
                if shrunk
                else None
            ),
            "snapshots": engine.stats.as_dict() if engine is not None else None,
        }
        with open(args.schedule_out, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"schedule artifact -> {args.schedule_out}")

    code = 0 if result.found is not None else 1
    if args.verify > 0:
        base_seed = spec.seeds[0]
        in_budget = PctStrategy(
            depth=args.depth, preempt_ns=IN_BUDGET_PREEMPT_NS, seed=base_seed + 9
        )
        det_horizon = Explorer(det_spec).horizon
        schedules = [
            in_budget.schedule_for(index + 1, base_seed, det_horizon)
            for index in range(args.verify)
        ]
        verification = verify_determinism(det_spec, schedules, sweep=sweep)
        print(verification_report(verification))
        if not verification.ok:
            code = 1
    return code


def _faults_plan(args: argparse.Namespace, app: str):
    """The :class:`FaultPlan` from ``--plan`` or the quick flags.

    ``None`` leaves the spec's own plan to run: a ``--spec`` file's
    unless ``--plan`` or a quick flag is given, a library app's default
    (e.g. the failover primary-node outage) unless a quick flag is set.
    """
    from repro.faults import FaultPlan, Partition
    from repro.time import MS

    if args.plan:
        return FaultPlan.load(args.plan)
    partitions = []
    for window in args.partition or ():
        start_text, _, end_text = window.partition(":")
        try:
            start_ms, end_ms = float(start_text), float(end_text)
        except ValueError:
            raise SystemExit(
                f"--partition expects START_MS:END_MS, got {window!r}"
            ) from None
        partitions.append(
            Partition(start_ns=int(start_ms * MS), end_ns=int(end_ms * MS))
        )
    others = (args.duplicate, args.reorder, args.corrupt, args.spike)
    if args.spec and args.drop is None and not partitions and not any(others):
        return None
    drop = args.drop if args.drop is not None else (
        0.05 if app == "brake" else 0.0
    )
    quick = any(p > 0.0 for p in (drop, *others)) or bool(partitions)
    if app != "brake" and not quick:
        return None
    return FaultPlan.camera_faults(
        seed=args.fault_seed,
        drop=drop,
        duplicate=args.duplicate,
        reorder=args.reorder,
        corrupt=args.corrupt,
        spike=args.spike,
        spike_ns=int(args.spike_ms * MS),
        partitions=tuple(partitions),
        label="cli-faults",
    )


def _faults_snapshot_triage(spec, report):
    """Minimize the first det seed's fired faults to the decisive subset.

    ddmin over the fired-fault trace, with every probe forked from the
    deepest copy-on-write snapshot whose membership prefix matches —
    answering "which of the faults that fired actually changed the
    outcome?" without paying a full re-run per probe.  Returns the
    report's ``snapshots`` block, or ``None`` when there is nothing to
    triage (no faults fired, outcome unchanged, or no ``os.fork``).
    """
    from dataclasses import replace

    from repro.explore.decisions import DecisionTrace
    from repro.faults import shrink_fault_trace
    from repro.harness.config import run_scenario_spec
    from repro.snapshot import SNAPSHOTS_SUPPORTED, SnapshotEngine

    det = report["variants"]["det"]
    seed = det["seeds"][0]
    trace_dict = (det["fault_summaries"][str(seed)] or {}).get("trace")
    if not SNAPSHOTS_SUPPORTED or not trace_dict or not trace_dict["records"]:
        return None
    trace = DecisionTrace.from_dict(trace_dict)
    clean = run_scenario_spec(
        seed, spec, fault_replay=replace(trace, records=[])
    ).trace_fingerprints
    if clean == det["fingerprints"][str(seed)]:
        return None  # the fired faults left no observable mark

    def failure(candidate, checkpointer=None):
        result = run_scenario_spec(
            seed,
            spec,
            fault_replay=candidate,
            fault_universe=trace if checkpointer is not None else None,
            fault_checkpointer=checkpointer,
        )
        return result.trace_fingerprints != clean

    engine = SnapshotEngine()
    try:
        shrunk = shrink_fault_trace(
            spec.effective_faults(), trace, failure, snapshots=engine
        )
    except ValueError:
        return None  # full-trace replay did not reproduce; don't guess
    finally:
        engine.close()
    print(f"snapshot triage (seed {seed}): {shrunk.describe()}")
    print(f"  {engine.stats.describe()}")
    return {
        "seed": seed,
        "fired": len(trace.records),
        "trials": shrunk.trials,
        "minimal": shrunk.minimal.to_dict(),
        "summary": shrunk.describe(),
        "stats": engine.stats.as_dict(),
    }


def _write_report(report: dict, path: str) -> None:
    """Write a ``sweep-report/v1`` document to *path*."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"sweep report -> {path}")


def _run_faults(args: argparse.Namespace, sweep) -> int:
    """``repro faults``: seeded fault sweep + DEAR determinism check.

    A preset over :func:`~repro.harness.report.sweep_report`: both
    variants under the same fault plan with seed-fixed inputs.
    In-bound faults must leave DEAR's logical traces identical across
    world seeds; divergence is acceptable only when flagged by the
    runtime (STP violations / deadline faults).  Silent divergence
    writes the report as a counterexample and exits nonzero.
    """
    from dataclasses import replace

    from repro.analysis.report import render_table
    from repro.apps.world import seed_fixed
    from repro.faults import FaultPlan
    from repro.harness.report import sweep_report

    spec = _cli_spec(args, brake_frames=150)
    app = spec.app
    if not args.spec:
        # The cross-seed trace-identity check needs seed-fixed inputs:
        # the deterministic camera for brake, the library analogue
        # (calm hosts, constant latencies, no input jitter) otherwise.
        try:
            scenario = seed_fixed(spec.scenario)
        except ValueError as exc:
            raise SystemExit(
                f"faults: app {app!r} {exc} for the cross-seed trace check"
            ) from None
        scenario = replace(scenario, late_policy=args.late_policy)
        label = "faults-det" if app == "brake" else f"faults-{app}-det"
        spec = replace(spec, scenario=scenario, label=label)
    plan = _faults_plan(args, app)
    if plan is not None:
        spec = replace(spec, faults=plan)
    # Library apps may carry their fault plan in the scenario itself
    # (e.g. failover's primary outage); report whatever actually runs.
    print((spec.effective_faults() or FaultPlan(label="none")).describe())
    report = sweep_report(spec, ("det", "nondet"), sweep)
    det, stock = report["variants"]["det"], report["variants"]["nondet"]

    rows = []
    for seed in map(str, det["seeds"]):
        summary = det["fault_summaries"][seed] or {}
        counters = summary.get("counters", {})
        rows.append([
            seed,
            str(summary.get("fired", 0)),
            str(counters.get("drop", 0) + counters.get("partition", 0)),
            str(sum(det["errors"][seed].values())),
            *map(str, det["violations"][seed].values()),
        ])
    print(render_table(
        ["seed", "faults fired", "drops", "errors", "STP violations",
         "deadline misses"],
        rows,
        title="FAULTS - DEAR under the fault plan:",
    ))
    print(
        f"DEAR logical traces identical across {len(det['seeds'])} seeds: "
        f"{det['deterministic']} "
        f"(flagged violations: {det['flagged_violations']})"
    )
    print(
        f"stock outcomes across {len(stock['seeds'])} seeds: "
        f"{stock['distinct_outcomes']} distinct"
    )

    report["snapshots"] = (
        _faults_snapshot_triage(spec, report) if args.snapshot else None
    )
    report["silent_divergence"] = (
        not det["deterministic"] and det["flagged_violations"] == 0
    )
    if args.out:
        _write_report(report, args.out)
    _observe(args, _with_frames(spec, min(spec.scenario.n_frames, 500)))
    if report["silent_divergence"]:
        _write_report(report, args.counterexample_out)
        print(
            "FAULTS: silent DEAR divergence under in-bound faults; "
            f"counterexample -> {args.counterexample_out}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_flows(args: argparse.Namespace, sweep) -> int:
    """``repro flows``: causal flow sweep with a stock-vs-DEAR diff.

    A preset over :func:`~repro.harness.report.sweep_report` with flows:
    each variant's drop attribution and critical path, then the diff.
    """
    from dataclasses import replace

    from repro.analysis.report import render_table
    from repro.harness.report import sweep_report

    spec = _cli_spec(args, brake_frames=120)
    app = spec.app
    if args.drop > 0.0 and not args.spec:
        if app != "brake":
            raise SystemExit(
                "flows: --drop targets the brake camera flow; use "
                "--spec with a fault plan for library apps"
            )
        from repro.faults import FaultPlan

        spec = replace(
            spec,
            faults=FaultPlan.camera_faults(
                seed=args.fault_seed, drop=args.drop, label="cli-flows"
            ),
        )
    variants = (
        ("det", "nondet") if args.variant == "both" else (args.variant,)
    )
    report = sweep_report(spec, variants, sweep, flows=True)
    for variant in variants:
        merged = report["variants"][variant]["flows"]
        summary = merged["summary"]
        tag = variant if app == "brake" else f"{app} {variant}"
        drop_rows = [
            [cause, str(count)]
            for cause, count in summary["drops_by_cause"].items()
        ] or [["(none)", "0"]]
        print(render_table(
            ["drop cause", "frames"],
            drop_rows,
            title=(
                f"FLOWS - {tag}: {summary['delivered']}/{summary['total']} "
                f"delivered over {len(spec.seeds)} seed(s), e2e p50 "
                f"{summary['e2e_p50_ns']} ns, p95 {summary['e2e_p95_ns']} ns"
            ),
        ))
        path = merged["critical_path"]
        seg_rows = [
            [name, str(stats["count"]), f"{stats['mean_ns']:.0f}",
             str(stats["max_ns"]), str(path["dominant"].get(name, 0))]
            for name, stats in path["segments"].items()
        ]
        print(render_table(
            ["segment", "hops", "mean ns", "max ns", "dominant for"],
            seg_rows,
            title=f"FLOWS - {tag} critical path:",
        ))

    if "diff" in report:
        det_s = report["variants"]["det"]["flows"]["summary"]
        stock_s = report["variants"]["nondet"]["flows"]["summary"]
        print(
            f"FLOWS diff: DEAR delivered {det_s['delivered']}/{det_s['total']}"
            f" vs stock {stock_s['delivered']}/{stock_s['total']}; "
            f"stock-only drop causes: "
            f"{report['diff']['stock_only_causes'] or 'none'}"
        )

    if args.out:
        _write_report(report, args.out)
    representative = _with_frames(spec, min(spec.scenario.n_frames, 200))
    _observe(args, replace(representative, variant=variants[0]), flows=True)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """``repro serve``: coordinator + HTTP API (+ optional local workers)."""
    import os
    import threading

    from repro.obs import fleet
    from repro.service import (
        Coordinator,
        CoordinatorConfig,
        HttpClient,
        ResultStore,
        Worker,
        serve,
    )

    fleet.enable_from_env()
    store_dir = args.store_dir or os.path.join(
        os.environ.get("REPRO_CACHE_DIR", ".repro_cache"), "service"
    )
    config = CoordinatorConfig(
        chunk_size=args.chunk_size,
        max_attempts=args.max_attempts,
        lease_ttl_s=args.lease_ttl,
        job_timeout_s=args.job_timeout,
        retry_backoff_s=args.retry_backoff,
    )
    coordinator = Coordinator(ResultStore(store_dir), config)
    server = serve(coordinator, args.host, args.port)
    print(
        f"sweep-service/v1 coordinator on {server.url} "
        f"(store: {store_dir}, chunk {config.chunk_size}, "
        f"lease TTL {config.lease_ttl_s:g}s)",
        flush=True,
    )
    stop = threading.Event()
    threads = []
    for index in range(args.local_workers):
        local = Worker(
            HttpClient(server.url), info={"local": True, "index": index}
        )
        thread = threading.Thread(
            target=local.run, kwargs={"stop": stop}, daemon=True
        )
        threads.append(thread)
        thread.start()
    if args.local_workers:
        print(f"spawned {args.local_workers} local worker(s)", flush=True)
    try:
        if args.campaigns > 0:
            import time as _time

            while True:
                campaigns = coordinator.campaigns()
                done = sum(1 for c in campaigns if c["status"] == "done")
                if done >= args.campaigns:
                    # Wind down the local workers (their lease polling
                    # would otherwise never let the API go quiet), then
                    # linger until clients finish draining results: a
                    # `submit --wait` still has result/report reads in
                    # flight when its campaign completes.
                    stop.set()
                    if _time.monotonic() - server.last_request > 1.0:
                        print(
                            f"served {done} campaign(s); shutting down",
                            flush=True,
                        )
                        break
                    _time.sleep(0.1)
                else:
                    stop.wait(0.2)
        else:
            while not stop.wait(3600.0):
                pass
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        server.shutdown()
        server.server_close()
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    """``repro submit``: one campaign in, (optionally) one merged result out."""
    import json

    from repro.harness.config import ScenarioSpec
    from repro.service import HttpClient, seed_outcomes

    spec = ScenarioSpec.load(args.spec)
    client = HttpClient(args.coordinator)
    client.connect(timeout_s=args.connect_timeout)
    status = client.submit(spec)
    campaign = status["campaign"]
    print(
        f"campaign {campaign}: {status['seeds']} seed(s), "
        f"{status['cached']} cached, {status['jobs']} job(s) queued"
    )
    if not args.wait:
        print(f"poll with: repro submit --wait or GET /v1/status/{campaign}")
        return 0
    result = client.wait(campaign, timeout_s=args.timeout)
    outcomes = seed_outcomes(result)
    failures = [outcome for outcome in outcomes if not outcome.ok]
    cached = sum(1 for outcome in outcomes if outcome.cached)
    print(
        f"campaign {campaign} done in {result['elapsed_s']:.3f}s: "
        f"{len(outcomes)} seed(s), {cached} cached, "
        f"{len(failures)} failure(s)"
    )
    for outcome in failures:
        first_line = (outcome.error or "").strip().splitlines()[-1:]
        print(f"  seed {outcome.seed}: {first_line[0] if first_line else '?'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
        print(f"result -> {args.out}")
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(client.report(campaign), handle, indent=2, sort_keys=True)
        print(f"report -> {args.report_out}")
    return 1 if failures else 0


def _run_worker(args: argparse.Namespace) -> int:
    """``repro worker``: join a coordinator's fleet from this host."""
    from repro.obs import fleet
    from repro.service import HttpClient, Worker

    fleet.enable_from_env()
    client = HttpClient(args.coordinator)
    client.connect(timeout_s=args.connect_timeout)
    worker = Worker(client, poll_interval_s=args.poll)
    completed = worker.run(
        max_idle_s=args.idle_exit, max_jobs=args.max_jobs or None
    )
    print(
        f"worker {worker.worker_id}: {completed} job(s) completed, "
        f"{worker.jobs_failed} failed "
        f"({worker.heartbeat_failures} heartbeat failure(s))"
    )
    return 0


def _latest_campaign(client, campaign_id: str | None) -> str:
    """Resolve the campaign argument (default: most recently submitted)."""
    if campaign_id:
        return campaign_id
    campaigns = client.campaigns()
    if not campaigns:
        raise SystemExit("no campaigns submitted to this coordinator yet")
    return campaigns[-1]["campaign"]


def _status_table(status: dict, report: dict) -> str:
    """Render one campaign's live status as a fixed-width table."""
    eta = status.get("eta_s")
    lines = [
        f"campaign {status['campaign']} [{status['status']}]  "
        f"label: {status.get('label', '?')}",
        f"  seeds: {status['seeds']}  pending: {status['pending']}  "
        f"cached: {status['cached']}  failed: {status['failed']}",
        f"  jobs: {status['jobs']}  done: {status['jobs_done']}  "
        f"queue: {status.get('queue_depth', '?')}  "
        f"leased: {status.get('leased', '?')}",
        f"  elapsed: {status.get('elapsed_s', 0):.1f}s  "
        f"rate: {status.get('seeds_per_s', 0):.2f} seeds/s  "
        f"eta: {f'{eta:.1f}s' if isinstance(eta, (int, float)) else '?'}",
        "",
        f"  {'job':<24} {'state':<8} {'attempt':>7} {'requeues':>8} "
        f"{'worker':<8} {'seeds'}",
    ]
    for job in report.get("jobs", []):
        seeds = ",".join(str(seed) for seed in job.get("seeds", []))
        if len(seeds) > 24:
            seeds = seeds[:21] + "..."
        lines.append(
            f"  {job['job']:<24} {job['state']:<8} {job['attempt']:>7} "
            f"{job['requeues']:>8} {str(job.get('worker') or '-'):<8} {seeds}"
        )
    return "\n".join(lines)


def _run_status(args: argparse.Namespace) -> int:
    """``repro status [campaign] [--watch]``: live campaign status."""
    import time as _time

    from repro.service import HttpClient

    client = HttpClient(args.coordinator)
    campaign = _latest_campaign(client, args.campaign)
    while True:
        status = client.status(campaign)
        report = client.report(campaign)
        table = _status_table(status, report)
        if args.watch:
            # Clear + home, like `watch(1)`, so the table refreshes in
            # place on any ANSI terminal.
            print(f"\x1b[2J\x1b[H{table}", flush=True)
        else:
            print(table)
        if not args.watch or status["status"] == "done":
            return 0
        _time.sleep(max(0.05, args.interval))


def _run_report(args: argparse.Namespace) -> int:
    """``repro report [campaign]``: post-mortem + optional fleet trace."""
    import json

    from repro.obs import fleet
    from repro.service import HttpClient

    client = HttpClient(args.coordinator)
    campaign = _latest_campaign(client, args.campaign)
    report = client.report(campaign)
    merged = report.get("fleet", {}).get("merged", {})
    print(
        f"campaign {campaign} [{report['status']}]: "
        f"{report['seeds']} seed(s), {report['cached']} cached, "
        f"{report['failed']} failed, {report['requeues']} requeue(s), "
        f"{report['retries']} retry(ies)"
    )
    print(
        f"  fleet: {report.get('fleet', {}).get('sources', 0)} telemetry "
        f"source(s), {len(merged.get('counters', {}))} counter(s), "
        f"{len(merged.get('histograms', {}))} histogram(s)"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report -> {args.out}")
    if args.trace_out:
        path = fleet.write_fleet_trace(report, args.trace_out)
        events = len(fleet.fleet_trace_events(report))
        print(f"fleet trace: {events} event(s) -> {path}")
    return 0


def _run_bench_diff(args: argparse.Namespace) -> int:
    """``repro bench-diff``: the perf-trajectory gate."""
    import json

    from repro.harness.benchdiff import compare_dirs, render_bench_diff

    report = compare_dirs(
        args.baseline_dir,
        args.current_dir,
        tolerance=args.tolerance,
        gate_fields=args.gate_fields,
        only=args.only,
    )
    print(render_bench_diff(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"bench-diff report -> {args.out}")
    if args.strict and report["summary"]["fail"]:
        print(
            f"bench-diff: {report['summary']['fail']} regression(s) beyond "
            f"tolerance {args.tolerance}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """``repro trace det|nondet``: one observed run -> Perfetto JSON."""
    args.trace_out = args.trace_out or "trace.json"
    spec = _cli_spec(args, args.experiment, brake_frames=200)
    observation, result = _observe(args, spec)
    print(
        f"trace: {len(observation.bus)} events on tracks "
        f"{observation.bus.tracks()}"
    )
    errors = {k: v for k, v in result.errors.as_dict().items() if v}
    print(
        f"run: {spec.app} {spec.variant}, seed {spec.seeds[0]}, "
        f"{spec.scenario.n_frames} frames, errors: {errors or 'none'}"
    )
    return 0


def _run_metrics(args: argparse.Namespace, sweep) -> int:
    """``repro metrics det|nondet``: cross-seed metric aggregates.

    A preset over :func:`~repro.harness.report.sweep_report` with
    metrics, for the one variant; ``--metrics-out`` gets the report.
    """
    from repro.analysis.report import render_table
    from repro.harness.report import sweep_report

    spec = _cli_spec(args, args.experiment, brake_frames=200)
    report = sweep_report(spec, (spec.variant,), sweep, metrics=True)
    aggregate = report["variants"][spec.variant]["metrics"]

    tag = spec.variant if spec.app == "brake" else f"{spec.app} {spec.variant}"
    rows = [
        [name, str(entry["total"]), str(entry["p50"]), str(entry["max"])]
        for name, entry in aggregate["counters"].items()
    ]
    print(render_table(
        ["counter", "total", "p50/seed", "max/seed"], rows,
        title=f"OBS - {tag} counters over {len(spec.seeds)} seeds:",
    ))
    rows = [
        [
            name,
            str(entry["count"]),
            f"{entry['mean']:.0f}",
            str(entry["p50"]),
            str(entry["p95"]),
            str(entry["max"]),
        ]
        for name, entry in aggregate["histograms"].items()
    ]
    print(render_table(
        ["histogram", "samples", "mean", "p50", "p95", "max"], rows,
        title="OBS - merged histograms (ns):",
    ))
    if args.metrics_out:
        _write_report(report, args.metrics_out)
    _observe(args, spec, metrics=False)
    return 0


def _run_library(args: argparse.Namespace) -> int:
    """``repro library``: list the registered applications."""
    import json

    from repro import apps
    from repro.analysis.report import render_table

    entries = []
    for definition in apps.apps():
        scenario = definition.default_scenario()
        topology = definition.topology_for(scenario)
        entries.append({
            "name": definition.name,
            "title": definition.title,
            "library": definition.library,
            "variants": list(definition.variants()),
            "nodes": list(topology.nodes) if topology is not None else [],
            "switches": list(topology.switches) if topology is not None else [],
            "default_faults": definition.default_faults is not None,
            "description": definition.description,
        })
    if args.json:
        print(json.dumps({"format": "app-library/v1", "apps": entries},
                         indent=2, sort_keys=True))
        return 0
    rows = [
        [
            entry["name"],
            ",".join(entry["variants"]),
            (f"{len(entry['nodes'])} nodes / {len(entry['switches'])} "
             "switches") if entry["nodes"] else "(app default)",
            "yes" if entry["default_faults"] else "-",
            entry["title"],
        ]
        for entry in entries
    ]
    print(render_table(
        ["app", "variants", "topology", "faults", "title"],
        rows,
        title="Registered applications (run with --app NAME or a v2 spec):",
    ))
    for entry in entries:
        print(f"  {entry['name']}: {entry['description']}")
    return 0


_ALL = (
    "fig1", "fig3", "fig5", "det", "tradeoff", "ablation",
    "overhead", "let", "skew", "scaling", "native", "distributed",
)

_QUICK_SIZES = {
    "fig1": {"seeds": 40},
    "fig5": {"runs": 6, "frames": 400},
    "det": {"seeds": 2, "frames": 150},
    "tradeoff": {"frames": 100},
    "ablation": {"seeds": 8},
    "overhead": {"frames": 150},
    "let": {"frames": 100},
    "distributed": {"frames": 100},
}


def _run_figures(args: argparse.Namespace, sweep) -> int:
    """One paper figure, or ``repro all`` of them, printed to stdout.

    A single figure's ``--trace-out``/``--metrics-out`` observe the first
    seed of the spec it ran, at most 500 frames when sized by
    ``--frames``; a figure that runs no spec (or ``all``, many) refuses.
    """
    from repro.harness.figures import FigureSpecError

    exports = args.trace_out or args.metrics_out
    if args.command == "all":
        if exports:
            raise SystemExit("repro all: runs many specs; export one figure's run")
        for name in _ALL:
            sub_args = build_parser().parse_args([name])
            if args.quick:
                for key, value in _QUICK_SIZES.get(name, {}).items():
                    setattr(sub_args, key, value)
            started = time.time()
            print(f"==== {name} " + "=" * (60 - len(name)))
            print(_run_one(name, sub_args, sweep)[0])
            print(f"---- {name} done in {time.time() - started:.1f}s\n")
        return 0
    try:
        text, spec = _run_one(args.command, args, sweep)
    except FigureSpecError as error:
        raise SystemExit(f"repro {args.command}: {error}") from None
    print(text)
    if spec is None:
        if exports:
            raise SystemExit(
                f"repro {args.command}: runs no scenario spec, so "
                "--trace-out/--metrics-out have no run to observe"
            )
        return 0
    if getattr(args, "frames", None) is not None:
        spec = _with_frames(spec, min(spec.scenario.n_frames, 500))
    _observe(args, spec)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    standalone = {
        "bench-diff": _run_bench_diff,
        "serve": _run_serve,
        "submit": _run_submit,
        "worker": _run_worker,
        "status": _run_status,
        "report": _run_report,
        "library": _run_library,
        "trace": _run_trace,
    }
    if args.command in standalone:
        # No sweep: dispatched before _make_sweep reads the sweep options.
        return standalone[args.command](args)
    sweep = _make_sweep(args)
    runner = {
        "metrics": _run_metrics,
        "flows": _run_flows,
        "faults": _run_faults,
        "explore": _run_explore,
    }.get(args.command, _run_figures)
    code = runner(args, sweep)
    if sweep.stats.sweeps:
        print(sweep.stats.summary_line(), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
