"""One driver per experiment of the reproduction index.

Each function runs its experiment and returns a result object whose
``render()`` produces the text form of the paper artifact.  Benchmarks
under ``benchmarks/`` call these and assert the expected *shapes*.

The brake figures (``figure5``, ``det_case_study``, ``tradeoff``,
``overhead``, ``let_baseline``, ``distributed``) run every seed of one
:class:`~repro.harness.config.ScenarioSpec` through ``run_scenario_spec``;
``spec=None`` is the figure's paper default, another app's spec raises
:class:`FigureSpecError`.  Only sweep axes that are not spec fields stay
parameters: ``tradeoff``'s deadlines, ``distributed``'s (skew, E) pairs.
The counter figures (``figure1``, ``ablation_sources``) do the same with
the ``counter`` app; ``ablation_sources``' four rows are overrides of
its spec.

Every sweep-shaped driver accepts an optional ``sweep``
(:class:`repro.harness.sweep.SweepRunner`): pass one to control worker
count and caching and to collect a throughput summary; omit it and the
driver builds a default runner (``REPRO_WORKERS`` / all cores, cache
on).  Per-seed work is dispatched through module-level functions so it
pickles across the process-pool boundary; results merge in seed order,
so output is bit-identical to a sequential run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import partial

from repro.analysis.report import ascii_bar_chart, histogram_table, render_table
from repro.analysis.stats import Summary, summarize
from repro.apps import counter
from repro.apps.brake import BrakeScenario
from repro.apps.brake.instrumentation import ERROR_TYPES, BrakeRunResult
from repro.apps.brake.logic import (
    decide_brake,
    detect_vehicles,
    oracle_commands,
    preprocess,
)
from repro.apps.brake.vision import SceneGenerator
from repro.apps.world import build_world
from repro.ara import MethodCallProcessingMode
from repro.harness.config import ScenarioSpec, run_scenario_spec
from repro.harness.sweep import SweepRunner
from repro.let import LetChannel, LetExecutor, LetTask
from repro.sim import World
from repro.sim.platform import MINNOWBOARD
from repro.time.duration import MS


# ---------------------------------------------------------------------------
# FIG1 — the client/server histogram.
# ---------------------------------------------------------------------------


#: Seeds of Figure 1's DEAR contrast: the first ones of the spec.
FIG1_DEAR_SEEDS = 8


def _printed_counts(runs) -> Counter:
    """Histogram of every round's printed value over counter *runs*."""
    return Counter(value for run in runs for value in counter.printed_values(run))


@dataclass
class Figure1Result:
    """Outcome histograms of the stock and DEAR counter apps."""

    nondet_counts: Counter
    det_counts: Counter

    def probabilities(self) -> dict[int, float]:
        """Outcome probabilities of the stock app."""
        total = sum(self.nondet_counts.values())
        return {k: v / total for k, v in sorted(self.nondet_counts.items())}

    def render(self) -> str:
        """Figure 1's histogram, plus the DEAR contrast."""
        parts = [
            histogram_table(
                self.nondet_counts,
                "Figure 1 - printed value, stock AP (probability):",
            ),
            histogram_table(
                self.det_counts,
                "Same client under DEAR (probability):",
            ),
        ]
        return "\n\n".join(parts)


def figure1(
    spec: ScenarioSpec | None = None, sweep: SweepRunner | None = None
) -> Figure1Result:
    """Reproduce Figure 1: the counter app's printed values across seeds.

    The stock histogram sweeps the stock variant of *spec* over its
    seeds (default 300); the DEAR contrast runs the first
    :data:`FIG1_DEAR_SEEDS` of them.
    """
    sweep = sweep or SweepRunner()
    spec = _app_spec(spec, "counter", "nondet", seeds=300)
    det = replace(spec, variant="det").with_seeds(spec.seeds[:FIG1_DEAR_SEEDS])
    return Figure1Result(
        _printed_counts(sweep.run_spec(spec).values()),
        _printed_counts(sweep.run_spec(det).values()),
    )


# ---------------------------------------------------------------------------
# FIG3 — the tagged message sequence through the transactors.
# ---------------------------------------------------------------------------


@dataclass
class Figure3Result:
    """Observed tags along one DEAR method call (Figure 3's sequence)."""

    tc_ns: int
    deadline_c_ns: int
    deadline_s_ns: int
    release_ns: int  # L + E
    server_tag_ns: int
    reply_tag_ns: int

    def expected_server_tag_ns(self) -> int:
        """``tc + Dc + L + E`` (steps 1-11)."""
        return self.tc_ns + self.deadline_c_ns + self.release_ns

    def expected_reply_tag_ns(self) -> int:
        """``ts + Ds + L + E`` with ``ts`` = server tag (steps 12-22)."""
        return self.server_tag_ns + self.deadline_s_ns + self.release_ns

    def matches_paper_chain(self) -> bool:
        """Whether both hops obey the safe-to-process arithmetic."""
        return (
            self.server_tag_ns == self.expected_server_tag_ns()
            and self.reply_tag_ns == self.expected_reply_tag_ns()
        )

    def render(self) -> str:
        rows = [
            ["(1)  client request event", "tc", f"{self.tc_ns / 1e6:.3f} ms"],
            ["(2-6)  message tag", "tc + Dc",
             f"{(self.tc_ns + self.deadline_c_ns) / 1e6:.3f} ms"],
            ["(7-11) server logic tag", "tc + Dc + L + E",
             f"{self.server_tag_ns / 1e6:.3f} ms"],
            ["(12-17) response tag", "ts + Ds",
             f"{(self.server_tag_ns + self.deadline_s_ns) / 1e6:.3f} ms"],
            ["(18-22) client result tag", "ts + Ds + L + E",
             f"{self.reply_tag_ns / 1e6:.3f} ms"],
        ]
        return render_table(
            ["Figure 3 step", "formula", "observed tag"],
            rows,
            title="Figure 3 - tagged method call through DEAR transactors:",
        )


def figure3_sequence(seed: int = 0) -> Figure3Result:
    """Run one DEAR method call and extract the tag chain of Figure 3."""
    from repro.ara import AraProcess, Method, ServiceInterface
    from repro.dear import (
        ClientMethodTransactor,
        MethodCall,
        MethodReturn,
        ServerMethodTransactor,
        StpConfig,
        TransactorConfig,
    )
    from repro.reactors import Environment, Reactor
    from repro.someip.serialization import INT32
    from repro.time.duration import SEC

    interface = ServiceInterface(
        "Seq", 0x3000,
        methods=[Method("step", 1, arguments=[("x", INT32)],
                        returns=[("x", INT32)])],
    )
    deadline_c, deadline_s, latency_bound = 4 * MS, 6 * MS, 10 * MS
    stp = StpConfig(latency_bound_ns=latency_bound, clock_error_ns=0)
    client_config = TransactorConfig(deadline_ns=deadline_c, stp=stp)
    server_config = TransactorConfig(deadline_ns=deadline_s, stp=stp)
    world = build_world(
        seed, [("server-ecu", MINNOWBOARD), ("client-ecu", MINNOWBOARD)]
    )

    observed: dict[str, int] = {}

    server_process = AraProcess(world.platform("server-ecu"), "srv", tag_aware=True)
    server_env = Environment(name="srv", timeout=5 * SEC)
    skeleton = server_process.create_skeleton(interface, 1)
    smt = ServerMethodTransactor(
        "smt", server_env, server_process, skeleton, "step", server_config
    )

    class ServerLogic(Reactor):
        def __init__(self, name, owner):
            super().__init__(name, owner)
            self.inp = self.input("inp")
            self.out = self.output("out")

            def serve(ctx):
                call: MethodCall = ctx.get(self.inp)
                observed["server_tag"] = (
                    ctx.tag.time - self.environment.scheduler.start_time
                )
                ctx.set(self.out, MethodReturn(call.call_id, call.arguments))

            self.reaction("serve", triggers=[self.inp], effects=[self.out],
                          body=serve)

    logic = ServerLogic("logic", server_env)
    server_env.connect(smt.request_out, logic.inp)
    server_env.connect(logic.out, smt.response_in)
    skeleton.offer()
    server_env.start(world.platform("server-ecu"))

    client_process = AraProcess(world.platform("client-ecu"), "cli", tag_aware=True)
    client_env = Environment(name="cli", timeout=5 * SEC)

    class ClientLogic(Reactor):
        def __init__(self, name, owner):
            super().__init__(name, owner)
            self.req = self.output("req")
            self.res = self.input("res")
            kick = self.timer("kick", offset=10 * MS)

            def send(ctx):
                observed["tc"] = (
                    ctx.tag.time - self.environment.scheduler.start_time
                )
                observed["client_start"] = self.environment.scheduler.start_time
                ctx.set(self.req, 7)

            def receive(ctx):
                observed["reply_tag"] = (
                    ctx.tag.time - self.environment.scheduler.start_time
                )
                ctx.request_stop()

            self.reaction("send", triggers=[kick], effects=[self.req], body=send)
            self.reaction("recv", triggers=[self.res], body=receive)

    client_logic = ClientLogic("logic", client_env)

    def setup():
        proxy = yield from client_process.find_service(interface, 1)
        cmt = ClientMethodTransactor(
            "cmt", client_env, client_process, proxy, "step", client_config
        )
        client_env.connect(client_logic.req, cmt.request)
        client_env.connect(cmt.response, client_logic.res)
        client_env.start(world.platform("client-ecu"))

    client_process.spawn("setup", setup())
    world.run_for(10 * SEC)

    # Tags are absolute local times; both platforms have perfect clocks,
    # so expressing everything relative to the *client's* start keeps the
    # arithmetic in one frame of reference.
    client_start = observed["client_start"]
    tc_abs = observed["tc"] + client_start
    server_env_start = server_env.scheduler.start_time
    server_tag_abs = observed["server_tag"] + server_env_start
    reply_tag_abs = observed["reply_tag"] + client_start
    return Figure3Result(
        tc_ns=tc_abs,
        deadline_c_ns=deadline_c,
        deadline_s_ns=deadline_s,
        release_ns=stp.release_delay_ns,
        server_tag_ns=server_tag_abs,
        reply_tag_ns=reply_tag_abs,
    )


# ---------------------------------------------------------------------------
# The brake figures' one way to run a seed.
# ---------------------------------------------------------------------------


class FigureSpecError(ValueError):
    """A figure was handed a spec of another app."""


def _app_spec(
    spec: ScenarioSpec | None, app: str, variant: str, seeds: int, scenario=None
) -> ScenarioSpec:
    """*spec* as an *app* figure's *variant*; ``None`` is the paper default.

    The default sweeps seeds ``0..seeds-1`` of *scenario* (the app's
    default scenario when ``None``).  The one place that rejects other
    apps' specs.
    """
    if spec is None:
        return ScenarioSpec(
            app=app, variant=variant, seeds=range(seeds), scenario=scenario
        )
    if spec.app != app:
        raise FigureSpecError(f"a {app} figure cannot run app {spec.app!r}")
    return replace(spec, variant=variant)


def _spec_point(overrides: dict, spec: ScenarioSpec):
    """The spec's first seed with *overrides* on its (STP-applied) scenario."""
    scenario = replace(spec.effective_scenario(), **overrides)
    return run_scenario_spec(spec.seeds[0], replace(spec, stp=None, scenario=scenario))


def _spec_points(
    spec: ScenarioSpec, overrides: list[dict], name: str, sweep: SweepRunner | None
) -> list:
    """One :func:`_spec_point` per entry of *overrides*, swept."""
    return (sweep or SweepRunner()).map(
        partial(_spec_point, spec=spec),
        overrides,
        name=name,
        params={"spec": spec.to_dict()},
    )


# ---------------------------------------------------------------------------
# FIG5 — error prevalence of the stock brake assistant.
# ---------------------------------------------------------------------------


@dataclass
class Figure5Result:
    """Per-run error breakdowns, sorted by total prevalence."""

    runs: list[BrakeRunResult]
    n_frames: int

    def sorted_runs(self) -> list[BrakeRunResult]:
        """Runs ordered by error rate (the paper sorts for visibility)."""
        return sorted(self.runs, key=lambda run: run.prevalence)

    def rates(self) -> list[float]:
        """Sorted total error rates."""
        return [run.prevalence for run in self.sorted_runs()]

    def mean_rate(self) -> float:
        """Mean error prevalence across runs."""
        return sum(run.prevalence for run in self.runs) / len(self.runs)

    def dominant_types(self) -> Counter:
        """How often each error type dominates an error-bearing run."""
        dominant = Counter()
        for run in self.runs:
            if run.errors.total() == 0:
                continue
            by_type = run.errors.as_dict()
            dominant[max(by_type, key=by_type.get)] += 1
        return dominant

    def render(self) -> str:
        """Figure 5 as a sorted stacked bar chart."""
        rows = []
        for index, run in enumerate(self.sorted_runs()):
            values = {
                name: 100.0 * count / self.n_frames
                for name, count in run.errors.as_dict().items()
            }
            rows.append((f"run {index:02d}", values))
        chart = ascii_bar_chart(
            rows,
            categories=list(ERROR_TYPES),
            title=(
                "Figure 5 - error prevalence, stock brake assistant "
                f"({len(self.runs)} runs x {self.n_frames} frames):"
            ),
        )
        footer = (
            f"\n  min {min(self.rates()) * 100:.3f}%   "
            f"mean {self.mean_rate() * 100:.2f}%   "
            f"max {max(self.rates()) * 100:.2f}%"
            "\n  (paper: min 0.018%, mean 5.60%, max 22.25%)"
        )
        return chart + footer


def figure5(
    spec: ScenarioSpec | None = None, sweep: SweepRunner | None = None
) -> Figure5Result:
    """Reproduce Figure 5: stock runs, counting the four error types.

    Sweeps the stock variant of *spec* over its seeds; the default is
    20 seeds x 2000 frames.
    """
    spec = _app_spec(spec, "brake", "nondet", 20, BrakeScenario(n_frames=2_000))
    runs = (sweep or SweepRunner()).run_spec(spec).values()
    return Figure5Result(runs, spec.effective_scenario().n_frames)


# ---------------------------------------------------------------------------
# DET — the deterministic brake assistant case study.
# ---------------------------------------------------------------------------


@dataclass
class DetCaseStudyResult:
    """Measurements backing Section IV.B's claims."""

    runs: list[BrakeRunResult]
    commands_identical: bool
    traces_identical: bool
    oracle_perfect: bool
    latency: Summary

    def total_errors(self) -> int:
        """Errors across every run (must be 0)."""
        return sum(run.errors.total() for run in self.runs)

    def total_violations(self) -> int:
        """Deadline misses + STP violations across runs (must be 0)."""
        return sum(run.deadline_misses + run.stp_violations for run in self.runs)

    def render(self) -> str:
        rows = [
            ["total errors (all seeds)", str(self.total_errors())],
            ["deadline misses + STP violations", str(self.total_violations())],
            ["brake commands identical across seeds", str(self.commands_identical)],
            ["logical traces identical (det. camera)", str(self.traces_identical)],
            ["output matches ideal-pipeline oracle", str(self.oracle_perfect)],
            ["end-to-end latency mean", f"{self.latency.mean / 1e6:.2f} ms"],
            ["end-to-end latency max", f"{self.latency.maximum / 1e6:.2f} ms"],
        ]
        return render_table(
            ["property", "value"], rows,
            title="Section IV.B - deterministic brake assistant (DEAR):",
        )


def det_case_study(
    spec: ScenarioSpec | None = None, sweep: SweepRunner | None = None
) -> DetCaseStudyResult:
    """Reproduce Section IV.B: zero errors, determinism, bounded latency.

    Sweeps the DEAR variant of *spec* over its seeds (default 5 seeds x
    500 frames), then checks logical trace identity on seeds 0..2 of
    the same spec with a deterministic camera and at most 200 frames.
    """
    sweep = sweep or SweepRunner()
    spec = _app_spec(spec, "brake", "det", 5, BrakeScenario(n_frames=500))
    scenario = spec.effective_scenario()
    n_frames = scenario.n_frames
    runs = sweep.run_spec(spec).values()
    command_sets = {tuple(sorted(run.commands.items())) for run in runs}
    trace_spec = replace(
        spec,
        seeds=(0, 1, 2),
        scenario=replace(
            spec.scenario, n_frames=min(n_frames, 200), deterministic_camera=True
        ),
        label="det-trace",
    )
    trace_runs = sweep.run_spec(trace_spec).values()
    fingerprints = {
        tuple(sorted(run.trace_fingerprints.items())) for run in trace_runs
    }
    generator = SceneGenerator(scenario.period_ns, scenario.variant)
    oracle = oracle_commands(generator, n_frames)
    latencies = [
        latency for run in runs for latency in run.latencies_ns.values()
    ]
    return DetCaseStudyResult(
        runs=runs,
        commands_identical=len(command_sets) == 1,
        traces_identical=len(fingerprints) == 1,
        oracle_perfect=all(
            run.compare_with_oracle(oracle).is_perfect for run in runs
        ),
        latency=summarize(latencies),
    )


# ---------------------------------------------------------------------------
# TRADEOFF — deadlines vs. observable errors vs. latency.
# ---------------------------------------------------------------------------


@dataclass
class TradeoffPoint:
    """One deadline setting of the sweep."""

    deadline_ns: int
    deadline_misses: int
    frames_lost: int
    latency_mean_ns: float
    latency_max_ns: float


@dataclass
class TradeoffResult:
    """The deadline sweep of Section IV.B's discussion."""

    points: list[TradeoffPoint]
    n_frames: int

    def render(self) -> str:
        rows = [
            [
                f"{point.deadline_ns / 1e6:.0f} ms",
                str(point.deadline_misses),
                str(point.frames_lost),
                f"{point.latency_mean_ns / 1e6:.1f} ms",
                f"{point.latency_max_ns / 1e6:.1f} ms",
            ]
            for point in self.points
        ]
        return render_table(
            ["stage deadline", "deadline misses", "frames lost",
             "e2e latency mean", "e2e latency max"],
            rows,
            title=(
                "Deadline vs. error-rate/latency trade-off "
                "(Preprocessing & Computer Vision deadline swept):"
            ),
        )


def tradeoff(
    spec: ScenarioSpec | None = None,
    deadlines_ns: list[int] | None = None,
    sweep: SweepRunner | None = None,
) -> TradeoffResult:
    """Sweep the heavy stages' deadlines below and above their WCET.

    Every deadline point runs the first seed of *spec*'s DEAR variant
    (default seed 0 x 300 frames) with Preprocessing's and Computer
    Vision's deadlines set to that point.
    """
    if deadlines_ns is None:
        deadlines_ns = [10 * MS, 15 * MS, 18 * MS, 22 * MS, 25 * MS, 35 * MS]
    spec = _app_spec(spec, "brake", "det", 1, BrakeScenario(n_frames=300))
    n_frames = spec.effective_scenario().n_frames
    overrides = [
        dict(preprocessing_deadline_ns=d, computer_vision_deadline_ns=d)
        for d in deadlines_ns
    ]
    runs = _spec_points(spec, overrides, "tradeoff", sweep)
    points = []
    for deadline_ns, run in zip(deadlines_ns, runs):
        latencies = list(run.latencies_ns.values())
        points.append(TradeoffPoint(
            deadline_ns=deadline_ns,
            deadline_misses=run.deadline_misses,
            frames_lost=n_frames - len(run.commands),
            latency_mean_ns=(sum(latencies) / len(latencies)) if latencies else 0,
            latency_max_ns=max(latencies) if latencies else 0,
        ))
    return TradeoffResult(points, n_frames)


# ---------------------------------------------------------------------------
# ABLATE-SRC — the three sources of nondeterminism.
# ---------------------------------------------------------------------------


@dataclass
class AblationResult:
    """Outcome histograms of the counter app per source configuration."""

    rows: list[tuple[str, Counter]]

    def render(self) -> str:
        table_rows = []
        for label, counts in self.rows:
            outcomes = ", ".join(
                f"{value}:{count}" for value, count in sorted(counts.items())
            )
            deterministic = "yes" if len(counts) == 1 else "NO"
            table_rows.append([label, outcomes, deterministic])
        return render_table(
            ["configuration", "printed values (value:count)", "deterministic"],
            table_rows,
            title="Section II.B - sources of nondeterminism (counter app):",
        )


def ablation_sources(
    spec: ScenarioSpec | None = None, sweep: SweepRunner | None = None
) -> AblationResult:
    """Toggle each source of nondeterminism individually.

    Every row sweeps the stock variant of *spec* (default 25 seeds) with
    the row's sources set on its scenario and network: source 1 is the
    server's thread-per-invocation processing mode, source 2 a second
    client, source 3 unordered transport over the counter's LAN.
    """
    sweep = sweep or SweepRunner()
    spec = _app_spec(spec, "counter", "nondet", seeds=25)
    event = MethodCallProcessingMode.EVENT.value
    single = MethodCallProcessingMode.EVENT_SINGLE_THREAD.value
    fifo = replace(spec.network, in_order=True)
    unordered = replace(
        spec.network,
        latency=spec.network.latency or counter.COUNTER_LATENCY,
        in_order=False,
    )
    configurations = [
        ("source 1 on: thread-per-invocation", event, False, fifo),
        ("sources off: serialized + FIFO", single, False, fifo),
        ("source 3 on: unordered transport", single, False, unordered),
        ("source 2 on: second client", single, True, fifo),
    ]
    rows = []
    for label, mode, two_clients, network in configurations:
        scenario = replace(
            spec.scenario, processing_mode=mode, two_clients=two_clients
        )
        runs = sweep.run_spec(replace(spec, scenario=scenario, network=network))
        rows.append((label, _printed_counts(runs.values())))
    return AblationResult(rows)


# ---------------------------------------------------------------------------
# OVERHEAD — the price of determinism.
# ---------------------------------------------------------------------------


@dataclass
class OverheadResult:
    """Latency and processing comparison between the variants."""

    stock_latency: Summary
    dear_latency: Summary
    stock_frames_out: int
    dear_frames_out: int
    n_frames: int

    def render(self) -> str:
        rows = [
            [
                "stock AP",
                f"{self.stock_latency.mean / 1e6:.1f}",
                f"{self.stock_latency.maximum / 1e6:.1f}",
                f"{self.stock_frames_out}/{self.n_frames}",
            ],
            [
                "DEAR",
                f"{self.dear_latency.mean / 1e6:.1f}",
                f"{self.dear_latency.maximum / 1e6:.1f}",
                f"{self.dear_frames_out}/{self.n_frames}",
            ],
        ]
        return render_table(
            ["variant", "e2e latency mean [ms]", "e2e latency max [ms]",
             "frames answered"],
            rows,
            title="Cost of determinism - latency vs. completeness:",
        )


def overhead(
    spec: ScenarioSpec | None = None, sweep: SweepRunner | None = None
) -> OverheadResult:
    """Compare end-to-end latency and completeness of the two variants.

    Both variants run the first seed of *spec* (default seed 0 x 400
    frames).
    """
    sweep = sweep or SweepRunner()
    spec = _app_spec(spec, "brake", "det", 1, BrakeScenario(n_frames=400))
    spec = spec.with_seeds(spec.seeds[:1])
    n_frames = spec.effective_scenario().n_frames
    (stock,) = sweep.run_spec(replace(spec, variant="nondet")).values()
    (dear,) = sweep.run_spec(spec).values()
    return OverheadResult(
        stock_latency=summarize(list(stock.latencies_ns.values())),
        dear_latency=summarize(list(dear.latencies_ns.values())),
        stock_frames_out=len(stock.commands),
        dear_frames_out=len(dear.commands),
        n_frames=n_frames,
    )


# ---------------------------------------------------------------------------
# LET — the logical-execution-time baseline.
# ---------------------------------------------------------------------------


@dataclass
class LetBaselineResult:
    """LET pipeline measurements vs. the DEAR chain."""

    deterministic: bool
    let_latency: Summary
    dear_latency: Summary
    frames_out: int
    n_frames: int

    def render(self) -> str:
        rows = [
            [
                "LET (4 x 50 ms tasks)",
                "yes" if self.deterministic else "NO",
                f"{self.let_latency.mean / 1e6:.1f}",
            ],
            [
                "DEAR (reactors)",
                "yes",
                f"{self.dear_latency.mean / 1e6:.1f}",
            ],
        ]
        return render_table(
            ["baseline", "deterministic", "e2e latency mean [ms]"],
            rows,
            title="Related work - LET vs. reactors on the brake pipeline:",
        )


def _let_run(seed: int, n_frames: int):
    """One LET-pipeline run (runs in a worker); returns (commands, latencies)."""
    period = 50 * MS
    generator = SceneGenerator(period)
    world = World(seed)
    platform = world.add_platform("ecu", MINNOWBOARD)
    executor = LetExecutor(platform)
    camera_ch = LetChannel("camera")
    frame_ch = LetChannel("frame")
    fwd_frame_ch = LetChannel("fwd_frame")
    lane_ch = LetChannel("lane")
    vehicles_ch = LetChannel("vehicles")
    brake_ch = LetChannel("brake", keep_history=True)
    # Deterministic camera: publish frame k exactly at its capture time.
    for seq in range(n_frames):
        world.sim.at(
            (seq + 1) * period,
            lambda seq=seq: camera_ch.publish(world.sim.now, generator.frame(seq)),
        )
    executor.add_task(LetTask(
        "adapter", period,
        body=lambda inputs: {"out": inputs["cam"]},
        reads={"cam": camera_ch}, writes={"out": frame_ch}, wcet_ns=3 * MS,
    ))

    def pre_body(inputs):
        frame = inputs["frame"]
        if frame is None:
            return {}
        return {"frame": frame, "lane": preprocess(frame)}

    executor.add_task(LetTask(
        "preprocessing", period, pre_body,
        reads={"frame": frame_ch},
        writes={"frame": fwd_frame_ch, "lane": lane_ch}, wcet_ns=21 * MS,
    ))

    def cv_body(inputs):
        frame, lane = inputs["frame"], inputs["lane"]
        if frame is None or lane is None:
            return {}
        return {"out": detect_vehicles(frame, lane)}

    executor.add_task(LetTask(
        "cv", period, cv_body,
        reads={"frame": fwd_frame_ch, "lane": lane_ch},
        writes={"out": vehicles_ch}, wcet_ns=21 * MS,
    ))

    def eba_body(inputs):
        vehicles = inputs["vehicles"]
        if vehicles is None:
            return {}
        return {"out": decide_brake(vehicles)}

    executor.add_task(LetTask(
        "eba", period, eba_body,
        reads={"vehicles": vehicles_ch}, writes={"out": brake_ch},
        wcet_ns=3 * MS,
    ))
    executor.start((n_frames + 8) * period)
    world.run_to_completion(check_deadlock=False)
    commands = {}
    latencies = []
    for publish_time, command in brake_ch.history:
        if command.frame_seq not in commands:
            commands[command.frame_seq] = command
            capture = (command.frame_seq + 1) * period
            latencies.append(publish_time - capture)
    return commands, latencies


def let_baseline(
    spec: ScenarioSpec | None = None, sweep: SweepRunner | None = None
) -> LetBaselineResult:
    """The brake pipeline as LET tasks, compared against DEAR.

    The LET pipeline runs *spec*'s seeds and frame count (default 3
    seeds x 300 frames); the DEAR reference is the spec's first seed
    at most 300 frames long.
    """
    sweep = sweep or SweepRunner()
    spec = _app_spec(spec, "brake", "det", 3, BrakeScenario(n_frames=300))
    n_frames = spec.effective_scenario().n_frames
    outcomes = sweep.map(
        partial(_let_run, n_frames=n_frames),
        spec.seeds,
        name="let",
        params={"n_frames": n_frames},
    )
    command_sets = {tuple(sorted(commands.items())) for commands, _ in outcomes}
    latencies = outcomes[0][1]
    dear = _spec_point({"n_frames": min(n_frames, 300)}, spec)
    return LetBaselineResult(
        deterministic=len(command_sets) == 1,
        let_latency=summarize(latencies),
        dear_latency=summarize(list(dear.latencies_ns.values())),
        frames_out=len(outcomes[0][0]),
        n_frames=n_frames,
    )


# ---------------------------------------------------------------------------
# EXT-DIST — the brake assistant across two processing ECUs.
# ---------------------------------------------------------------------------


@dataclass
class DistributedResult:
    """One distributed DEAR run per (clock skew, assumed E) configuration."""

    runs: list[tuple[int, int, BrakeRunResult]]
    n_frames: int

    def render(self) -> str:
        rows = [
            [
                f"{skew / 1e6:.0f} ms", f"{error / 1e6:.0f} ms",
                str(run.stp_violations), f"{len(run.commands)}/{self.n_frames}",
            ]
            for skew, error, run in self.runs
        ]
        return render_table(
            ["clock skew", "assumed E", "STP violations", "frames answered"],
            rows,
            title="EXT-DIST - distributed brake assistant:",
        )


def distributed(
    spec: ScenarioSpec | None = None,
    configurations: list[tuple[int, int]] | None = None,
    sweep: SweepRunner | None = None,
) -> DistributedResult:
    """Deploy Computer Vision and EBA on a second, clock-skewed ECU.

    Every ``(skew, E)`` configuration runs the first seed of *spec*'s
    DEAR variant (default seed 0 x 200 frames) distributed, with the
    processing ECU's clock skewed by ``skew`` and ``E`` as the assumed
    clock error.
    """
    if configurations is None:
        configurations = [(0, 0), (15 * MS, 0), (20 * MS, 25 * MS)]
    spec = _app_spec(spec, "brake", "det", 1, BrakeScenario(n_frames=200))
    overrides = [
        dict(distributed=True, processing_clock_skew_ns=skew, clock_error_ns=error)
        for skew, error in configurations
    ]
    runs = _spec_points(spec, overrides, "ext-dist", sweep)
    return DistributedResult(
        [(*configuration, run) for configuration, run in zip(configurations, runs)],
        spec.effective_scenario().n_frames,
    )
