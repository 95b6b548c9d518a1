"""One benchmark workload in one process: set up, measure, check, report.

Run through ``run.py`` (which starts this file as a child process, so
every workload gets a fresh interpreter and its own peak RSS)::

    python3 perfbench/workload.py --workload brake_dear --seed 0 \
        --seconds 10 --trace 0

The last line of standard output is the result object
(``correct``/``attempted``/``failed``/``metrics``); the full result —
extra statistics, check messages and the provenance block — is written
to ``perfbench/results/``.  See ``perfbench/README.md`` for what each
workload and metric means.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # before any import of the program under test

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.apps.brake import det as brake_det  # noqa: E402
from repro.apps.brake import nondet as brake_nondet  # noqa: E402
from repro.apps.brake.logic import oracle_commands  # noqa: E402
from repro.apps.brake.scenario import BrakeScenario  # noqa: E402
from repro.apps.brake.vision import SceneGenerator  # noqa: E402
from repro.harness.config import ScenarioSpec, run_scenario_spec  # noqa: E402
from repro.harness.sweep import code_fingerprint, default_workers  # noqa: E402
from repro.obs import fleet  # noqa: E402
from repro.obs.export import validate_trace_data  # noqa: E402
from repro.obs.metrics import aggregate_snapshots, percentile  # noqa: E402
from repro.service.http import LocalService, seed_outcomes  # noqa: E402
from repro.service.store import spec_record_key  # noqa: E402

from calibrate import Calibrator  # noqa: E402
from layers import LAYERS, LayerMap, ThreadProfiler  # noqa: E402

IMPORT_S = time.perf_counter() - T0

WORKLOADS = ("brake_dear", "brake_stock", "campaign_fresh", "campaign_cached")

#: Frames per seed of the brake workloads (long seeds amortize set-up).
BRAKE_FRAMES = 300
#: Brake seeds are drawn from this pool, so every one has a reference.
BRAKE_POOL = 48
#: campaign_fresh seeds with a committed reference at the default
#: workload seed (make_references.py).  A 10 s run draws about 250, so
#: this leaves room for a program eight times faster; a run that draws
#: more fails its check rather than go unchecked.
FRESH_REFERENCE_SEEDS = 2000
#: Frames per seed and seeds per campaign of the campaign workloads.
CAMPAIGN_FRAMES = 30
CAMPAIGN_SEEDS = 8
#: Worker threads of the LocalService (the reference box's nproc).
SERVICE_WORKERS = 2
#: Client poll interval while waiting for a campaign (resolution of
#: the campaign latency).
WAIT_POLL_S = 0.02
#: campaign_cached: real results computed in set-up, and total records
#: the store holds once filler keyed by other specs is added.
CACHED_POOL = 16
CACHED_RECORDS = 20_000
#: Time metrics are host time scaled to a box whose calibration loop
#: runs at this rate (the reference box's median), measured right
#: before and after every timed operation while this process is stopped
#: (calibrate.py says why): the shared host's speed drifts by tens of
#: percent within minutes, and the scaling cancels most of that drift.
#: Host-time values are in the result file too.
REFERENCE_LOOPS_PER_S = 12.0e6
#: Set-up is repeated this often per run; setup_s reports the median.
SETUP_REPS = 3
#: Share of --seconds the traced run spends on its untraced pass; the
#: traced pass repeats the same work (about 5x slower under cProfile).
TRACE_BASE_SHARE = 0.12

RESULTS_DIR = HERE / "results"
WORK_DIR = HERE / ".work"
REFERENCES = HERE / "references.json"

E2E_METRICS = {
    "setup_s": "s",
    "frame_us_p50": "us",
    "campaign_ms_p50": "ms",
    "seeds_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Layers reported per frame and per seed in the traced run.
REPORTED_LAYERS = (
    "sim", "reactors", "someip", "network", "ara", "dear", "apps", "time",
    "harness", "service", "obs", "stdlib", "other",
)


# ---------------------------------------------------------------------------
# Seeds: everything a run does follows from the workload seed.
# ---------------------------------------------------------------------------


def brake_seed_order(workload_seed: int) -> list[int]:
    """The brake pool in the order this workload seed visits it."""
    rng = random.Random(f"brake:{workload_seed}")
    return rng.sample(range(BRAKE_POOL), BRAKE_POOL)


def distinct_seeds(workload_seed: int, tag: str):
    """An endless stream of distinct simulation seeds."""
    rng = random.Random(f"{tag}:{workload_seed}")
    seen: set[int] = set()
    while True:
        seed = rng.randrange(10**9)
        if seed not in seen:
            seen.add(seed)
            yield seed


def brake_spec(variant: str, observe: bool = False) -> ScenarioSpec:
    return ScenarioSpec(
        app="brake",
        variant=variant,
        scenario=BrakeScenario(n_frames=BRAKE_FRAMES),
        observe=observe,
    )


def campaign_spec(seeds=(0,), observe: bool = False) -> ScenarioSpec:
    return ScenarioSpec(
        app="brake",
        variant="det",
        seeds=tuple(seeds),
        scenario=BrakeScenario(n_frames=CAMPAIGN_FRAMES),
        observe=observe,
    )


# ---------------------------------------------------------------------------
# Correctness checks.
# ---------------------------------------------------------------------------


class Checker:
    """Per-seed output checks against the committed references.

    At the default workload seed every seed must have a reference; at
    other workload seeds, seeds outside the brake pool have none and get
    the oracle and distributed == local checks only.
    """

    def __init__(self, references: dict, workload_seed: int):
        self.references = references["results"]
        self.require_reference = workload_seed == references["default_seed"]
        self._oracles: dict = {}
        self.problems: list[str] = []
        self.checked_digests = 0
        self.prevalence: list[float] = []

    def oracle(self, scenario: BrakeScenario) -> dict:
        key = (scenario.period_ns, scenario.variant, scenario.n_frames)
        if key not in self._oracles:
            generator = SceneGenerator(scenario.period_ns, scenario.variant)
            self._oracles[key] = oracle_commands(generator, scenario.n_frames)
        return self._oracles[key]

    def _reference(self, spec: ScenarioSpec, seed: int) -> dict | None:
        table = self.references.get(
            f"{spec.variant}/{spec.scenario.n_frames}", {}
        )
        return table.get(str(seed))

    def check(self, spec: ScenarioSpec, seed: int, value) -> bool:
        """True when *value* is a correct result of *seed* under *spec*."""
        problems = []
        ref = self._reference(spec, seed)
        if ref is None and self.require_reference:
            problems.append(
                "no committed reference at the default workload seed "
                "(raise FRESH_REFERENCE_SEEDS and rerun make_references.py)"
            )
        elif ref is not None:
            self.checked_digests += 1
            if value.outcome_digest() != ref["digest"]:
                problems.append("outcome digest differs from reference")
            if value.prevalence != ref["prevalence"]:
                problems.append(
                    f"error prevalence {value.prevalence} drifted from "
                    f"{ref['prevalence']}"
                )
        if spec.variant == "det":
            if value.errors.total() or value.deadline_misses or value.stp_violations:
                problems.append(
                    f"DEAR run has errors {value.errors.as_dict()}, "
                    f"{value.deadline_misses} deadline misses, "
                    f"{value.stp_violations} STP violations"
                )
            if not value.compare_with_oracle(self.oracle(spec.scenario)).is_perfect:
                problems.append("DEAR commands differ from the oracle")
        else:
            self.prevalence.append(value.prevalence)
        for problem in problems:
            self.note(f"seed {seed}: {problem}")
        return not problems

    def note(self, problem: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(problem)


# ---------------------------------------------------------------------------
# Spans (Perfetto trace_event) around the benchmark's own calls.
# ---------------------------------------------------------------------------


class Spans:
    """In-memory complete-event spans, written out at the end."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.events: list[dict] = []
        self._tids: dict[int, int] = {}
        self._lock = threading.Lock()

    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            if ident not in self._tids:
                self._tids[ident] = len(self._tids) + 1
                self.events.append({
                    "name": "thread_name", "ph": "M", "pid": 1,
                    "tid": self._tids[ident],
                    "args": {"name": threading.current_thread().name},
                })
            return self._tids[ident]

    def add(self, name: str, start: float, end: float, **args) -> None:
        event = {
            "name": name,
            "ph": "X",
            "pid": 1,
            "tid": self._tid(),
            "ts": (start - self.origin) * 1e6,
            "dur": (end - start) * 1e6,
            "args": args,
        }
        with self._lock:
            self.events.append(event)

    def wrap(self, name: str, function, durations: list | None = None):
        """*function*, recording a span (and its duration) per call."""

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.add(name, start, end)
                if durations is not None:
                    durations.append(end - start)

        return timed

    def document(self) -> dict:
        meta = [e for e in self.events if e["ph"] == "M"]
        spans = sorted(
            (e for e in self.events if e["ph"] != "M"), key=lambda e: e["ts"]
        )
        return {"traceEvents": meta + spans, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class BrakeWorkload:
    """One seed after another through ``run_scenario_spec``."""

    frames_per_seed = BRAKE_FRAMES
    seeds_per_op = 1
    spans: Spans | None = None

    def __init__(self, variant: str, workload_seed: int, checker: Checker):
        self.variant = variant
        self.checker = checker
        self.spec = brake_spec(variant)
        self.order = brake_seed_order(workload_seed)
        self._seeds = itertools.cycle(self.order)

    def setup(self, rep: int, workdir: Path) -> None:
        code_fingerprint.cache_clear()
        code_fingerprint()
        self.checker.oracle(self.spec.scenario)
        run_scenario_spec(self.order[0], self.spec)  # untimed warm-up seed

    def close(self) -> None:
        pass

    def next_op(self) -> tuple:
        return (next(self._seeds),)

    def observed_spec(self) -> ScenarioSpec:
        return brake_spec(self.variant, observe=True)

    def run(self, op: tuple) -> list:
        return [run_scenario_spec(seed, self.spec) for seed in op]

    def check(self, op: tuple, values: list) -> int:
        return sum(
            not self.checker.check(self.spec, seed, value)
            for seed, value in zip(op, values)
        )


class CampaignWorkload:
    """Closed-loop campaigns against a ``LocalService`` on loopback."""

    frames_per_seed = CAMPAIGN_FRAMES
    seeds_per_op = CAMPAIGN_SEEDS

    def __init__(self, cached: bool, workload_seed: int, checker: Checker):
        self.cached = cached
        self.checker = checker
        self.rng = random.Random(f"campaign-ops:{workload_seed}")
        tag = "campaign_cached" if cached else "campaign_fresh"
        self._seeds = distinct_seeds(workload_seed, tag)
        self.warmup_seed = next(self._seeds)
        self.pool = [next(self._seeds) for _ in range(CACHED_POOL)] if cached else []
        self.service: LocalService | None = None
        self.spans: Spans | None = None
        self.store_dir: Path | None = None
        #: local reference pickle per seed (campaign_cached re-checks
        #: the same pool seeds over and over).
        self._local: dict[int, bytes] = {}

    def setup(self, rep: int, workdir: Path) -> None:
        self.close()
        code_fingerprint.cache_clear()
        code_fingerprint()
        self.checker.oracle(campaign_spec().scenario)
        self.store_dir = workdir / f"store-{rep}"
        self.start_service()
        # Untimed warm-up: one seed (campaign_fresh) or the whole pool of
        # real results (campaign_cached) computed through the service.
        seeds = self.pool if self.cached else [self.warmup_seed]
        self.service.run_spec(campaign_spec(seeds), timeout_s=120)
        if self.cached:
            self._prefill()

    def start_service(self) -> None:
        # campaign_cached creates no jobs, but keeps its workers: a
        # deployed service always has them, and their lease polls are
        # part of what a store hit costs.
        self.service = LocalService(self.store_dir, workers=SERVICE_WORKERS)

    def stop_service(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def close(self) -> None:
        self.stop_service()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)

    def _prefill(self) -> None:
        """Fill the store with records keyed by other specs.

        The filler reuses the pool's real payloads, so records have the
        size of real results; their keys come from specs that differ
        only in frame count, as a long-lived store accumulates them.
        """
        store = self.service.store
        spec = campaign_spec()
        real = store.get_many(spec_record_key(spec, seed) for seed in self.pool)
        payloads = list(real.values())
        others = [
            replace(spec, scenario=replace(spec.scenario, n_frames=frames)).to_dict()
            for frames in range(CAMPAIGN_FRAMES + 1, CAMPAIGN_FRAMES + 65)
        ]
        batch = []
        for index in range(CACHED_RECORDS - len(payloads)):
            seed, other = divmod(index, len(others))
            template = payloads[index % len(payloads)]
            batch.append({
                **template,
                "key": spec_record_key(others[other], seed),
                "seed": seed,
            })
        store.put_records(batch)

    def observed_spec(self) -> ScenarioSpec:
        return campaign_spec(observe=True)

    def next_op(self) -> tuple:
        if self.cached:
            return tuple(self.rng.sample(self.pool, CAMPAIGN_SEEDS))
        return tuple(next(self._seeds) for _ in range(CAMPAIGN_SEEDS))

    def run(self, op: tuple) -> list:
        client = self.service.client
        spec = campaign_spec(op)
        start = time.perf_counter()
        status = client.submit(spec)
        mid = time.perf_counter()
        result = client.wait(status["campaign"], timeout_s=120, poll_s=WAIT_POLL_S)
        outcomes = seed_outcomes(result)
        if self.spans is not None:
            end = time.perf_counter()
            self.spans.add("submit", start, mid, campaign=status["campaign"])
            self.spans.add("wait", mid, end, campaign=status["campaign"])
        return outcomes

    def check(self, op: tuple, outcomes: list) -> int:
        """Per-seed checks plus pickle identity with a local run."""
        spec = campaign_spec(op)
        failed = len(op) - len(outcomes)
        for seed, outcome in zip(op, outcomes):
            if not outcome.ok or outcome.seed != seed:
                self.checker.note(f"seed {seed}: service error {outcome.error}")
                failed += 1
                continue
            if seed not in self._local:
                self._local[seed] = pickle.dumps(run_scenario_spec(seed, spec))
            same = pickle.dumps(outcome.value) == self._local[seed]
            if not self.cached:
                del self._local[seed]  # fresh seeds never come back
            if not same:
                self.checker.note(f"seed {seed}: service value != local run")
            if not (self.checker.check(spec, seed, outcome.value) and same):
                failed += 1
        return failed


def make_workload(name: str, workload_seed: int, checker: Checker):
    if name == "brake_dear":
        return BrakeWorkload("det", workload_seed, checker)
    if name == "brake_stock":
        return BrakeWorkload("nondet", workload_seed, checker)
    if name == "campaign_fresh":
        return CampaignWorkload(False, workload_seed, checker)
    if name == "campaign_cached":
        return CampaignWorkload(True, workload_seed, checker)
    raise SystemExit(f"unknown workload {name!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# Measurement loops.
# ---------------------------------------------------------------------------


class Tally:
    """Attempted/failed seeds and per-operation host latency."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        #: box speed around each operation, as a share of the reference.
        self.speeds: list[float] = []
        self.ops: list[tuple] = []

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def seeds(self) -> int:
        return sum(len(op) for op in self.ops)


def run_ops(workload, tally: Tally, ops=None, seconds: float = 0.0,
            unchecked: list | None = None,
            calibrator: Calibrator | None = None) -> Tally:
    """Run *ops* (or new ops until *seconds* of busy time), timing each.

    Every operation's outputs are checked right after it, outside its
    timing — or, given an *unchecked* list, collected there for
    :func:`check_later`.  An operation that raises counts all its seeds
    as failed.  With a *calibrator*, the box's speed is sampled between
    operations into ``tally.speeds``.  While ``workload.spans`` is set,
    every operation is recorded as a span.
    """
    source = iter(ops) if ops is not None else None
    rate = calibrator.loops_per_s() if calibrator else 0.0
    while True:
        if source is not None:
            op = next(source, None)
            if op is None:
                break
        elif tally.busy_s >= seconds:
            break
        else:
            op = workload.next_op()
        start = time.perf_counter()
        try:
            values = workload.run(op)
        except Exception as error:  # a failed operation counts, never hides
            values = None
            workload.checker.note(f"op {op}: {type(error).__name__}: {error}")
        end = time.perf_counter()
        tally.latencies.append(end - start)
        if calibrator:
            after = calibrator.loops_per_s()
            tally.speeds.append((rate + after) / 2 / REFERENCE_LOOPS_PER_S)
            rate = after
        tally.ops.append(op)
        tally.attempted += len(op)
        if values is None:
            tally.failed += len(op)
            continue
        if workload.spans is not None:
            workload.spans.add("campaign" if len(op) > 1 else "seed run",
                               start, end, seeds=list(op))
        if unchecked is None:
            tally.failed += workload.check(op, values)
        else:
            unchecked.append((op, values))
    return tally


def check_later(workload, tally: Tally, unchecked: list) -> None:
    for op, values in unchecked:
        tally.failed += workload.check(op, values)


def observe_seeds(workload, seeds: list, tally: Tally) -> list[dict]:
    """Obs metrics snapshots of *seeds* run locally with ``observe=True``.

    The obs layer installs one process-global observation, so observed
    seeds run here one at a time, never in the service's concurrent
    worker threads.  Each result is checked like any other.
    """
    spec = workload.observed_spec()
    snapshots = []
    for seed in seeds:
        value = run_scenario_spec(seed, spec)
        tally.attempted += 1
        tally.failed += not workload.checker.check(spec, seed, value)
        snapshots.append(value.fault_summary["metrics"])
    return snapshots


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_phase(workload, workdir: Path, reps: int,
                calibrator: Calibrator) -> tuple[float, float]:
    """Set up *reps* times; returns imports + the median set-up time,
    in host seconds and in reference seconds."""
    times, scaled = [], []
    speed = calibrator.loops_per_s() / REFERENCE_LOOPS_PER_S
    import_scaled = IMPORT_S * speed
    for rep in range(reps):
        start = time.perf_counter()
        workload.setup(rep, workdir)
        times.append(time.perf_counter() - start)
        after = calibrator.loops_per_s() / REFERENCE_LOOPS_PER_S
        scaled.append(times[-1] * (speed + after) / 2)
        speed = after
    return (IMPORT_S + statistics.median(times),
            import_scaled + statistics.median(scaled))


def measure(workload, seconds: float, workdir: Path,
            calibrator: Calibrator) -> tuple[dict, dict, Tally]:
    """The untraced run: end-to-end metrics plus extra statistics."""
    setup_host_s, setup_s = setup_phase(workload, workdir, SETUP_REPS, calibrator)
    tally = run_ops(workload, Tally(), seconds=seconds, calibrator=calibrator)
    frames_per_op = workload.seeds_per_op * workload.frames_per_seed

    def e2e(latencies: list, setup: float) -> dict:
        op_s = statistics.median(latencies)
        return {
            "setup_s": setup,
            "frame_us_p50": op_s * 1e6 / frames_per_op,
            "campaign_ms_p50": op_s * 1e3,
            "seeds_per_s": tally.seeds / sum(latencies),
        }

    scaled = [lat * speed for lat, speed in zip(tally.latencies, tally.speeds)]
    metrics = {**e2e(scaled, setup_s), "peak_rss_mb": peak_rss_mb()}
    extra = {
        "operations": len(tally.ops),
        "seeds": tally.seeds,
        "busy_s": tally.busy_s,
        "import_s": IMPORT_S,
        "failed_frac": tally.failed / max(1, tally.attempted),
        "speed_p50": statistics.median(tally.speeds),
        "host_time": e2e(tally.latencies, setup_host_s),
        "op_ms": [round(latency * 1e3, 3) for latency in tally.latencies],
    }
    # A p90 needs at least ten samples beyond it: report it only then.
    if len(scaled) >= 100:
        extra["campaign_ms_p90"] = percentile(scaled, 0.9) * 1e3
    return metrics, extra, tally


def trace(workload, seconds: float, workdir: Path, spans: Spans) -> tuple:
    """The traced run: per-layer self time and work counts.

    Pass A runs operations without a profiler for a share of *seconds*;
    pass B repeats the same work under :class:`ThreadProfiler` (B's
    wall over A's is the tracing overhead); pass C (:func:`count_pass`)
    repeats it once more for counts, timings and spans, so neither the
    counting nor the obs code paths inflate B's self times.
    """
    campaign = isinstance(workload, CampaignWorkload)
    workload.setup(0, workdir)
    base = run_ops(workload, Tally(), seconds=seconds * TRACE_BASE_SHARE)

    def same_work() -> list:
        # campaign_fresh must not hit the store: new seeds, same shape.
        if campaign and not workload.cached:
            return [workload.next_op() for _ in base.ops]
        return list(base.ops)

    ops = same_work()
    if campaign:
        workload.stop_service()  # its threads must start under the profiler
    unchecked: list = []  # checks run local seeds: keep them unprofiled
    window_start = time.perf_counter()
    with ThreadProfiler() as profiler:
        if campaign:
            workload.start_service()
        traced = run_ops(workload, Tally(), ops=ops, unchecked=unchecked)
        if campaign:
            workload.stop_service()
    window_s = time.perf_counter() - window_start
    check_later(workload, traced, unchecked)
    summary = profiler.summary(LayerMap(ROOT / "src" / "repro"))
    counted, count_metrics = count_pass(workload, same_work(), spans)

    frames = 0
    if not (campaign and workload.cached):
        frames = traced.seeds * workload.frames_per_seed
    per_frame = 1.0 / frames if frames else 0.0
    metrics: dict[str, float] = {}
    for layer in REPORTED_LAYERS:
        self_s = summary.self_s.get(layer, 0.0)
        metrics[f"{layer}.self_us_per_frame"] = self_s * 1e6 * per_frame
        metrics[f"{layer}.self_ms_per_seed"] = self_s * 1e3 / traced.seeds
    total_self = summary.total_self_s()
    metrics["idle.self_ms_per_seed"] = (
        max(0.0, window_s - total_self) * 1e3 / traced.seeds
    )
    metrics["trace.self_sum_over_wall"] = total_self / window_s
    metrics["trace.overhead_x"] = traced.busy_s / base.busy_s
    metrics["reactors.trace_records_per_frame"] = (
        summary.count("reactors", "telemetry.py:record") * per_frame
    )
    metrics["stdlib.repr_calls_per_frame"] = (
        summary.count("stdlib", "<built-in method builtins.repr>") * per_frame
    )
    metrics["someip.codec_calls_per_frame"] = (
        summary.count("someip", "serialization.py:") * per_frame
    )
    metrics.update(count_metrics)
    extra = {
        "operations_per_pass": len(base.ops),
        "seeds_traced": traced.seeds,
        "traced_window_s": window_s,
        "profiled_threads": summary.threads,
        "self_s_by_layer": {layer: summary.self_s.get(layer, 0.0) for layer in LAYERS},
        "top_functions": summary.top(25),
    }
    attempted = base.attempted + traced.attempted + counted.attempted
    failed = base.failed + traced.failed + counted.failed
    return metrics, extra, attempted, failed


def count_pass(workload, ops: list, spans: Spans) -> tuple[Tally, dict]:
    """Pass C: obs and fleet counts, store/queue timings, and spans.

    The operations run as in the timed loop, with counting and timing
    wrappers on the service's store and clients; the obs counts come
    from the same seeds run locally with ``observe=True`` afterwards
    (campaign_cached simulates nothing, so it has none).
    """
    campaign = isinstance(workload, CampaignWorkload)
    world_builds: list[float] = []
    originals = {}
    for module in (brake_det, brake_nondet):
        originals[module] = module.build_brake_world
        module.build_brake_world = spans.wrap(
            "world build", module.build_brake_world, world_builds
        )
    gets: list[float] = []
    puts: list[float] = []
    requests = [0]
    leases = [0, 0]  # [lease requests, requests that returned no job]
    reports: list[dict] = []
    fleet_metrics: dict = {}
    records = 0
    workload.spans = spans
    try:
        if campaign:
            fleet.enable(fresh=True)
            workload.start_service()
            service = workload.service
            store = service.store
            store.get_many = spans.wrap("store get", store.get_many, gets)
            store.put_records = spans.wrap("store put", store.put_records, puts)
            for client in [service.client] + [w.client for w in service.workers]:
                client._request = _counting(client._request, requests)
            for worker in service.workers:
                worker.client.lease = _counting_leases(worker.client.lease, leases)
        tally = run_ops(workload, Tally(), ops=ops)
        if campaign:
            workload.stop_service()  # joins the workers: counts are final
            reports = [
                service.coordinator.report(c["campaign"])
                for c in service.coordinator.campaigns()
                if not workload.cached  # store hits create no jobs
            ]
            fleet_metrics = fleet.ACTIVE.snapshot()
            records = store.stats()["records"]
        seeds = [] if campaign and workload.cached else [s for op in ops for s in op]
        snapshots = observe_seeds(workload, seeds, tally)
    finally:
        workload.spans = None
        for module, original in originals.items():
            module.build_brake_world = original

    sim = aggregate_snapshots(snapshots)
    counters = {name: c["total"] for name, c in sim["counters"].items()}
    frames = len(snapshots) * workload.frames_per_seed
    per_frame = 1.0 / frames if frames else 0.0
    stp_wait = sim["histograms"].get("dear.stp_wait_ns")
    obs_counters = {
        "sim.dispatches_per_frame": "sched.dispatches",
        "reactors.reactions_per_frame": "reactor.reactions",
        "someip.messages_per_frame": "someip.tx_messages",
        "network.frames_per_frame": "net.frames_sent",
        "dear.delivered_per_frame": "dear.messages_delivered",
    }
    metrics = {
        name: counters.get(counter, 0) * per_frame
        for name, counter in obs_counters.items()
    }
    metrics.update({
        "dear.stp_wait_ms_p50": stp_wait["p50"] / 1e6 if stp_wait else 0.0,
        "apps.world_build_ms": median_or_zero(world_builds) * 1e3,
    })
    metrics.update(_service_metrics(
        reports, fleet_metrics, gets, puts, records, requests[0], leases,
        sum(len(op) for op in ops),
    ))
    return tally, metrics


def _service_metrics(reports, fleet_metrics, gets, puts, records, requests,
                     leases, seeds) -> dict:
    queue_waits, job_times = [], []
    for report in reports:
        for job in report["jobs"]:
            times = {}
            for event in job["timeline"]:
                times.setdefault(event["event"], event["t"])
            if "leased" in times:
                queue_waits.append(times["leased"] - times["queued"])
            if "done" in times:
                job_times.append(times["done"] - times["leased"])
    histograms = fleet_metrics.get("histograms", {})
    counters = fleet_metrics.get("counters", {})
    lease = histograms.get("fleet.coordinator.lease_latency_ns")
    cpu = histograms.get("fleet.worker.job_cpu_ns", {}).get("sum", 0.0)
    wall = histograms.get("fleet.worker.job_wall_ns", {}).get("sum", 0.0)
    cached = (
        counters.get("fleet.coordinator.seeds_cached", 0)
        + counters.get("fleet.sweep.cache_hits", 0)
    )
    return {
        "service.store.get_ms_p50": median_or_zero(gets) * 1e3,
        "service.store.put_ms_p50": median_or_zero(puts) * 1e3,
        "service.store.records": records,
        "service.queue_wait_ms_p50": median_or_zero(queue_waits) * 1e3,
        "service.lease_ms_p50": lease["p50"] / 1e6 if lease else 0.0,
        "service.job_ms_p50": median_or_zero(job_times) * 1e3,
        "service.http_requests_per_seed": requests / seeds if seeds else 0.0,
        "service.idle_lease_frac": leases[1] / leases[0] if leases[0] else 0.0,
        "worker.cpu_over_wall": cpu / wall if wall else 0.0,
        "harness.cache_hit_frac": cached / seeds if seeds and fleet_metrics else 0.0,
    }


def _counting(function, counter: list):
    def counted(*args, **kwargs):
        counter[0] += 1
        return function(*args, **kwargs)
    return counted


def _counting_leases(function, counter: list):
    def counted(*args, **kwargs):
        job = function(*args, **kwargs)
        counter[0] += 1
        counter[1] += job is None
        return job
    return counted


def unit_of(name: str) -> str:
    """A metric's unit, read off its name."""
    for suffix, unit in (
        ("_us_per_frame", "us"), ("_ms_per_seed", "ms"), ("_ms_p50", "ms"),
        ("_ms", "ms"), ("_frac", "ratio"), ("_over_wall", "ratio"),
        ("overhead_x", "x"), ("_per_frame", "count"), ("_per_seed", "count"),
        ("records", "count"),
    ):
        if name.endswith(suffix):
            return unit
    return E2E_METRICS[name]


# ---------------------------------------------------------------------------
# Provenance.
# ---------------------------------------------------------------------------


def calibration_loops_per_s(calibrator: Calibrator) -> float:
    """The calibration rate of this box: median of five samples."""
    return statistics.median(calibrator.loops_per_s(200_000) for _ in range(5))


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    # Only this tree's own repository counts, never an enclosing one.
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        return out[1]
    return None


def provenance(workload_seed: int, calibrator: Calibrator) -> dict:
    return {
        "code_fingerprint": code_fingerprint(),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "default_workers": default_workers(),
        "calibration_loops_per_s": calibration_loops_per_s(calibrator),
        "workload_seed": workload_seed,
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checker = Checker(json.loads(REFERENCES.read_text()), args.seed)
    workload = make_workload(args.workload, args.seed, checker)
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = Spans()
    with Calibrator() as calibrator:
        try:
            if args.trace:
                metrics, extra, attempted, failed = trace(
                    workload, args.seconds, workdir, spans
                )
            else:
                metrics, extra, tally = measure(
                    workload, args.seconds, workdir, calibrator
                )
                attempted, failed = tally.attempted, tally.failed
        finally:
            workload.close()
            shutil.rmtree(workdir, ignore_errors=True)
        machine = provenance(args.seed, calibrator)

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_problems = []
    if args.trace:
        document = spans.document()
        trace_problems = validate_trace_data(document)
        (RESULTS_DIR / f"{stem}.perfetto.json").write_text(json.dumps(document))
    problems = checker.problems + [f"span trace: {p}" for p in trace_problems[:10]]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }
    full = {
        "format": "perfbench-result/v1",
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        **result,
        "extra": extra,
        "checks": {
            "digests_checked": checker.checked_digests,
            "stock_prevalence_mean": (
                statistics.fmean(checker.prevalence) if checker.prevalence else None
            ),
            "problems": problems,
        },
        "provenance": machine,
    }
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(full, indent=2) + "\n")
    # What the result object cannot carry, for the reader of the run.
    notes = {k: v for k, v in extra.items() if isinstance(v, (int, float))}
    print(f"{args.workload}: " + ", ".join(f"{k}={v:.6g}" for k, v in notes.items())
          + "".join(f"\n  problem: {p}" for p in problems), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
