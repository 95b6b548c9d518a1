"""OVERHEAD — the cost (and benefit) of determinism.

Paper claim: DEAR's benefits "come at the cost of an extra physical time
delay as each SWC needs to account for worst case computation and
communication delays"; in exchange, worst-case end-to-end latency
becomes analyzable.

Expected shape (asserted): the DEAR pipeline's latency is tightly
clustered (max-mean spread small, bounded by the deadline chain) while
the stock pipeline — whose per-hop cost is up to a full polling period —
shows both a *higher mean* latency and lost frames.  The trade the paper
describes is a latency *floor* (the deadline budget), which we verify
the DEAR latency respects from below as well.
"""

import time

from repro import obs
from repro.apps.brake import BrakeScenario
from repro.apps.brake.det import run_det_brake_assistant
from repro.harness import ScenarioSpec, SweepRunner, env_int
from repro.harness.figures import overhead
from repro.obs import context as obs_context


def test_overhead(benchmark, show, bench_json):
    n_frames = env_int("REPRO_OVERHEAD_FRAMES", 400)
    spec = ScenarioSpec(scenario=BrakeScenario(n_frames=n_frames))
    runner = SweepRunner()
    result = benchmark.pedantic(
        overhead, args=(spec, runner),
        rounds=1, iterations=1,
    )
    show(result.render())
    show(runner.stats.summary_line())
    bench_json.sweep(runner).record(
        frames=n_frames,
        dear_latency_mean_ns=result.dear_latency.mean,
        stock_latency_mean_ns=result.stock_latency.mean,
        dear_frames_out=result.dear_frames_out,
        stock_frames_out=result.stock_frames_out,
    )

    scenario = BrakeScenario()
    release = scenario.latency_bound_ns + scenario.clock_error_ns
    # DEAR's latency floor: the full deadline + safe-to-process budget up
    # to the EBA stage (its logical release point).
    floor = (
        scenario.adapter_deadline_ns
        + scenario.preprocessing_deadline_ns
        + scenario.computer_vision_deadline_ns
        + 3 * release
    )
    assert result.dear_latency.minimum >= floor
    # ...and ceiling: floor plus the EBA deadline and slack.
    assert result.dear_latency.maximum <= floor + scenario.eba_deadline_ns + 5_000_000
    # DEAR answers every frame; the stock pipeline does not always.
    assert result.dear_frames_out == result.n_frames
    assert result.stock_frames_out <= result.n_frames
    # Stock polling latency: around half a period per hop on average --
    # far above DEAR's deadline chain in this configuration.
    assert result.stock_latency.mean > result.dear_latency.mean


def test_obs_disabled_overhead(show, bench_json):
    """Observability off must cost ~nothing — and on, must change nothing.

    The disabled path at every instrumented site is one module-global
    load plus one attribute check; measured here directly, and the
    enabled/disabled wall-time ratio of a full run is recorded to
    ``BENCH_obs_disabled_overhead.json`` for trajectory tracking.
    """
    # Micro-cost of the guard idiom itself (generous bound: far below
    # 1 µs per site even on a loaded CI runner).
    iterations = 200_000
    started = time.perf_counter()
    for _ in range(iterations):
        o = obs_context.ACTIVE
        if o.enabled:  # pragma: no cover - disabled in this loop
            raise AssertionError("obs unexpectedly enabled")
    per_guard_ns = (time.perf_counter() - started) / iterations * 1e9

    frames = env_int("REPRO_OBS_FRAMES", 120)
    scenario = BrakeScenario(n_frames=frames)
    started = time.perf_counter()
    baseline = run_det_brake_assistant(0, scenario)
    disabled_s = time.perf_counter() - started
    started = time.perf_counter()
    with obs.capture() as observation:
        observed = run_det_brake_assistant(0, scenario)
    enabled_s = time.perf_counter() - started

    show(
        f"obs overhead: guard {per_guard_ns:.0f} ns/site, "
        f"disabled {disabled_s:.2f}s vs enabled {enabled_s:.2f}s "
        f"({len(observation.bus)} events recorded)"
    )
    bench_json.record(
        frames=frames,
        guard_ns_per_site=round(per_guard_ns, 1),
        disabled_wall_s=round(disabled_s, 3),
        enabled_wall_s=round(enabled_s, 3),
        enabled_over_disabled=round(enabled_s / disabled_s, 3),
        events_recorded=len(observation.bus),
        metrics_recorded=len(observation.metrics),
    )
    assert per_guard_ns < 1_000  # the disabled path costs ~nothing
    # The headline invariant, at benchmark scale: identical fingerprints.
    assert dict(baseline.trace_fingerprints) == dict(observed.trace_fingerprints)
    assert len(observation.bus) > 0
