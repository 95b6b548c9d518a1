"""SNAPSHOT — copy-on-write forks must beat from-scratch replay ≥ 3×.

The campaign measures the engine's raw fork-versus-replay cost on a
synthetic workload: N PCT-style schedules sharing an identical 80%
preemption prefix and diverging only in one tail point (the exploration
search itself runs on the process pool, not the engine; the ddmin
shrink pass below is the live consumer).  From scratch every run costs O(T);
through the snapshot engine run 0 captures holders along the prefix and
every later run forks the deepest shared-prefix holder, paying only its
own suffix — O(ΔT).  Recorded to ``BENCH_snapshot.json``:

* ``capture_mean_ns`` / ``fork_mean_ns`` — raw engine latencies;
* ``scratch_wall_s`` vs ``forked_wall_s`` over the *same* N-1 warm
  schedules, and their ``forked_runtime_over_scratch`` ratio (the
  gated trajectory: if forks stop paying off, this grows);
* ``speedup_ge_3x`` — the ISSUE's hard acceptance claim, asserted;
* a ddmin shrink pass routed through the engine: probe count, fork
  hits and the fraction of decision-span actually re-executed
  (``shrink_replay_ratio`` — the satellite fix: probes no longer
  re-run the full prefix).

Fork equivalence itself is asserted per run (forked summaries must
equal scratch summaries bit-for-bit) — a fast wrong answer is not a
benchmark result.
"""

import time
from functools import partial

import pytest

from repro.explore import (
    Explorer,
    calibration_scenario,
    run_schedule,
    shrink_schedule,
)
from repro.explore.decisions import InterventionSchedule, PreemptionPoint
from repro.harness import ScenarioSpec, env_int
from repro.snapshot import SNAPSHOTS_SUPPORTED, ScheduleDecisions, SnapshotEngine
from repro.time import MS


def _run_scratch(spec, schedule, checkpointer=None):
    result, _controller = run_schedule(spec, schedule, checkpointer=checkpointer)
    return result.outcome_digest()


def test_snapshot(show, bench_json):
    if not SNAPSHOTS_SUPPORTED:
        pytest.skip("snapshot engine needs os.fork + SEQPACKET")

    frames = env_int("REPRO_SNAP_FRAMES", 150)
    runs = env_int("REPRO_SNAP_RUNS", 12)
    spec = ScenarioSpec(variant="nondet", scenario=calibration_scenario(frames))
    horizon = Explorer(spec).horizon  # one plain baseline run

    # The campaign: an identical 3-point prefix ending at 0.8·horizon,
    # plus one distinct tail point per run in (0.8, 0.95)·horizon.
    shared = tuple(
        PreemptionPoint(site=int(horizon * frac), delay_ns=2 * MS)
        for frac in (0.2, 0.5, 0.8)
    )
    step = max(1, int(horizon * 0.01))
    schedules = [
        InterventionSchedule(
            base_seed=0,
            preemptions=shared
            + (
                PreemptionPoint(
                    site=int(horizon * 0.82) + index * step, delay_ns=3 * MS
                ),
            ),
        )
        for index in range(runs)
    ]

    engine = SnapshotEngine(write_ledger=False)

    def forked(schedule):
        run = partial(_run_scratch, spec, schedule)
        return engine.execute("bench", ScheduleDecisions(schedule), run)

    try:
        # Run 0 is the cold capture pass; warm runs 1..N-1 are timed.
        digest0 = forked(schedules[0])
        assert digest0 == _run_scratch(spec, schedules[0])
        capture_ns_mean = engine.stats.capture_ns_mean

        started = time.perf_counter()
        forked_digests = [forked(s) for s in schedules[1:]]
        forked_s = time.perf_counter() - started
        fork_hits = engine.stats.fork_hits
        fork_ns_mean = engine.stats.fork_ns_mean

        started = time.perf_counter()
        scratch_digests = [_run_scratch(spec, s) for s in schedules[1:]]
        scratch_s = time.perf_counter() - started

        assert forked_digests == scratch_digests  # equivalence before speed
        assert fork_hits == runs - 1  # every warm run found a holder

        # The satellite-6 fix, measured: ddmin probes fork instead of
        # re-running the prefix.  Synthetic, deterministic predicate —
        # the failure "needs" the 2nd and 4th points.
        needed = {shared[1].site, schedules[0].preemptions[-1].site}
        explorer = Explorer(spec, snapshots=engine)
        before_total = engine.stats.total_decisions
        before_reused = engine.stats.reused_decisions
        before_hits = engine.stats.fork_hits
        shrunk = shrink_schedule(
            explorer,
            schedules[0],
            predicate=lambda o: needed
            <= {p.site for p in o.schedule.preemptions},
        )
        shrink_fork_hits = engine.stats.fork_hits - before_hits
        shrink_span = engine.stats.total_decisions - before_total
        shrink_reused = engine.stats.reused_decisions - before_reused
        shrink_replay_ratio = (
            (shrink_span - shrink_reused) / shrink_span if shrink_span else 1.0
        )
    finally:
        engine.close()

    speedup = scratch_s / forked_s if forked_s else float("inf")
    show(
        f"snapshot: {runs} runs x {frames} frames, horizon {horizon}; "
        f"capture {capture_ns_mean / 1e6:.1f} ms, fork {fork_ns_mean / 1e6:.1f} ms; "
        f"warm scratch {scratch_s:.2f}s vs forked {forked_s:.2f}s "
        f"({speedup:.1f}x); shrink {shrunk.trials} probes, "
        f"{shrink_fork_hits} forked, replay ratio {shrink_replay_ratio:.2f}"
    )
    bench_json.record(
        frames=frames,
        runs=runs,
        horizon=horizon,
        capture_mean_ns=round(capture_ns_mean),
        fork_mean_ns=round(fork_ns_mean),
        scratch_wall_s=round(scratch_s, 3),
        forked_wall_s=round(forked_s, 3),
        forked_runtime_over_scratch=round(forked_s / scratch_s, 4),
        forked_runs_per_s=round((runs - 1) / forked_s, 2),
        scratch_runs_per_s=round((runs - 1) / scratch_s, 2),
        fork_hits=fork_hits,
        speedup_ge_3x=bool(speedup >= 3.0),
        shrink_trials=shrunk.trials,
        shrink_fork_hits=shrink_fork_hits,
        shrink_replay_ratio=round(shrink_replay_ratio, 4),
        shrink_reuse_ok=bool(shrink_reused > 0),
    )
    # The ISSUE's acceptance claims, asserted as stable facts.
    assert speedup >= 3.0
    assert {p.site for p in shrunk.minimal.preemptions} == needed
    assert shrink_fork_hits > 0
    assert shrink_replay_ratio < 1.0
