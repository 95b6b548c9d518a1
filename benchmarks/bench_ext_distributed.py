"""EXT-DIST — the brake assistant distributed across processing ECUs.

Extension of Section IV.B: the paper notes "Since all SWCs of this
application are deployed to the same platform, there is no clock
synchronization error to account for."  This bench deploys Computer
Vision and EBA on a second processing ECU with a skewed clock and
sweeps (skew, assumed E).

Expected shape (asserted): perfect execution whenever E covers the skew
(and even for small skews with E = 0, absorbed by the pipeline's
safe-to-process slack); for large uncovered skews, counted STP
violations, mismatches and lost frames — degradation is observable,
never silent.
"""

from repro.apps.brake import BrakeScenario
from repro.analysis.report import render_table
from repro.harness import ScenarioSpec, SweepRunner, env_int
from repro.harness.figures import distributed
from repro.time import MS

CONFIGURATIONS = [
    (0, 0),
    (5 * MS, 0),
    (15 * MS, 0),
    (20 * MS, 0),
    (20 * MS, 25 * MS),
]


def test_distributed_brake_assistant(benchmark, show, bench_json):
    n_frames = env_int("REPRO_DIST_FRAMES", 200)
    spec = ScenarioSpec(scenario=BrakeScenario(n_frames=n_frames))
    runner = SweepRunner()
    result = benchmark.pedantic(
        distributed, args=(spec, CONFIGURATIONS, runner),
        rounds=1, iterations=1,
    )
    rows = result.runs
    bench_json.sweep(runner).record(
        frames=n_frames,
        configurations=[
            {
                "skew_ns": skew,
                "assumed_error_ns": error,
                "stp_violations": run.stp_violations,
                "errors_total": run.errors.total(),
                "frames_answered": len(run.commands),
            }
            for skew, error, run in rows
        ],
    )
    table = render_table(
        ["clock skew", "assumed E", "STP violations", "CV mismatches",
         "frames answered"],
        [
            [
                f"{skew / 1e6:.0f} ms",
                f"{error / 1e6:.0f} ms",
                str(run.stp_violations),
                str(run.errors.mismatch_computer_vision),
                f"{len(run.commands)}/{n_frames}",
            ]
            for skew, error, run in rows
        ],
        title="EXT-DIST - distributed brake assistant vs. clock skew:",
    )
    show(table)
    show(runner.stats.summary_line())

    by_config = {(skew, error): run for skew, error, run in rows}
    # Covered (or slack-absorbed) configurations: perfect.
    for key in ((0, 0), (5 * MS, 0), (20 * MS, 25 * MS)):
        run = by_config[key]
        assert run.stp_violations == 0
        assert run.errors.total() == 0
        assert len(run.commands) == n_frames
    # Large uncovered skews: observable degradation, worse with skew.
    mid, big = by_config[(15 * MS, 0)], by_config[(20 * MS, 0)]
    assert mid.stp_violations > 0
    assert big.stp_violations >= mid.stp_violations
    assert len(big.commands) < len(mid.commands) < n_frames
