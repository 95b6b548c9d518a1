"""LET — Section V: the logical-execution-time baseline.

Paper claim: LET achieves determinism in AUTOSAR CP but quantizes
logical time to task periods — "LET tasks always take a non-zero amount
of logical time, [while] reactions are logically instantaneous".  On a
pipeline this shows up as one full period of latency per hop.

Expected shape (asserted): the LET brake pipeline is deterministic
across seeds, its end-to-end latency is (pipeline depth) x (period) =
200 ms, and the DEAR chain beats it by roughly the ratio of the deadline
budget to the period chain (~2.5x here).
"""

from repro.apps.brake import BrakeScenario
from repro.harness import ScenarioSpec, SweepRunner, env_int
from repro.harness.figures import let_baseline
from repro.time import MS


def test_let_baseline(benchmark, show, bench_json):
    n_frames = env_int("REPRO_LET_FRAMES", 300)
    spec = ScenarioSpec(seeds=(0, 1, 2), scenario=BrakeScenario(n_frames=n_frames))
    runner = SweepRunner()
    result = benchmark.pedantic(
        let_baseline, args=(spec, runner),
        rounds=1, iterations=1,
    )
    show(result.render())
    show(runner.stats.summary_line())
    bench_json.sweep(runner).record(
        frames=n_frames,
        let_latency_mean_ns=result.let_latency.mean,
        dear_latency_mean_ns=result.dear_latency.mean,
    )

    assert result.deterministic
    # Four 50 ms hops: exactly 200 ms for every frame.
    assert result.let_latency.minimum == result.let_latency.maximum == 200 * MS
    # Reactors' deadline chain is well below the period chain.
    assert result.dear_latency.mean < result.let_latency.mean * 0.5
