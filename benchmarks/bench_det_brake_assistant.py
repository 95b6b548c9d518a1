"""DET — reproduce Section IV.B: the deterministic brake assistant.

Paper claims: with deadlines 5/25/25/5 ms and an assumed communication
latency of 5 ms (no clock error on a single platform), the DEAR
implementation achieves "correct and deterministic execution" — zero
dropped frames, zero mismatches — and its timed semantics bounds the
end-to-end latency from frame reception to brake signal.

Expected shape (asserted): zero errors and zero assumption violations
for every seed; identical brake commands across seeds; identical logical
traces with a deterministic camera; output equal to the ideal-pipeline
oracle; end-to-end latency within the deadline/STP budget.

Scale knobs: ``REPRO_DET_SEEDS`` (default 5), ``REPRO_DET_FRAMES``
(default 500).
"""

from repro.apps.brake import BrakeScenario
from repro.harness import ScenarioSpec, SweepRunner, env_int
from repro.harness.figures import det_case_study


def test_det_case_study(benchmark, show, bench_json):
    n_seeds = env_int("REPRO_DET_SEEDS", 5)
    n_frames = env_int("REPRO_DET_FRAMES", 500)
    spec = ScenarioSpec(
        seeds=tuple(range(n_seeds)), scenario=BrakeScenario(n_frames=n_frames)
    )
    runner = SweepRunner()
    result = benchmark.pedantic(
        det_case_study, args=(spec, runner),
        rounds=1, iterations=1,
    )
    show(result.render())
    show(runner.stats.summary_line())
    bench_json.sweep(runner).record(
        seeds=n_seeds,
        frames=n_frames,
        errors_total=result.total_errors(),
        violations_total=result.total_violations(),
        latency_max_ns=result.latency.maximum,
    )

    assert result.total_errors() == 0
    assert result.total_violations() == 0
    assert result.commands_identical
    assert result.traces_identical
    assert result.oracle_perfect

    scenario = BrakeScenario()
    release = scenario.latency_bound_ns + scenario.clock_error_ns
    budget = (
        scenario.adapter_deadline_ns
        + scenario.preprocessing_deadline_ns
        + scenario.computer_vision_deadline_ns
        + scenario.eba_deadline_ns
        + 3 * release
        + 5_000_000  # scheduling slack
    )
    assert result.latency.maximum <= budget
