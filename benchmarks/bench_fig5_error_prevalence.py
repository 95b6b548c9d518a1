"""FIG5 — reproduce Figure 5: error prevalence of the stock brake assistant.

Paper artifact: 20 runs x 100 000 frames; per-run stacked error bars of
four types (dropped frames at Preprocessing / Computer Vision, input
mismatches at Computer Vision, dropped vehicles at EBA), sorted by total
rate.  Paper numbers: min 0.018 %, mean 5.60 %, max 22.25 %; composition
varies run to run, with Computer Vision drops dominating most runs.

Expected shape (asserted): error rate spans orders of magnitude across
runs (near-zero to >10 %), mean in the few-percent range, at least three
of the four error types observed, and the dominant type varies.

Scale knobs: ``REPRO_FIG5_RUNS`` (default 20) and
``REPRO_BRAKE_FRAMES`` (default 2000; paper scale is 100000).
"""

from repro.apps.brake import BrakeScenario
from repro.harness import ScenarioSpec, SweepRunner, env_int
from repro.harness.figures import figure5


def test_figure5(benchmark, show, bench_json):
    n_runs = env_int("REPRO_FIG5_RUNS", 20)
    n_frames = env_int("REPRO_BRAKE_FRAMES", 2_000)
    spec = ScenarioSpec(
        variant="nondet",
        seeds=tuple(range(n_runs)),
        scenario=BrakeScenario(n_frames=n_frames),
    )
    runner = SweepRunner()
    result = benchmark.pedantic(
        figure5, args=(spec, runner),
        rounds=1, iterations=1,
    )
    show(result.render())
    show(runner.stats.summary_line())

    rates = result.rates()
    bench_json.sweep(runner).record(
        runs=n_runs,
        frames=n_frames,
        error_rates={
            "min": min(rates), "mean": result.mean_rate(), "max": max(rates)
        },
    )
    # Huge spread: some runs near-perfect, some catastrophically bad.
    assert min(rates) < 0.005
    assert max(rates) > 0.10
    # Mean error prevalence lands in the paper's "few percent" regime.
    assert 0.01 < result.mean_rate() < 0.15
    # Error composition: several error types occur across the sweep...
    types_seen = {
        name
        for run in result.runs
        for name, count in run.errors.as_dict().items()
        if count > 0
    }
    assert len(types_seen) >= 3
    # ...and no single type dominates every error-bearing run.
    assert len(result.dominant_types()) >= 2
