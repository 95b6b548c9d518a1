"""FIG1 — reproduce Figure 1: the nondeterministic client/server app.

Paper artifact: a histogram of the value printed by the client of the
naive counter application; each of 0, 1, 2, 3 occurs with sizeable
probability on the stock platform, while the intended result is 3.

Expected shape (asserted): multiple distinct outcomes on stock AP, no
outcome with probability 1, wrong results present; the DEAR variant
prints 3 every time.

Scale knobs: ``REPRO_FIG1_SEEDS`` (default 200; the DEAR contrast runs
the first 8 of them).
"""

from repro.harness import ScenarioSpec, SweepRunner, env_int
from repro.harness.figures import figure1


def test_figure1(benchmark, show, bench_json):
    n_seeds = env_int("REPRO_FIG1_SEEDS", 200)
    spec = ScenarioSpec(app="counter", variant="nondet", seeds=range(n_seeds))
    runner = SweepRunner()
    result = benchmark.pedantic(
        figure1, args=(spec, runner), rounds=1, iterations=1,
    )
    show(result.render())
    show(runner.stats.summary_line())

    probabilities = result.probabilities()
    bench_json.sweep(runner).record(
        seeds=n_seeds,
        probabilities={str(k): v for k, v in sorted(probabilities.items())},
    )
    # All observed outcomes are legal interleavings of {set, add, get}.
    assert set(probabilities) <= {0, 1, 2, 3}
    # The program has several behaviours...
    assert len(probabilities) >= 2
    # ...none of which is certain,
    assert max(probabilities.values()) < 1.0
    # and the intended result is among them but not guaranteed.
    assert 3 in probabilities
    assert sum(v for k, v in probabilities.items() if k != 3) > 0
    # DEAR: exactly one behaviour, the intended one.
    assert set(result.det_counts) == {3}
