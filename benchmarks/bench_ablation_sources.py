"""ABLATE-SRC — Section II.B: the three sources of nondeterminism.

Paper claims: AP has three distinct sources of nondeterminism —
(1) thread-based SWC implementation, (2) undefined processing order of
incoming messages, (3) unordered/unpredictable transport — and the AP
"deterministic client" provision addresses only the first.

Expected shape (asserted): the counter app is nondeterministic with the
default thread-per-invocation dispatch; serializing the server (fixing
source 1) with FIFO transport and a single client makes it
deterministic; re-enabling unordered transport (source 3) or adding a
second client (source 2) makes it nondeterministic again even though
source 1 stays fixed.
"""

from repro.harness import ScenarioSpec, SweepRunner, env_int
from repro.harness.figures import ablation_sources


def test_ablation_sources(benchmark, show, bench_json):
    n_seeds = env_int("REPRO_ABLATION_SEEDS", 25)
    spec = ScenarioSpec(app="counter", variant="nondet", seeds=range(n_seeds))
    runner = SweepRunner()
    result = benchmark.pedantic(
        ablation_sources, args=(spec, runner), rounds=1, iterations=1,
    )
    show(result.render())
    show(runner.stats.summary_line())

    by_label = {label: counts for label, counts in result.rows}
    bench_json.sweep(runner).record(
        seeds=n_seeds,
        distinct_outcomes={
            label: len(counts) for label, counts in result.rows
        },
    )
    source1 = by_label["source 1 on: thread-per-invocation"]
    fixed = by_label["sources off: serialized + FIFO"]
    source3 = by_label["source 3 on: unordered transport"]
    source2 = by_label["source 2 on: second client"]

    assert len(source1) >= 2, "thread dispatch alone causes nondeterminism"
    assert set(fixed) == {3}, "fixing all sources restores determinism"
    assert len(source3) >= 2, "unordered transport reintroduces it"
    assert len(source2) >= 2, "a second client reintroduces it"
