"""TRADEOFF — Section IV.B's discussion: deadlines vs. errors vs. latency.

Paper claim: deadlines must cover each SWC's WCET for guaranteed-correct
execution; setting them lower deliberately trades sporadic *observable*
errors for lower end-to-end latency, and "the trade-off between
end-to-end latency and error rate becomes apparent".

Expected shape (asserted): with deadlines above the heavy stages' WCET
(21 ms) there are no violations and no lost frames; below it,
violations and losses appear and grow as the deadline shrinks; the
end-to-end latency grows monotonically with the deadline budget.
"""

from repro.apps.brake import BrakeScenario
from repro.harness import ScenarioSpec, SweepRunner, env_int
from repro.harness.figures import tradeoff
from repro.time import MS


def test_deadline_tradeoff(benchmark, show, bench_json):
    n_frames = env_int("REPRO_TRADEOFF_FRAMES", 300)
    spec = ScenarioSpec(scenario=BrakeScenario(n_frames=n_frames))
    runner = SweepRunner()
    result = benchmark.pedantic(
        tradeoff, kwargs={"spec": spec, "sweep": runner},
        rounds=1, iterations=1,
    )
    show(result.render())
    show(runner.stats.summary_line())
    bench_json.sweep(runner).record(
        frames=n_frames,
        points=[
            {
                "deadline_ns": point.deadline_ns,
                "deadline_misses": point.deadline_misses,
                "frames_lost": point.frames_lost,
                "latency_mean_ns": point.latency_mean_ns,
            }
            for point in result.points
        ],
    )

    by_deadline = {point.deadline_ns: point for point in result.points}
    # Sound deadlines (>= WCET 21 ms): zero violations, zero loss.
    for deadline, point in by_deadline.items():
        if deadline >= 22 * MS:
            assert point.deadline_misses == 0
            assert point.frames_lost == 0
    # Unsound deadlines: violations appear...
    assert by_deadline[15 * MS].deadline_misses > 0
    assert by_deadline[15 * MS].frames_lost > 0
    # ...and get worse as the deadline shrinks.
    misses = [p.deadline_misses for p in result.points]
    assert misses == sorted(misses, reverse=True)
    # Latency grows with the deadline budget (among lossless points).
    lossless = [p for p in result.points if p.frames_lost == 0]
    latencies = [p.latency_mean_ns for p in lossless]
    assert latencies == sorted(latencies)
