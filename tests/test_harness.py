"""Tests for the experiment harness (small-scale figure drivers)."""

import os

import pytest

from repro.apps.brake import BrakeScenario
from repro.faults import FaultPlan
from repro.harness import ScenarioSpec, SweepRunner, env_int
from repro.harness.extensions import (
    clock_skew_sweep,
    native_transport_comparison,
    pipeline_scaling,
)
from repro.harness.figures import (
    FigureSpecError,
    ablation_sources,
    det_case_study,
    distributed,
    figure1,
    figure3_sequence,
    figure5,
    let_baseline,
    overhead,
    tradeoff,
)
from repro.time import MS


def _spec(n_frames, seeds=(0,), **fields):
    """A brake spec of *seeds* x *n_frames* frames."""
    return ScenarioSpec(
        seeds=seeds, scenario=BrakeScenario(n_frames=n_frames), **fields
    )


def _double(seed):
    return seed * 2


class TestRunner:
    def test_sequential_map_preserves_seed_order(self):
        runner = SweepRunner(workers=1, use_cache=False)
        assert runner.map(_double, [3, 1, 2], name="order") == [6, 2, 4]

    def test_env_int_default(self):
        os.environ.pop("REPRO_TEST_KNOB", None)
        assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_env_int_override(self):
        os.environ["REPRO_TEST_KNOB"] = "42"
        try:
            assert env_int("REPRO_TEST_KNOB", 7) == 42
        finally:
            del os.environ["REPRO_TEST_KNOB"]

    @pytest.mark.parametrize("bad", ["ten", "1.5", "", "0x10"])
    def test_env_int_rejects_malformed(self, bad):
        os.environ["REPRO_TEST_KNOB"] = bad
        try:
            with pytest.raises(ValueError) as excinfo:
                env_int("REPRO_TEST_KNOB", 7)
            # The error names the variable and the offending value, so a
            # typo in a shell knob doesn't surface as a bare traceback.
            assert "REPRO_TEST_KNOB" in str(excinfo.value)
            assert repr(bad) in str(excinfo.value)
        finally:
            del os.environ["REPRO_TEST_KNOB"]


class TestFigureDriversSmall:
    """Each driver at miniature scale: structure + render sanity."""

    def test_figure1(self):
        result = figure1(ScenarioSpec(app="counter", seeds=range(8)))
        assert sum(result.nondet_counts.values()) == 8
        assert set(result.det_counts) == {3}
        assert "Figure 1" in result.render()
        assert abs(sum(result.probabilities().values()) - 1.0) < 1e-9

    def test_figure3(self):
        result = figure3_sequence()
        assert result.matches_paper_chain()
        assert "tc + Dc + L + E" in result.render()

    def test_figure5(self):
        result = figure5(_spec(150, seeds=(0, 1, 2)))
        assert len(result.runs) == 3
        assert result.rates() == sorted(result.rates())
        assert "Figure 5" in result.render()

    def test_det_case_study(self):
        result = det_case_study(_spec(100, seeds=(0, 1)))
        assert result.total_errors() == 0
        assert result.commands_identical
        assert result.oracle_perfect
        assert "deterministic brake assistant" in result.render()

    def test_tradeoff_monotone(self):
        result = tradeoff(_spec(80), deadlines_ns=[15 * MS, 25 * MS])
        assert len(result.points) == 2
        unsound, sound = result.points
        assert unsound.deadline_misses > sound.deadline_misses
        assert sound.deadline_misses == 0
        assert "trade-off" in result.render()

    def test_ablation(self):
        result = ablation_sources(ScenarioSpec(app="counter", seeds=range(6)))
        by_label = dict(result.rows)
        assert set(by_label["sources off: serialized + FIFO"]) == {3}
        assert "sources of nondeterminism" in result.render()

    def test_overhead(self):
        result = overhead(_spec(100))
        assert result.dear_frames_out == 100
        assert result.dear_latency.maximum < 80 * MS
        assert "Cost of determinism" in result.render()

    def test_let_baseline(self):
        result = let_baseline(_spec(80, seeds=(0, 1)))
        assert result.deterministic
        assert result.let_latency.mean == 200 * MS
        assert "LET" in result.render()


class TestBrakeFigureSpecs:
    """Every brake figure runs its seeds from the spec it is given."""

    SWEEP = dict(workers=1, use_cache=False)

    def test_tradeoff_keeps_the_spec_fault_plan(self):
        plan = FaultPlan.camera_faults(seed=1, drop=0.3)
        clean = tradeoff(
            _spec(80), deadlines_ns=[22 * MS], sweep=SweepRunner(**self.SWEEP)
        )
        faulty = tradeoff(
            _spec(80, faults=plan),
            deadlines_ns=[22 * MS],
            sweep=SweepRunner(**self.SWEEP),
        )
        assert clean.points[0].frames_lost == 0
        assert faulty.points[0].frames_lost > 0

    def test_distributed_runs_the_spec_frames(self):
        result = distributed(
            _spec(40), configurations=[(0, 0)], sweep=SweepRunner(**self.SWEEP)
        )
        ((skew, error, run),) = result.runs
        assert (skew, error) == (0, 0)
        assert len(run.commands) == 40
        assert "40/40" in result.render()

    @pytest.mark.parametrize(
        "driver",
        [figure5, det_case_study, tradeoff, overhead, let_baseline, distributed],
    )
    def test_library_app_spec_is_rejected(self, driver):
        with pytest.raises(FigureSpecError, match="'fusion'"):
            driver(ScenarioSpec(app="fusion"), sweep=SweepRunner(**self.SWEEP))


class TestExtensionResults:
    """The extension drivers' published numbers, pinned."""

    SWEEP = dict(workers=1, use_cache=False)

    def test_clock_skew_sweep(self):
        result = clock_skew_sweep(sweep=SweepRunner(**self.SWEEP))
        assert [p.stp_violations for p in result.points] == [0, 12, 0, 12, 0]
        assert all(p.delivered == result.count == 12 for p in result.points)
        assert all(p.in_order for p in result.points)

    def test_pipeline_scaling(self):
        result = pipeline_scaling(sweep=SweepRunner(**self.SWEEP))
        assert [p.depth for p in result.points] == [1, 2, 4, 6]
        assert [p.logical_latency_ns for p in result.points] == [
            10 * MS, 20 * MS, 40 * MS, 60 * MS
        ]
        assert result.hop_cost_ns == 10 * MS
        for point in result.points:
            assert point.logical_latency_ns == point.expected_ns
            assert point.expected_ns == point.depth * result.hop_cost_ns

    def test_native_transport(self):
        result = native_transport_comparison(sweep=SweepRunner(**self.SWEEP))
        assert (result.trailer_bytes, result.native_bytes) == (52, 44)
        assert result.behaviour_identical
