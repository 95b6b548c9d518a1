"""Tests for the Figure 1 counter application."""

from collections import Counter

import pytest

from repro.apps.counter import (
    COUNTER_LATENCY,
    CounterScenario,
    printed_values,
    run_det,
    run_nondet,
)
from repro.time import MS


def printed(result):
    """The value a one-round counter run printed."""
    (value,) = printed_values(result)
    return value


class TestNondet:
    def test_result_in_valid_range(self):
        for seed in range(6):
            assert printed(run_nondet(seed)) in (0, 1, 2, 3)

    def test_same_seed_reproducible(self):
        assert printed(run_nondet(11)) == printed(run_nondet(11))

    def test_multiple_outcomes_across_seeds(self):
        """The essence of Figure 1: the program has several behaviours."""
        outcomes = {printed(run_nondet(seed)) for seed in range(30)}
        assert len(outcomes) >= 2

    def test_wrong_results_occur(self):
        """Some seeds must produce a value other than the intended 3."""
        outcomes = [printed(run_nondet(seed)) for seed in range(30)]
        assert any(value != 3 for value in outcomes)


class TestDet:
    @pytest.mark.parametrize("seed", range(4))
    def test_always_three(self, seed):
        assert printed(run_det(seed)) == 3


class TestContrast:
    def test_histogram_shapes(self):
        nondet = Counter(printed(run_nondet(seed)) for seed in range(25))
        det = Counter(printed(run_det(seed)) for seed in range(4))
        assert set(det) == {3}
        assert len(nondet) >= 2


class TestCounterApp:
    """The counter as a registered app: spec, rounds, sources."""

    def test_registered_with_both_variants(self):
        from repro import apps

        assert "counter" in apps.names()
        assert "counter" not in apps.names(library=True)
        assert apps.get("counter").variants() == ("det", "nondet")

    def test_spec_round_trips_as_v2(self):
        from repro.harness import ScenarioSpec

        spec = ScenarioSpec(
            app="counter",
            variant="nondet",
            seeds=(1, 2),
            scenario=CounterScenario(
                n_frames=2, processing_mode="event-single-thread", two_clients=True
            ),
        )
        assert spec.to_dict()["format"] == "scenario-spec/v2"
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_spec_runs_the_runner(self):
        from repro.harness import ScenarioSpec
        from repro.harness.config import run_scenario_spec

        spec = ScenarioSpec(app="counter", variant="nondet")
        for seed in range(3):
            assert (
                run_scenario_spec(seed, spec).outcome_digest()
                == run_nondet(seed).outcome_digest()
            )

    def test_spec_stp_reaches_the_dear_bounds(self):
        from repro.dear import StpConfig
        from repro.harness import ScenarioSpec
        from repro.harness.config import run_scenario_spec

        spec = ScenarioSpec(
            app="counter", stp=StpConfig(latency_bound_ns=20 * MS, clock_error_ns=MS)
        )
        scenario = spec.effective_scenario()
        assert (scenario.latency_bound_ns, scenario.clock_error_ns) == (20 * MS, MS)
        assert printed(run_scenario_spec(0, spec)) == 3

    def test_unordered_transport_is_a_network_override(self):
        from repro.harness import NetworkSpec, ScenarioSpec
        from repro.network import SwitchConfig

        spec = ScenarioSpec(
            app="counter",
            network=NetworkSpec(latency=COUNTER_LATENCY, in_order=False),
        )
        assert spec.switch_config() == SwitchConfig(
            latency=COUNTER_LATENCY, in_order=False
        )

    def test_each_frame_is_one_printed_round(self):
        scenario = CounterScenario(n_frames=4)
        stock = run_nondet(2, scenario)
        assert len(printed_values(stock)) == 4
        assert stock.errors.total() == sum(
            value != 3 for value in printed_values(stock)
        )
        dear = run_det(2, scenario)
        assert printed_values(dear) == [3, 3, 3, 3]
        assert dear.errors.total() == 0

    def test_second_client_under_dear(self):
        result = run_det(0, CounterScenario(n_frames=2, two_clients=True))
        assert len(printed_values(result)) == 2
        assert set(result.trace_fingerprints) == {
            "counter-server", "counter-client", "counter-client2"
        }
