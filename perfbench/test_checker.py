"""Self-checks of the benchmark's per-seed output checks.

    PYTHONPATH=src python3 -m pytest perfbench/test_checker.py -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workload import Checker, brake_spec, run_scenario_spec  # noqa: E402


def test_a_seed_without_reference_fails_only_at_the_default_seed():
    spec = brake_spec("nondet")
    spec = replace(spec, scenario=replace(spec.scenario, n_frames=10))
    value = run_scenario_spec(3, spec)
    references = {"default_seed": 0, "results": {}}
    at_default = Checker(references, workload_seed=0)
    assert not at_default.check(spec, 3, value)
    assert "no committed reference" in at_default.problems[0]
    assert Checker(references, workload_seed=1).check(spec, 3, value)


def test_a_drifted_digest_fails():
    spec = brake_spec("nondet")
    spec = replace(spec, scenario=replace(spec.scenario, n_frames=10))
    value = run_scenario_spec(3, spec)
    key = f"nondet/{spec.scenario.n_frames}"
    reference = {"digest": value.outcome_digest(), "prevalence": value.prevalence}
    good = {"default_seed": 0, "results": {key: {"3": reference}}}
    assert Checker(good, workload_seed=1).check(spec, 3, value)
    bad = {"default_seed": 0, "results": {key: {"3": {**reference, "digest": "0"}}}}
    assert not Checker(bad, workload_seed=1).check(spec, 3, value)
