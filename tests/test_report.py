"""Tests for the one cross-seed report, :func:`repro.harness.sweep_report`."""

import json
import platform

import pytest

from repro.apps.brake import BrakeScenario
from repro.faults import FaultPlan
from repro.harness import ScenarioSpec, SweepRunner, code_fingerprint, sweep_report
from repro.obs import validate_flow_report


@pytest.fixture
def sweep():
    return SweepRunner(workers=1, use_cache=False)


def _brake(frames=20, **kwargs):
    return ScenarioSpec(
        seeds=(0, 1),
        scenario=BrakeScenario(n_frames=frames, deterministic_camera=True),
        **kwargs,
    )


class TestShape:
    def test_plain_report(self, sweep):
        spec = _brake()
        report = sweep_report(spec, ("det", "nondet"), sweep)
        assert report["format"] == "sweep-report/v1"
        assert report["spec"] == spec.to_dict()
        assert report["faults"] is None
        assert report["provenance"] == {
            "code_fingerprint": code_fingerprint(),
            "python": platform.python_version(),
        }
        assert list(report["variants"]) == ["det", "nondet"]
        assert "diff" not in report
        det, stock = report["variants"]["det"], report["variants"]["nondet"]
        assert det["seeds"] == stock["seeds"] == [0, 1]
        assert det["distinct_fingerprints"] == 1 and det["deterministic"]
        # Only DEAR records logical trace fingerprints.
        assert stock["distinct_fingerprints"] == 0 and not stock["deterministic"]
        assert det["fault_summaries"] == {"0": None, "1": None}
        for block in (det, stock):
            assert "flows" not in block and "metrics" not in block
            assert set(block["errors"]) == set(block["violations"]) == {"0", "1"}
        assert json.loads(json.dumps(report)) == report

    def test_metrics_block_and_stripped_fault_summaries(self, sweep):
        plan = FaultPlan.camera_faults(seed=1, drop=0.3, label="t")
        report = sweep_report(_brake(faults=plan), ("det",), sweep, metrics=True)
        assert report["faults"] == plan.to_dict()
        block = report["variants"]["det"]
        assert block["metrics"]["seeds"] == 2
        assert block["metrics"]["counters"]["faults.drop"]["total"] > 0
        for summary in block["fault_summaries"].values():
            assert summary["fired"] > 0
            assert "metrics" not in summary and "flows" not in summary

    def test_flows_blocks_and_diff(self, sweep):
        report = sweep_report(_brake(), ("det", "nondet"), sweep, flows=True)
        for variant in ("det", "nondet"):
            merged = report["variants"][variant]["flows"]
            assert merged["runs"] == 2
            assert validate_flow_report(merged) == []
        diff = report["diff"]
        det = report["variants"]["det"]["flows"]["summary"]
        assert diff["det_delivered"] == det["delivered"]
        assert diff["det_delivered"] >= diff["stock_delivered"]
