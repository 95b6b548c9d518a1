"""One cross-seed report over a spec's variants (``sweep-report/v1``).

The only place per-seed digests are aggregated; the CLI's ``faults``,
``flows`` and ``metrics`` subcommands render this document.
"""

from __future__ import annotations

import platform
from dataclasses import replace
from typing import Any

from repro.harness.sweep import code_fingerprint

__all__ = ["provenance", "sweep_report"]


def provenance() -> dict[str, str]:
    """Which code and interpreter produced an artifact."""
    return {
        "code_fingerprint": code_fingerprint(),
        "python": platform.python_version(),
    }


def sweep_report(
    spec, variants, sweep, *, flows: bool = False, metrics: bool = False
) -> dict[str, Any]:
    """Sweep *spec* once per variant and aggregate its seeds.

    Each variant runs ``sweep.run_spec(replace(spec, variant=v,
    observe=metrics), flows=flows)``; *flows* adds each variant's
    ``merge_flow_reports`` block (and, with ``det`` and ``nondet``, the
    stock-vs-DEAR ``diff``), *metrics* its ``aggregate_snapshots`` block.
    """
    from repro.obs.flows import merge_flow_reports
    from repro.obs.metrics import aggregate_snapshots

    blocks = {}
    for variant in variants:
        runs = sweep.run_spec(
            replace(spec, variant=variant, observe=metrics), flows=flows
        ).values()
        blocks[variant] = _variant_block(runs)
        if flows:
            blocks[variant]["flows"] = merge_flow_reports(
                [run.fault_summary["flows"] for run in runs]
            )
        if metrics:
            blocks[variant]["metrics"] = aggregate_snapshots(
                [run.fault_summary["metrics"] for run in runs]
            )
    plan = spec.effective_faults()
    report = {
        "format": "sweep-report/v1",
        "spec": spec.to_dict(),
        "faults": None if plan is None else plan.to_dict(),
        "provenance": provenance(),
        "variants": blocks,
    }
    if flows and {"det", "nondet"} <= blocks.keys():
        det = blocks["det"]["flows"]["summary"]
        stock = blocks["nondet"]["flows"]["summary"]
        report["diff"] = {
            **{f"det_{key}": det[key] for key in _DIFF_KEYS},
            **{f"stock_{key}": stock[key] for key in _DIFF_KEYS},
            "stock_only_causes": sorted(
                set(stock["drops_by_cause"]) - set(det["drops_by_cause"])
            ),
        }
    return report


_DIFF_KEYS = ("delivered", "dropped", "drops_by_cause", "e2e_p95_ns")


def _variant_block(runs) -> dict[str, Any]:
    """Per-seed digests (keyed by ``str(seed)``) and their aggregates.

    Only DEAR variants record logical trace fingerprints, so a stock
    variant has 0 distinct fingerprints and is never ``deterministic``.
    """
    fingerprints = {str(run.seed): dict(run.trace_fingerprints) for run in runs}
    distinct = len({tuple(sorted(f.items())) for f in fingerprints.values() if f})
    return {
        "seeds": [run.seed for run in runs],
        "fingerprints": fingerprints,
        "distinct_fingerprints": distinct,
        "deterministic": distinct == 1,
        "flagged_violations": sum(
            run.stp_violations + run.deadline_misses for run in runs
        ),
        "violations": {
            str(run.seed): {
                "stp_violations": run.stp_violations,
                "deadline_misses": run.deadline_misses,
            }
            for run in runs
        },
        "distinct_outcomes": len(
            {tuple(sorted(run.commands.items())) for run in runs}
        ),
        "errors": {str(run.seed): run.errors.as_dict() for run in runs},
        "fault_summaries": {
            str(run.seed): {
                key: value
                for key, value in (run.fault_summary or {}).items()
                if key not in ("metrics", "flows")
            }
            or None
            for run in runs
        },
    }
