"""Experiment harness regenerating the paper's figures.

:mod:`repro.harness.figures` contains one driver per experiment of the
index in ``DESIGN.md`` (FIG1, FIG5, DET, TRADEOFF, ABLATE-SRC, OVERHEAD,
LET); each returns a result object with a ``render()`` method producing
the text form of the corresponding figure.  The benchmark suite under
``benchmarks/`` is a thin wrapper around these drivers.

:mod:`repro.harness.sweep` provides :class:`SweepRunner`, the parallel
seeded-sweep engine (process-pool fan-out, deterministic seed-order
merge, on-disk result cache) that the drivers, the CLI and the
benchmarks all share; :func:`repro.harness.report.sweep_report` folds
a spec's seeds into one cross-seed ``sweep-report/v1`` document.
"""

from repro.harness.benchdiff import compare_dirs, render_bench_diff
from repro.harness.config import NetworkSpec, ScenarioSpec, run_scenario_spec
from repro.harness.report import sweep_report
from repro.harness.runner import env_int
from repro.harness.sweep import (
    SeedOutcome,
    SweepError,
    SweepResult,
    SweepRunner,
    SweepStats,
    code_fingerprint,
    driver_fingerprint,
    default_workers,
)
from repro.harness import figures

__all__ = [
    "NetworkSpec",
    "ScenarioSpec",
    "run_scenario_spec",
    "sweep_report",
    "env_int",
    "figures",
    "SweepRunner",
    "SweepResult",
    "SeedOutcome",
    "SweepStats",
    "SweepError",
    "code_fingerprint",
    "driver_fingerprint",
    "default_workers",
    "compare_dirs",
    "render_bench_diff",
]
