"""Run the end-to-end benchmark: every workload in a process of its own.

    python3 perfbench/run.py --workload brake_dear --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py                      # all four workloads
    python3 perfbench/run.py --steady 10          # steadiness report

A single workload prints its result object as the last line; ``all``
ends with one object over every workload (metric names prefixed with
the workload).  ``--steady K`` runs each selected workload K times with
seeds ``seed .. seed+K-1`` and prints, per metric, the median, the
quartiles and the quartile spread as a share of the median, against the
metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Same as ``workload.WORKLOADS``, which run.py cannot import: that
#: imports the program, and run.py must fail cleanly where it is absent.
WORKLOADS = ("brake_dear", "brake_stock", "campaign_fresh", "campaign_cached")
#: A run that has not ended by then is killed and counts as failed.
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh interpreter; returns its result object."""
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT_S}s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: exited {done.returncode} without a result")
    return json.loads(lines[-1])


def bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    metrics = json.loads(path.read_text())["end_to_end"]
    return {metric["name"]: metric["bound"] for metric in metrics}


def steady(workloads, seed: int, seconds: float, trace: int, k: int) -> dict:
    """K runs per workload; per-metric median, quartiles and spread."""
    limits = bounds()
    report = {}
    for workload in workloads:
        runs = [run_child(workload, seed + i, seconds, trace) for i in range(k)]
        rows = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = limits.get(name)
            rows[name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "values": values,
            }
            verdict = "" if not bound else (
                f"bound {bound:.2f}  spread/bound {spread / bound:.2f}"
            )
            print(f"{workload:16s} {name:34s} median {median:12.5g}  "
                  f"q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:6.3f}  {verdict}")
        report[workload] = {
            "runs": k,
            "correct": all(run["correct"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "metrics": rows,
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="run each workload K times and report spreads")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.steady:
        print(json.dumps(steady(workloads, args.seed, args.seconds, args.trace,
                                args.steady)))
        return 0
    results = {w: run_child(w, args.seed, args.seconds, args.trace) for w in workloads}
    if len(results) == 1:
        print(json.dumps(results[workloads[0]]))
        return 0
    for workload, result in results.items():
        print(workload, json.dumps(result))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{workload}.{name}": metric
            for workload, result in results.items()
            for name, metric in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
