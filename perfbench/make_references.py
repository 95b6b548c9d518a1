"""Regenerate ``references.json``: the outcome every checked seed must give.

    python3 perfbench/make_references.py

Records, per simulation seed, the ``BrakeRunResult.outcome_digest()``
and the Figure 5 error prevalence of a local ``run_scenario_spec``:

* every seed of the brake pool, for both variants (the brake workloads
  draw only from this pool, so every brake seed of every workload seed
  is checked);
* the seeds the campaign workloads draw at the default workload seed.
  ``campaign_fresh`` draws new seeds without end, so its first
  ``FRESH_REFERENCE_SEEDS`` are covered; a run at the default workload
  seed that draws more fails its check.  Seeds at other workload seeds
  are still checked against a local run and, being DEAR, the oracle.

Rerun it only when a change is *meant* to alter simulated outcomes, and
say so in the change: the references are what catch schedules that a
speed-up changed by accident.
"""

from __future__ import annotations

import itertools
import json

from workload import (
    BRAKE_POOL,
    CACHED_POOL,
    FRESH_REFERENCE_SEEDS,
    REFERENCES,
    brake_spec,
    campaign_spec,
    distinct_seeds,
    run_scenario_spec,
)

DEFAULT_SEED = 0


def reference(spec, seed: int) -> dict:
    value = run_scenario_spec(seed, spec)
    return {"digest": value.outcome_digest(), "prevalence": value.prevalence}


def table(spec, seeds) -> tuple[str, dict]:
    key = f"{spec.variant}/{spec.scenario.n_frames}"
    return key, {str(seed): reference(spec, seed) for seed in seeds}


def main() -> None:
    results = {}
    for variant in ("det", "nondet"):
        key, rows = table(brake_spec(variant), range(BRAKE_POOL))
        results[key] = rows
    # Each stream's first seed is the untimed warm-up seed.
    campaign_seeds = list(itertools.islice(
        distinct_seeds(DEFAULT_SEED, "campaign_fresh"), 1 + FRESH_REFERENCE_SEEDS
    ))
    campaign_seeds += itertools.islice(
        distinct_seeds(DEFAULT_SEED, "campaign_cached"), 1 + CACHED_POOL
    )
    key, rows = table(campaign_spec(), sorted(set(campaign_seeds)))
    results[key] = rows
    REFERENCES.write_text(json.dumps(
        {"format": "perfbench-references/v1", "default_seed": DEFAULT_SEED,
         "results": results},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {sum(map(len, results.values()))} references to {REFERENCES}")


if __name__ == "__main__":
    main()
