"""Systematic interleaving exploration for the simulated platforms.

The paper's first source of nondeterminism — OS scheduling — lives in
:class:`repro.sim.scheduler.CpuScheduler`, which draws every decision
(which ready thread runs, how late a timer fires, who gets a freed
mutex) from a seeded RNG stream.  Seed sweeps *sample* that space; this
package turns it into a correctness tool that *searches* it:

* :mod:`repro.explore.decisions` — record every scheduler decision as a
  compact, JSON-serializable trace and replay it bit-exactly in place
  of the RNG, so any observed failure becomes a portable artifact;
* :mod:`repro.explore.strategies` — a PCT-style explorer (bounded
  preemption points, the timed analogue of priority-change points)
  alongside uniform-random seed sweeping;
* :mod:`repro.explore.explorer` — the budgeted exploration loop over one
  :class:`~repro.harness.config.ScenarioSpec`, fanned out over the
  :class:`repro.harness.sweep.SweepRunner` process pool;
* :mod:`repro.explore.shrink` — delta-debugging a failing schedule down
  to a minimal set of preemption points that still reproduces the bug;
* :mod:`repro.explore.verify` — run the DEAR variant under explored
  schedules and assert byte-identical trace fingerprints (or a flagged,
  observable assumption violation — never silent divergence).
"""

from repro.explore.decisions import (
    DecisionRecord,
    DecisionTrace,
    InterventionSchedule,
    PreemptionPoint,
    ReplayDivergence,
    ScheduleRecorder,
    ScheduleReplayer,
    is_scheduler_stream,
)
from repro.explore.explorer import (
    ExplorationResult,
    Explorer,
    frame_drop,
    run_schedule,
)
from repro.explore.scenarios import (
    IN_BUDGET_PREEMPT_NS,
    calibration_scenario,
)
from repro.explore.shrink import ShrinkResult, ddmin, shrink_schedule
from repro.explore.strategies import PctStrategy, RandomSweepStrategy
from repro.explore.verify import VerificationResult, verify_determinism

__all__ = [
    "DecisionRecord",
    "DecisionTrace",
    "InterventionSchedule",
    "PreemptionPoint",
    "ReplayDivergence",
    "ScheduleRecorder",
    "ScheduleReplayer",
    "is_scheduler_stream",
    "Explorer",
    "ExplorationResult",
    "frame_drop",
    "run_schedule",
    "PctStrategy",
    "RandomSweepStrategy",
    "ShrinkResult",
    "ddmin",
    "shrink_schedule",
    "VerificationResult",
    "verify_determinism",
    "calibration_scenario",
    "IN_BUDGET_PREEMPT_NS",
]
