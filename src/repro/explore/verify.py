"""Determinism verification: DEAR under explored schedules.

The paper's claim is not "the DEAR variant usually behaves"; it is
that for *any* scheduling the observable behaviour is either identical
or a flagged assumption violation.  This module checks exactly that:
run a spec's DEAR variant under every schedule the explorer produced
(plus the shrunk counterexample) and compare the
per-environment :meth:`~repro.reactors.telemetry.Trace.fingerprint`
byte-for-byte against the unperturbed baseline.

A schedule whose preemptions stay inside the platform assumptions
(see :data:`repro.explore.scenarios.IN_BUDGET_PREEMPT_NS`) must be
fingerprint-identical.  A schedule that blows a deadline shows up as
deadline-miss / STP-violation counters — an *observable* divergence,
which the verifier reports as flagged.  What must never happen is a
**silent divergence**: different fingerprints with zero violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.explore.decisions import InterventionSchedule
from repro.explore.explorer import run_schedule
from repro.harness.sweep import SweepRunner


@dataclass
class ScheduleVerdict:
    """DEAR's behaviour under one schedule."""

    label: str
    identical: bool
    deadline_misses: int
    stp_violations: int
    errors_total: int

    @property
    def flagged(self) -> bool:
        """The run violated a platform assumption (observable)."""
        return self.deadline_misses > 0 or self.stp_violations > 0

    @property
    def silent_divergence(self) -> bool:
        """Diverged without any observable violation — must not happen."""
        return not self.identical and not self.flagged


@dataclass
class VerificationResult:
    """Aggregate determinism verdict over many schedules."""

    reference: dict[str, str]
    verdicts: list[ScheduleVerdict] = field(default_factory=list)

    @property
    def schedules(self) -> int:
        return len(self.verdicts)

    @property
    def identical(self) -> int:
        return sum(1 for verdict in self.verdicts if verdict.identical)

    @property
    def flagged(self) -> list[ScheduleVerdict]:
        return [v for v in self.verdicts if not v.identical and v.flagged]

    @property
    def silent_divergences(self) -> list[ScheduleVerdict]:
        return [v for v in self.verdicts if v.silent_divergence]

    @property
    def ok(self) -> bool:
        """Determinism holds: divergence only ever with a flag raised."""
        return not self.silent_divergences


def _verdict(spec: Any, schedule_data: dict) -> dict:
    """Picklable worker: one run of *spec* under one schedule.

    Preemptions landing on the app's input threads are suppressed.
    """
    schedule = InterventionSchedule.from_dict(schedule_data)
    result, _controller = run_schedule(
        spec, schedule, exclude=spec.definition().input_threads
    )
    return {
        "label": schedule.label or schedule.describe(),
        "fingerprints": dict(result.trace_fingerprints),
        "deadline_misses": result.deadline_misses,
        "stp_violations": result.stp_violations,
        "errors_total": result.errors.total(),
    }


def verify_determinism(
    spec: Any,
    schedules: list[InterventionSchedule],
    sweep: SweepRunner | None = None,
) -> VerificationResult:
    """Run *spec* under every schedule; compare trace fingerprints.

    *spec* is a DEAR variant with seed-fixed inputs (see
    :func:`repro.apps.world.seed_fixed`).  The comparison is only
    meaningful when the *inputs* are held fixed — the determinism claim
    is "same inputs ⇒ same trace", so the verifier must vary scheduling
    and nothing else.  Two normalisations enforce that:

    * The reference is the unperturbed run of the spec's first seed.
      Schedules whose ``base_seed`` differs would legitimately see
      different event tags, so all schedules are re-anchored to it.
    * Preemptions that land on sensor/environment threads (the app's
      ``input_threads``) are suppressed: delaying a sensor driver
      shifts when its physical action is scheduled, i.e. it changes
      the input timeline, not the SUT's scheduling.
    """
    sweep = sweep or SweepRunner()
    base_seed = spec.seeds[0]
    reference_run, _controller = run_schedule(
        spec, InterventionSchedule(base_seed=base_seed)
    )
    reference = dict(reference_run.trace_fingerprints)

    anchored = [
        InterventionSchedule(
            base_seed=base_seed,
            preemptions=schedule.preemptions,
            label=schedule.label or f"schedule[{index}]",
        )
        for index, schedule in enumerate(schedules)
    ]
    rows = sweep.map(
        partial(_verdict, spec),
        [schedule.to_dict() for schedule in anchored],
        name="explore-verify-det",
        params={"spec": spec.to_dict()},
    )
    verdicts = [
        ScheduleVerdict(
            label=row["label"],
            identical=row["fingerprints"] == reference,
            deadline_misses=row["deadline_misses"],
            stp_violations=row["stp_violations"],
            errors_total=row["errors_total"],
        )
        for row in rows
    ]
    return VerificationResult(reference=reference, verdicts=verdicts)
