"""The budgeted exploration loop.

An :class:`Explorer` owns one :class:`~repro.harness.config.ScenarioSpec`
— the stock brake assistant on its calibration scenario, as ``repro
explore`` builds it by default, or any registered app, scenario,
network, topology and fault plan — and a strategy.  It first
*calibrates* — one baseline run of the spec's first seed counting the
dispatch horizon — then evaluates schedules
``strategy.schedule_for(0..budget-1)`` until the failure predicate
fires or the budget is exhausted.  Every execution is one
:func:`run_schedule` call.  Executions are independent, so they fan out
over the :class:`repro.harness.sweep.SweepRunner` process pool in
chunks (with early exit between chunks) and per-execution outcomes land
in the sweep result cache like any other seeded experiment.  The search
never forks snapshots: its schedules rarely share a long decision
prefix, and one sequential process tree cost more than the pool saved.
The snapshot engine serves :meth:`Explorer.evaluate`, whose shrink
probes differ from one another by one removed preemption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.explore.decisions import (
    DecisionTrace,
    InterventionSchedule,
    PreemptionPoint,
    ScheduleRecorder,
)
from repro.explore.strategies import PctStrategy
from repro.harness.sweep import SweepRunner
from repro.sim.rng import stream_hooks


@dataclass
class ExecutionOutcome:
    """One explored schedule and what it produced."""

    index: int
    schedule: InterventionSchedule
    errors_total: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    #: Captured traceback if the execution itself crashed.
    error: str | None = None


def frame_drop(outcome: ExecutionOutcome) -> bool:
    """Default failure predicate: the run dropped or misaligned frames."""
    return outcome.errors_total > 0


@dataclass
class ExplorationResult:
    """Everything one exploration produced."""

    strategy: str
    budget: int
    horizon: int
    executions: list[ExecutionOutcome]
    #: First failing execution (``None`` if the budget ran dry).
    found: ExecutionOutcome | None = None

    @property
    def executions_used(self) -> int:
        """Executions evaluated up to and including the first failure."""
        if self.found is not None:
            return self.found.index + 1
        return len(self.executions)


def run_schedule(
    spec: Any,
    schedule: InterventionSchedule,
    *,
    checkpointer: Any = None,
    exclude: tuple[str, ...] = (),
    recorder: ScheduleRecorder | None = None,
) -> tuple[Any, Any]:
    """Run *spec* once under *schedule*: the body of every execution.

    Explore, shrink, record and the determinism verifier all run
    ``run_scenario_spec(schedule.base_seed, spec)`` here, under the
    schedule's intervention controller.  *checkpointer* lets the
    snapshot engine capture holders at planned sites, *exclude*
    suppresses preemptions on matching threads and *recorder* (a
    :class:`ScheduleRecorder`) records the effective decisions.
    Returns ``(result, controller)``.
    """
    # deferred: repro.harness.config imports the fault injector, which
    # imports this package's decision traces
    from repro.harness.config import run_scenario_spec

    controller = schedule.controller(exclude=exclude, checkpointer=checkpointer)
    hooks = (controller,) if recorder is None else (controller, recorder)
    with stream_hooks(*hooks):
        result = run_scenario_spec(schedule.base_seed, spec)
    return result, controller


def _summary(spec: Any, schedule_data: dict, checkpointer: Any = None) -> dict:
    """Picklable worker: one schedule's error counters and applied points."""
    result, controller = run_schedule(
        spec, InterventionSchedule.from_dict(schedule_data), checkpointer=checkpointer
    )
    return {
        "errors_total": result.errors.total(),
        "errors": result.errors.as_dict(),
        "applied": [
            {"site": p.site, "delay_ns": p.delay_ns, "thread": p.thread}
            for p in controller.applied
        ],
    }


def _annotated(schedule: InterventionSchedule, summary: dict) -> InterventionSchedule:
    """*schedule* with the thread each preemption point actually hit."""
    applied = {
        p["site"]: PreemptionPoint(p["site"], p["delay_ns"], p["thread"])
        for p in summary["applied"]
    }
    return schedule.with_points(
        applied.get(point.site, point) for point in schedule.preemptions
    )


class Explorer:
    """Search scheduler interleavings of one :class:`ScenarioSpec` for a failure.

    Every execution runs ``run_scenario_spec(schedule.base_seed, spec)``
    (see :func:`run_schedule`), so the spec's app, variant, scenario,
    network, topology and fault plan all reach the search; schedules
    start from the spec's first seed.  The result must expose
    ``errors`` counters (every registered app's runners qualify).
    """

    def __init__(
        self,
        spec: Any,
        strategy: Any = None,
        sweep: SweepRunner | None = None,
        predicate: Callable[[ExecutionOutcome], bool] = frame_drop,
        snapshots: Any = None,
    ) -> None:
        self.spec = spec
        self.strategy = strategy or PctStrategy()
        self.sweep = sweep or SweepRunner()
        self.predicate = predicate
        #: Optional :class:`repro.snapshot.SnapshotEngine`; when active,
        #: :meth:`evaluate` (shrink's probes) forks from the deepest
        #: shared-prefix holder instead of replaying from t=0.
        self.snapshots = snapshots
        self._horizon: int | None = None

    # -- running one schedule ----------------------------------------------

    def _engine(self):
        """The snapshot engine when it can fork, else ``None``."""
        engine = self.snapshots
        return engine if engine is not None and engine.active else None

    def _forked_job(self, schedule: InterventionSchedule):
        """``(context, decisions, run)`` for the snapshot engine.

        The context is everything outside the decision vector: the spec,
        the schedule's own base seed (two schedules with different world
        seeds never share state) and the code fingerprint.
        """
        from repro.harness.sweep import code_fingerprint
        from repro.snapshot import ScheduleDecisions, context_key

        context = context_key(
            "explore", self.spec.to_json(), schedule.base_seed, code_fingerprint()
        )
        run = partial(_summary, self.spec, schedule.to_dict())
        return context, ScheduleDecisions(schedule), run

    def evaluate(self, schedule: InterventionSchedule) -> dict:
        """*schedule*'s summary: ``errors_total``, ``errors``, ``applied``.

        Forks from the deepest snapshot holder whose captured decision
        prefix matches the schedule when the engine is active (cold-
        running and capturing along the way on a miss), else runs in
        process.
        """
        engine = self._engine()
        if engine is not None:
            return engine.execute(*self._forked_job(schedule))
        return _summary(self.spec, schedule.to_dict())

    def annotate(self, schedule: InterventionSchedule) -> InterventionSchedule:
        """Resolve which thread each preemption point actually hit (in process)."""
        return _annotated(schedule, _summary(self.spec, schedule.to_dict()))

    def record(
        self, schedule: InterventionSchedule
    ) -> tuple[Any, DecisionTrace]:
        """Run *schedule* while recording the full decision trace.

        The trace's params carry the schedule and the spec, so a replay
        re-runs exactly this spec, fault plan included.
        """
        recorder = ScheduleRecorder(base_seed=schedule.base_seed)
        result, _controller = run_schedule(self.spec, schedule, recorder=recorder)
        recorder.trace.params = {
            "schedule": schedule.to_dict(),
            "spec": self.spec.to_dict(),
        }
        return result, recorder.trace

    # -- calibration --------------------------------------------------------

    @property
    def horizon(self) -> int:
        """Dispatch count of the baseline run (preemption-site space)."""
        if self._horizon is None:
            baseline = InterventionSchedule(base_seed=self.spec.seeds[0])
            _result, controller = run_schedule(self.spec, baseline)
            self._horizon = controller._site
        return self._horizon

    # -- the exploration loop ----------------------------------------------

    def explore(self, budget: int = 40) -> ExplorationResult:
        """Evaluate up to *budget* schedules; stop at the first failure."""
        horizon = self.horizon
        name = f"explore-{self.strategy.name}"
        outcomes: list[ExecutionOutcome] = []
        found: ExecutionOutcome | None = None
        spec_dict = self.spec.to_dict()
        chunk = max(self.sweep.workers, 4)
        for start in range(0, budget, chunk):
            indices = range(start, min(start + chunk, budget))
            schedules = [
                self.strategy.schedule_for(index, self.spec.seeds[0], horizon)
                for index in indices
            ]
            batch = self.sweep.run(
                partial(_summary, self.spec),
                [schedule.to_dict() for schedule in schedules],
                name=name,
                params={"spec": spec_dict},
            )
            for index, schedule, seed_outcome in zip(
                indices, schedules, batch.outcomes
            ):
                if not seed_outcome.ok:
                    outcome = ExecutionOutcome(
                        index, schedule, error=seed_outcome.error
                    )
                else:
                    summary = seed_outcome.value
                    outcome = ExecutionOutcome(
                        index,
                        _annotated(schedule, summary),
                        errors_total=summary["errors_total"],
                        errors=dict(summary["errors"]),
                    )
                outcomes.append(outcome)
                if found is None and outcome.error is None and self.predicate(outcome):
                    found = outcome
                    break
            if found is not None:
                break
        return ExplorationResult(
            strategy=self.strategy.name,
            budget=budget,
            horizon=horizon,
            executions=outcomes,
            found=found,
        )
