"""One frozen spec for one experiment: :class:`ScenarioSpec`.

``ScenarioSpec`` bundles *everything* that parameterizes an experiment
— the application (any entry of :mod:`repro.apps.registry`), variant,
seeds, workload scenario, a nested :class:`NetworkSpec`, an optional
:class:`~repro.network.topology.TopologySpec` fabric, STP bounds,
observability, and a :class:`~repro.faults.FaultPlan` — into a single
frozen, JSON-round-trippable value consumed uniformly by
:class:`SweepRunner`, the figure/extension drivers and every seeded CLI
subcommand.

Every spec writes ``scenario-spec/v2``, which carries the
``app``/``network``/``topology`` fields.  The flattened
``scenario-spec/v1`` documents older brake specs were saved as still
load (as the brake app with no topology).

:func:`run_scenario_spec` is the picklable worker the sweep engine fans
out, and the only way a seed runs: ``SweepRunner().run_spec(spec)``
sweeps it over the spec's seeds.  :func:`observe_spec` is its observed
form — one seed under :func:`repro.obs.capture`, returning the
observation (event bus, metrics, optional flows) beside the result —
used for ``observe=True``/``flows=True`` sweeps and for the CLI's
single-run trace and metrics exports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.dear.stp import StpConfig
from repro.faults.plan import FaultPlan
from repro.network.latency import (
    LatencyModel,
    latency_model_from_dict,
    latency_model_to_dict,
)
from repro.network.switch import SwitchConfig
from repro.network.topology import TopologySpec

__all__ = [
    "NetworkSpec",
    "ScenarioSpec",
    "latency_model_to_dict",
    "latency_model_from_dict",
    "observe_spec",
    "run_scenario_spec",
]

@dataclass(frozen=True)
class NetworkSpec:
    """The network half of a spec, nested (``scenario-spec/v2``).

    Carries exactly the :class:`SwitchConfig` knobs a spec may
    override; ``None`` latency models mean "scenario-derived default"
    (constant under ``deterministic_camera``, stock otherwise).
    """

    latency: LatencyModel | None = None
    loopback_latency: LatencyModel | None = None
    in_order: bool = True
    drop_probability: float = 0.0
    ns_per_byte: int = 8

    def to_dict(self) -> dict:
        return {
            "latency": (
                None if self.latency is None else latency_model_to_dict(self.latency)
            ),
            "loopback_latency": (
                None
                if self.loopback_latency is None
                else latency_model_to_dict(self.loopback_latency)
            ),
            "in_order": self.in_order,
            "drop_probability": self.drop_probability,
            "ns_per_byte": self.ns_per_byte,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkSpec":
        return cls(
            latency=(
                None
                if data.get("latency") is None
                else latency_model_from_dict(data["latency"])
            ),
            loopback_latency=(
                None
                if data.get("loopback_latency") is None
                else latency_model_from_dict(data["loopback_latency"])
            ),
            in_order=data.get("in_order", True),
            drop_probability=data.get("drop_probability", 0.0),
            ns_per_byte=data.get("ns_per_byte", 8),
        )


def _app_definition(name: str):
    from repro.apps import registry

    return registry.get(name)


@dataclass(frozen=True, kw_only=True)
class ScenarioSpec:
    """Everything one experiment needs, as one frozen value.

    Attributes:
        app: which registered application runs (``repro.apps.names()``).
        variant: which of the app's runners — classically ``"det"``
            (DEAR) or ``"nondet"`` (stock).
        seeds: the seeds to sweep, in order.
        scenario: the app's workload/timing configuration; ``None``
            means the app's default scenario.
        network: the nested :class:`NetworkSpec` (switch knobs).
        topology: optional :class:`TopologySpec` fabric override;
            ``None`` keeps the app's native fabric (the brake app's is
            the trivial single-switch world).
        stp: overrides the scenario's ``L``/``E`` bounds when set.
        observe: run each seed under :func:`repro.obs.capture` and
            attach the metrics snapshot to the result's
            ``fault_summary["metrics"]``.
        faults: the :class:`FaultPlan` to install; ``None`` defers to
            the app's default plan (fault-free for most apps, the crash
            window for the failover scenario).
        label: free-form experiment label (cache/report naming).
    """

    app: str = "brake"
    variant: str = "det"
    seeds: tuple[int, ...] = (0,)
    scenario: Any = None
    network: NetworkSpec = field(default_factory=NetworkSpec)
    topology: TopologySpec | None = None
    stp: StpConfig | None = None
    observe: bool = False
    faults: FaultPlan | None = None
    label: str = ""

    def __post_init__(self) -> None:
        definition = _app_definition(self.app)
        if self.variant not in definition.variants():
            raise ValueError(
                f"variant must be one of {list(definition.variants())} "
                f"for app {self.app!r}, got {self.variant!r}"
            )
        if self.scenario is None:
            object.__setattr__(self, "scenario", definition.default_scenario())
        seeds = tuple(self.seeds)
        if not seeds:
            raise ValueError("a spec needs at least one seed")
        object.__setattr__(self, "seeds", seeds)

    # -- derived configuration ---------------------------------------------

    def definition(self):
        """The spec's :class:`~repro.apps.AppDefinition`."""
        return _app_definition(self.app)

    def effective_scenario(self) -> Any:
        """The scenario with the spec's STP bounds applied."""
        if self.stp is None:
            return self.scenario
        return replace(
            self.scenario,
            latency_bound_ns=self.stp.latency_bound_ns,
            clock_error_ns=self.stp.clock_error_ns,
        )

    def effective_faults(self) -> FaultPlan | None:
        """The fault plan to install: explicit, else the app default."""
        if self.faults is not None:
            return self.faults
        return self.definition().faults_for(self.effective_scenario())

    def switch_config(self) -> SwitchConfig | None:
        """The network configuration, or ``None`` for the stock default.

        Any :class:`LatencyModel` plugs in here — this replaces the old
        pattern of drivers hand-building :class:`SwitchConfig` objects.
        The "is everything default" test compares against
        :class:`NetworkSpec`'s own defaults instead of repeating them.
        """
        from repro.apps.world import SEED_FIXED_SWITCH, is_seed_fixed

        if self.network == NetworkSpec() and self.topology is None:
            return None
        default = SwitchConfig()
        if is_seed_fixed(self.scenario):
            default = SEED_FIXED_SWITCH
        return SwitchConfig(
            latency=self.network.latency or default.latency,
            loopback_latency=self.network.loopback_latency or default.loopback_latency,
            in_order=self.network.in_order,
            drop_probability=self.network.drop_probability,
            ns_per_byte=self.network.ns_per_byte,
            topology=self.topology,
        )

    def sweep_name(self) -> str:
        """Cache/report identity of this spec's sweep.

        ``spec-<variant>`` for the brake app, ``spec-<app>-<variant>``
        otherwise, or the spec's label when it has one.  The name is
        not part of a result's cache key (see
        :func:`~repro.harness.sweep.spec_record_key`).
        """
        if self.label:
            return self.label
        if self.app == "brake":
            return f"spec-{self.variant}"
        return f"spec-{self.app}-{self.variant}"

    def with_seeds(self, seeds) -> "ScenarioSpec":
        return replace(self, seeds=tuple(seeds))

    # -- execution ----------------------------------------------------------

    def run_one(self, seed: int, fault_replay=None):
        """Run a single seed of this spec (inline, no sweep engine)."""
        return run_scenario_spec(seed, self, fault_replay=fault_replay)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON form, ``scenario-spec/v2``."""
        return {
            "format": "scenario-spec/v2",
            "app": self.app,
            "variant": self.variant,
            "seeds": list(self.seeds),
            "scenario": self.definition().dump_scenario(self.scenario),
            "network": self.network.to_dict(),
            "topology": None if self.topology is None else self.topology.to_dict(),
            "stp": (
                None
                if self.stp is None
                else {
                    "latency_bound_ns": self.stp.latency_bound_ns,
                    "clock_error_ns": self.stp.clock_error_ns,
                }
            ),
            "observe": self.observe,
            "faults": None if self.faults is None else self.faults.to_dict(),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        fmt = data.get("format")
        if fmt == "scenario-spec/v1":
            app = "brake"
            network = NetworkSpec.from_dict(data)
            topology = None
        elif fmt == "scenario-spec/v2":
            app = data.get("app", "brake")
            network = NetworkSpec.from_dict(data.get("network") or {})
            topology = (
                None
                if data.get("topology") is None
                else TopologySpec.from_dict(data["topology"])
            )
        else:
            raise ValueError(f"not a scenario spec: {fmt!r}")
        definition = _app_definition(app)
        return cls(
            app=app,
            variant=data.get("variant", "det"),
            seeds=tuple(data.get("seeds", (0,))),
            scenario=definition.load_scenario(data.get("scenario", {})),
            network=network,
            topology=topology,
            stp=None if data.get("stp") is None else StpConfig(**data["stp"]),
            observe=data.get("observe", False),
            faults=(
                None
                if data.get("faults") is None
                else FaultPlan.from_dict(data["faults"])
            ),
            label=data.get("label", ""),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        return cls.from_json(Path(path).read_text())


def _execute(
    seed: int,
    spec: ScenarioSpec,
    fault_replay=None,
    fault_universe=None,
    fault_checkpointer=None,
):
    """One seed of *spec* through the app registry, unobserved."""
    return spec.definition().runner(spec.variant)(
        seed,
        spec.effective_scenario(),
        switch_config=spec.switch_config(),
        fault_plan=spec.effective_faults(),
        fault_replay=fault_replay,
        fault_universe=fault_universe,
        fault_checkpointer=fault_checkpointer,
    )


def observe_spec(seed: int, spec: ScenarioSpec, flows: bool = False, **seams):
    """Run one seed of *spec* under :func:`repro.obs.capture`.

    Returns ``(observation, result)``: the observation holds the event
    bus (for the trace export), the metrics registry and — with
    *flows* — the causal flow registry.  *seams* are the fault-replay
    keywords of :func:`run_scenario_spec`.  Observation never changes
    the result: logical trace fingerprints match the unobserved run.
    """
    from repro.obs.context import capture

    with capture(flows=flows) as observation:
        result = _execute(seed, spec, **seams)
    return observation, result


def run_scenario_spec(
    seed: int,
    spec: ScenarioSpec,
    fault_replay=None,
    fault_universe=None,
    fault_checkpointer=None,
    *,
    flows: bool = False,
):
    """Picklable sweep worker: one seed of *spec*.

    Dispatches through :mod:`repro.apps.registry` — any registered
    app/variant runs through this single path.  Returns the runner's
    :class:`BrakeRunResult`-shaped value.  With ``spec.observe`` or
    *flows* the seed runs through :func:`observe_spec` and its metrics
    snapshot lands in ``result.fault_summary["metrics"]`` (the per-run
    digest channel that survives pickling); *flows* also captures the
    per-frame flows and adds their ``flow-report/v1`` as
    ``fault_summary["flows"]``.  Flow capture costs time and report
    size, so ``observe`` alone leaves it off.  *fault_universe* and
    *fault_checkpointer* feed the snapshot engine's fault-replay seam
    (see :mod:`repro.snapshot`).
    """
    if not (spec.observe or flows):
        return _execute(
            seed, spec, fault_replay, fault_universe, fault_checkpointer
        )
    observation, result = observe_spec(
        seed,
        spec,
        flows,
        fault_replay=fault_replay,
        fault_universe=fault_universe,
        fault_checkpointer=fault_checkpointer,
    )
    digest = dict(result.fault_summary or {})
    digest["metrics"] = observation.metrics.snapshot()
    if flows:
        from repro.obs.flows import flow_report

        digest["flows"] = flow_report(observation.flows)
    return replace(result, fault_summary=digest)
