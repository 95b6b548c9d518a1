"""Shared plumbing of the scenario library.

Every library app builds its world the same way — a
:class:`~repro.network.topology.TopologySpec` fabric, one platform +
NIC + SD daemon per node, an optional fault plan — and reports results
in the same :class:`~repro.apps.brake.instrumentation.BrakeRunResult`
shape the whole harness (sweeps, observed runs, CLI reports,
``outcome_digest``) already consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.network import ConstantLatency, NetworkInterface, Switch, SwitchConfig
from repro.network.topology import TopologySpec
from repro.obs import context as obs_context
from repro.sim import World
from repro.sim.platform import MINNOWBOARD, PlatformConfig
from repro.someip import SdDaemon
from repro.time.clock import ClockModel
from repro.time.duration import US

__all__ = [
    "SinkCommand",
    "PipelineErrors",
    "build_library_world",
    "library_platform_config",
    "library_switch_config",
    "begin_flow",
    "deliver_flow",
    "drop_flow",
    "random_offset",
    "spike",
]


#: Calm but parallel: MINNOWBOARD's core count with every jitter source
#: removed.  A single calm core would serialize subscriber callbacks
#: behind running reactions, making physical-action tags depend on
#: (seed-sampled) execution times — exactly what ``deterministic_inputs``
#: must avoid.  Dispatch is FIFO so that two tasks waking at the same
#: instant (e.g. an SD cyclic offer colliding with a publish tick) hit
#: the wire in seed-independent order.
CALM_QUAD = PlatformConfig(
    num_cores=MINNOWBOARD.num_cores,
    clock=ClockModel.perfect(),
    dispatch_jitter_ns=0,
    timer_jitter_ns=0,
    deterministic_dispatch=True,
)


def library_platform_config(scenario) -> PlatformConfig:
    """Host config: calm (jitter-free) when inputs must be seed-fixed."""
    if getattr(scenario, "deterministic_inputs", False):
        return CALM_QUAD
    return MINNOWBOARD


def library_switch_config(scenario, switch_config):
    """The app-default network when the caller supplied none.

    Under ``deterministic_inputs`` the links get constant latencies —
    the same defaults the brake world uses for ``deterministic_camera``
    — so physical arrival times (and with them every physical-action
    tag) are identical across world seeds.
    """
    if switch_config is not None:
        return switch_config
    if getattr(scenario, "deterministic_inputs", False):
        return SwitchConfig(
            latency=ConstantLatency(300 * US),
            loopback_latency=ConstantLatency(50 * US),
        )
    return None


@dataclass(frozen=True)
class SinkCommand:
    """A library pipeline's per-sequence output.

    Field-compatible with the brake command as far as
    :meth:`BrakeRunResult.outcome_digest` reads it
    (``frame_seq`` / ``brake`` / ``intensity``): ``brake`` doubles as
    "the sink acted on this sample", ``intensity`` as its scalar output.
    """

    frame_seq: int
    brake: bool
    intensity: float


#: Library counterpart of the brake ``ERROR_TYPES`` legend.
LIB_ERROR_TYPES = (
    "dropped_input",
    "mismatched_inputs",
    "stale_publishes",
)


@dataclass
class PipelineErrors:
    """Error counters of a library pipeline (duck-types ``ErrorCounters``)."""

    #: Unread items overwritten in one-slot input buffers.
    dropped_input: int = 0
    #: Fan-in groups discarded because sequences were misaligned.
    mismatched_inputs: int = 0
    #: Samples published while no subscriber was live (failover gaps).
    stale_publishes: int = 0

    def total(self) -> int:
        return self.dropped_input + self.mismatched_inputs + self.stale_publishes

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in LIB_ERROR_TYPES}


def build_library_world(
    seed: int,
    hosts: list[tuple[str, PlatformConfig]],
    topology: TopologySpec,
    switch_config: SwitchConfig | None = None,
    fault_plan=None,
    fault_replay=None,
    fault_universe=None,
    fault_checkpointer=None,
) -> World:
    """One fabric, one platform + NIC + SD daemon per topology node.

    *switch_config* (from ``ScenarioSpec``) may already carry a
    topology; when it does not, the app's native *topology* is embedded
    so CLI-supplied network knobs compose with the app's fabric.
    """
    world = World(seed)
    if switch_config is None:
        switch_config = SwitchConfig(topology=topology)
    elif switch_config.topology is None:
        switch_config = replace(switch_config, topology=topology)
    switch = Switch(world.sim, world.rng.stream("net"), switch_config)
    world.attach_network(switch)
    for host, config in hosts:
        platform = world.add_platform(host, config)
        nic = NetworkInterface(platform, switch)
        SdDaemon(platform, nic)
    if fault_plan is not None and not fault_plan.is_empty:
        from repro.faults import install_fault_plan

        install_fault_plan(
            world,
            fault_plan,
            replay=fault_replay,
            universe=fault_universe,
            checkpointer=fault_checkpointer,
        )
    return world


def begin_flow(seq: int, now: int):
    """Open flow *seq* (or re-enter it if another producer opened it).

    Returns the flow registry while tracing is active, else ``None``;
    callers pair this with ``flows.restore_current(None)`` after the
    send, exactly like the brake camera.
    """
    o = obs_context.ACTIVE
    flows = o.flows if o.enabled else None
    if flows is None:
        return None
    if flows.known(seq):
        # A second producer of the same sequence (failover overlap):
        # keep the original record, just make the flow current so the
        # send's hops land on it.
        flows.swap_current(seq)
    else:
        flows.begin(seq, now)
    return flows


def deliver_flow(seq: int, now: int) -> None:
    """Mark flow *seq* delivered at the pipeline sink."""
    o = obs_context.ACTIVE
    if o.enabled and o.flows is not None:
        o.flows.deliver(seq, now)


def drop_flow(seq: int, layer: str, cause: str, now: int) -> None:
    """Attribute flow *seq*'s loss to ``(layer, cause)``."""
    from repro.obs.flows import attribute_drop

    o = obs_context.ACTIVE
    if o.enabled:
        attribute_drop(o, layer, cause, now, flow_id=seq)


def random_offset(world: World, name: str, period_ns: int) -> int:
    """Deterministic per-task phase within the period (own RNG stream)."""
    return world.rng.stream(f"offset.{name}").randint(0, period_ns - 1)


def spike(world: World, name: str, probability: float, max_ns: int) -> int:
    """Occasional extra latency of a periodic callback (OS hiccup)."""
    rng = world.rng.stream(f"spike.{name}")
    if probability > 0.0 and rng.random() < probability:
        return rng.randint(0, max_ns)
    return 0
