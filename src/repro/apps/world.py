"""The one way to build a networked SOME/IP world, and what apps share on it.

Every app and experiment driver that talks SOME/IP over a switch builds
its world with :func:`build_world`: one fabric, one platform + NIC + SD
daemon per host, an optional fault plan — always in that order, so the
RNG streams and the initial event queue of a world depend only on its
seed, host list and network configuration.  The module imports no app,
so any app (brake, the counter, the scenario library) and any driver
can use it without pulling in another app's registrations.  It also
holds what every app shares on such a world: a scenario's DEAR
:func:`transactor_config` and the seeded :func:`random_offset` and
:func:`spike` draws of periodic callbacks.
"""

from __future__ import annotations

from dataclasses import replace

from repro.dear import LatePolicy, StpConfig, TransactorConfig
from repro.network import ConstantLatency, NetworkInterface, Switch, SwitchConfig
from repro.network.topology import TopologySpec
from repro.sim import World
from repro.sim.platform import PlatformConfig
from repro.someip import SdDaemon
from repro.time.duration import US

__all__ = [
    "SEED_FIXED_SWITCH",
    "build_world",
    "is_seed_fixed",
    "random_offset",
    "seed_fixed",
    "spike",
    "transactor_config",
]

#: The default network of a scenario that holds its inputs fixed across
#: world seeds (see :func:`seed_fixed`): constant link latencies, so
#: physical arrival times — and with them every physical-action tag — do
#: not depend on the seed.
SEED_FIXED_SWITCH = SwitchConfig(
    latency=ConstantLatency(300 * US), loopback_latency=ConstantLatency(50 * US)
)

#: The scenario fields that hold an app's inputs fixed across world
#: seeds: brake's ``deterministic_camera``, the library's
#: ``deterministic_inputs``.  The counter has neither.
_SEED_FIXED_FIELDS = ("deterministic_camera", "deterministic_inputs")


def seed_fixed(scenario):
    """*scenario* with its inputs held fixed across world seeds.

    Raises :class:`ValueError` when the scenario has no such field.
    """
    for name in _SEED_FIXED_FIELDS:
        if hasattr(scenario, name):
            return replace(scenario, **{name: True})
    raise ValueError(f"has no seed-fixed inputs ({' or '.join(_SEED_FIXED_FIELDS)})")


def is_seed_fixed(scenario) -> bool:
    """Whether *scenario* holds its inputs fixed across world seeds."""
    return any(getattr(scenario, name, False) for name in _SEED_FIXED_FIELDS)


def build_world(
    seed: int,
    hosts: list[tuple[str, PlatformConfig]],
    switch_config: SwitchConfig | None = None,
    topology: TopologySpec | None = None,
    fault_plan=None,
    fault_replay=None,
    fault_universe=None,
    fault_checkpointer=None,
) -> World:
    """One fabric, one platform + NIC + SD daemon per host, in order.

    *switch_config* (from ``ScenarioSpec`` or the app's default) may
    already carry a topology; when it does not, the app's native
    *topology* is embedded so spec-supplied network knobs compose with
    the app's fabric.  *fault_plan* installs a
    :class:`~repro.faults.FaultPlan` (optionally replaying a recorded
    fault trace *fault_replay*) before any traffic flows.
    """
    world = World(seed)
    if switch_config is None:
        switch_config = SwitchConfig(topology=topology)
    elif topology is not None and switch_config.topology is None:
        switch_config = replace(switch_config, topology=topology)
    switch = Switch(world.sim, world.rng.stream("net"), switch_config)
    world.attach_network(switch)
    for host, config in hosts:
        platform = world.add_platform(host, config)
        SdDaemon(platform, NetworkInterface(platform, switch))
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


def transactor_config(scenario, deadline_ns: int) -> TransactorConfig:
    """A DEAR transactor's config: *deadline_ns* and *scenario*'s bounds.

    Reads ``latency_bound_ns``/``clock_error_ns`` (``L``/``E``, what a
    spec's ``stp`` overrides) and, when the scenario has one, its
    ``late_policy``.
    """
    return TransactorConfig(
        deadline_ns=deadline_ns,
        stp=StpConfig(
            latency_bound_ns=scenario.latency_bound_ns,
            clock_error_ns=scenario.clock_error_ns,
        ),
        late_policy=LatePolicy(getattr(scenario, "late_policy", "process")),
    )


def random_offset(world: World, name: str, period_ns: int) -> int:
    """Deterministic per-task phase within the period (own RNG stream)."""
    return world.rng.stream(f"offset.{name}").randint(0, period_ns - 1)


def spike(world: World, name: str, probability: float, max_ns: int) -> int:
    """Occasional extra latency of a periodic callback (OS hiccup)."""
    rng = world.rng.stream(f"spike.{name}")
    if probability > 0.0 and rng.random() < probability:
        return rng.randint(0, max_ns)
    return 0
