"""Extension experiments beyond the paper's evaluation.

The paper evaluates on one demonstrator with both processing SWCs on a
single platform (``E = 0``) and fixed deadlines.  These experiments
probe the parts of the design the paper only argues about:

* :func:`clock_skew_sweep` — the role of the clock-synchronization
  error bound ``E`` in ``t + D + L + E``: under-estimating the actual
  skew produces (counted) safe-to-process violations, covering it
  restores clean tag-order delivery;
* :func:`pipeline_scaling` — end-to-end logical latency of a DEAR
  event chain as a function of pipeline depth: exactly
  ``depth x (D + L + E)`` per the composition rule, confirming the
  latency model used in Section IV.B generalizes;
* the **native tag transport** (SOME/IP protocol v2 — the standard
  extension the paper's conclusion advocates) is exercised by
  :func:`native_transport_comparison`, which checks behavioural
  equivalence and measures the wire-size saving over the trailer
  workaround.

All three run one DEAR pulse chain (:func:`_run_pulse_chain`) on a
world from :func:`repro.apps.world.build_world`.  They stay drivers
rather than registry apps: each is a fixed seed-0 sweep over
configurations (skew/``E`` pairs, depths, tag encodings) with no stock
variant, so a seed sweep over a ``ScenarioSpec`` has nothing to vary.
A spec's STP bounds still apply where they mean something.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from repro.analysis.report import render_table
from repro.apps.world import build_world
from repro.harness.config import ScenarioSpec
from repro.harness.sweep import SweepRunner
from repro.ara import AraProcess, Event, Method, ServiceInterface
from repro.dear import (
    ClientEventTransactor,
    ServerEventTransactor,
    StpConfig,
    TransactorConfig,
)
from repro.network import ConstantLatency, SwitchConfig
from repro.reactors import Environment, Reactor
from repro.sim.platform import CALM
from repro.someip.serialization import INT32
from repro.time import ClockModel, MS, SEC

#: Constant 1 ms links, no serialization delay: every latency the
#: chain shows is the DEAR arithmetic, not the network.
PULSE_SWITCH = SwitchConfig(
    latency=ConstantLatency(1 * MS),
    loopback_latency=ConstantLatency(100_000),
    ns_per_byte=0,
)


def _pulse_interface(service_id: int, name: str = "Pulse") -> ServiceInterface:
    return ServiceInterface(
        name, service_id,
        methods=[Method("noop", 1)],
        events=[Event("pulse", 0x8001, data=[("n", INT32)])],
    )


class _Publisher(Reactor):
    """Publishes 1..count every *period*; records each pulse's send tag."""

    def __init__(self, name, owner, count, period=20 * MS, offset=400 * MS):
        super().__init__(name, owner)
        self.out = self.output("out")
        tick = self.timer("tick", offset=offset, period=period)
        self.n = 0
        self.sent: dict[int, int] = {}

        def fire(ctx):
            if self.n < count:
                self.n += 1
                self.sent[self.n] = ctx.tag.time
                ctx.set(self.out, self.n)

        self.reaction("fire", triggers=[tick], effects=[self.out], body=fire)


class _Subscriber(Reactor):
    """Records ``(tag, value)`` of every pulse; *forward* passes it on.

    A *ticking* subscriber also advances its own logical time every
    millisecond, so pulses released after that time are STP violations.
    """

    def __init__(self, name, owner, ticking=True, forward=False):
        super().__init__(name, owner)
        self.inp = self.input("inp")
        self.received = []
        if ticking:
            self.timer("local", offset=0, period=1 * MS)
        effects = []
        if forward:
            self.out = self.output("out")
            effects.append(self.out)

        def recv(ctx):
            value = ctx.get(self.inp)
            if forward:
                ctx.set(self.out, value)
            else:
                self.received.append((ctx.tag, value))

        self.reaction("recv", triggers=[self.inp], effects=effects, body=recv)


@dataclass
class _PulseChain:
    """What one run of :func:`_run_pulse_chain` observed."""

    #: pulse value -> tag time at which it left the source.
    sent: dict[int, int]
    #: ``(tag, value)`` of every pulse reaching the last hop.
    received: list
    #: STP violations over every hop's receiving transactor.
    stp_violations: int
    #: Logical trace fingerprint of the last hop's environment.
    fingerprint: str


def _run_pulse_chain(
    deadline_ns: int = 5 * MS,
    latency_bound_ns: int = 5 * MS,
    clock_error_ns: int = 0,
    depth: int = 1,
    count: int = 3,
    skew_ns: int = 0,
    ticking: bool = False,
    transport: str = "trailer",
) -> _PulseChain:
    """A DEAR event chain of *depth* SWC boundaries on a seed-0 world.

    Two calm ECUs, the second one's clock offset by *skew_ns*.  A source
    SWC on the first publishes *count* pulses; hop ``i`` is its own AP
    process and reactor program on the other ECU than hop ``i - 1``,
    subscribing to pulse service ``i`` through a client event transactor
    and (but for the last hop) republishing on service ``i + 1``
    through a server event transactor.
    """
    config = TransactorConfig(
        deadline_ns=deadline_ns,
        stp=StpConfig(
            latency_bound_ns=latency_bound_ns, clock_error_ns=clock_error_ns
        ),
    )
    hosts = [
        ("ecu-a", CALM),
        ("ecu-b", replace(CALM, clock=ClockModel(offset_ns=skew_ns))),
    ]
    world = build_world(0, hosts, PULSE_SWITCH)
    platforms = [world.platform(host) for host, _ in hosts]
    interfaces = [
        _pulse_interface(0x5300 + index, f"Hop{index}") for index in range(depth)
    ]
    receivers = []

    def stage(name, platform, upstream, downstream, logic):
        """One SWC: receive *upstream* into *logic*, publish on *downstream*."""
        process = AraProcess(platform, name, tag_aware=True, tag_transport=transport)
        env = logic.environment
        if downstream is not None:
            skeleton = process.create_skeleton(downstream, 1)
            skeleton.implement("noop", lambda: None)
            tx = ServerEventTransactor("tx", env, process, skeleton, "pulse", config)
            env.connect(logic.out, tx.inp)
            skeleton.offer()
        if upstream is None:
            env.start(platform)
            return

        def setup():
            proxy = yield from process.find_service(upstream, 1)
            rx = ClientEventTransactor("rx", env, process, proxy, "pulse", config)
            receivers.append(rx)
            env.connect(rx.out, logic.inp)
            env.start(platform)

        process.spawn("setup", setup())

    source = _Publisher(
        "publisher", Environment(name="source", timeout=3 * SEC), count
    )
    stage("source", platforms[0], None, interfaces[0], source)
    for index in range(depth):
        last = index == depth - 1
        logic = _Subscriber(
            "logic",
            Environment(name=f"hop{index}", timeout=3 * SEC, trace_origin=0),
            ticking=ticking,
            forward=not last,
        )
        stage(
            f"hop{index}",
            platforms[(index + 1) % len(platforms)],
            interfaces[index],
            None if last else interfaces[index + 1],
            logic,
        )
    world.run_for(6 * SEC)
    return _PulseChain(
        sent=source.sent,
        received=logic.received,
        stp_violations=sum(rx.stp_violations for rx in receivers),
        fingerprint=logic.environment.trace.fingerprint(),
    )


# ---------------------------------------------------------------------------
# EXT-SKEW — clock synchronization error.
# ---------------------------------------------------------------------------


@dataclass
class SkewPoint:
    """One (actual skew, assumed E) configuration."""

    actual_skew_ns: int
    assumed_error_ns: int
    stp_violations: int
    delivered: int
    in_order: bool


@dataclass
class ClockSkewResult:
    """The EXT-SKEW sweep."""

    points: list[SkewPoint]
    count: int

    def render(self) -> str:
        rows = [
            [
                f"{point.actual_skew_ns / 1e6:.0f} ms",
                f"{point.assumed_error_ns / 1e6:.0f} ms",
                str(point.stp_violations),
                f"{point.delivered}/{self.count}",
                "yes" if point.in_order else "NO",
            ]
            for point in self.points
        ]
        return render_table(
            ["actual skew", "assumed E", "STP violations", "delivered",
             "tag order kept"],
            rows,
            title="EXT-SKEW - clock-sync error bound E in t + D + L + E:",
        )


def _skew_point(
    configuration, count: int, latency_bound_ns: int = 2 * MS
) -> SkewPoint:
    """One (actual skew, assumed E) configuration (runs in a worker)."""
    actual_skew, assumed_error = configuration
    chain = _run_pulse_chain(
        latency_bound_ns=latency_bound_ns,
        clock_error_ns=assumed_error,
        count=count,
        skew_ns=actual_skew,
        ticking=True,
    )
    tags = [tag for tag, _ in chain.received]
    return SkewPoint(
        actual_skew_ns=actual_skew,
        assumed_error_ns=assumed_error,
        stp_violations=chain.stp_violations,
        delivered=len(chain.received),
        in_order=tags == sorted(tags),
    )


def clock_skew_sweep(
    configurations: list[tuple[int, int]] | None = None,
    count: int = 12,
    sweep: SweepRunner | None = None,
    spec: ScenarioSpec | None = None,
) -> ClockSkewResult:
    """Sweep (actual skew, assumed E) pairs over a two-ECU event chain.

    With *spec* carrying an :class:`StpConfig`, its ``L`` bound applies
    to every point and its ``E`` seeds the default configuration list.
    """
    latency_bound_ns = 2 * MS
    if spec is not None and spec.stp is not None:
        latency_bound_ns = spec.stp.latency_bound_ns
        if configurations is None:
            assumed = spec.stp.clock_error_ns
            configurations = [
                (0, assumed),
                (assumed, assumed),
                (2 * assumed + 10 * MS, assumed),
            ]
    if configurations is None:
        configurations = [
            (0, 0),
            (10 * MS, 0),
            (10 * MS, 12 * MS),
            (25 * MS, 12 * MS),
            (25 * MS, 30 * MS),
        ]
    sweep = sweep or SweepRunner()
    points = sweep.map(
        partial(_skew_point, count=count, latency_bound_ns=latency_bound_ns),
        configurations,
        name="ext-skew",
        params={"count": count, "latency_bound_ns": latency_bound_ns},
    )
    return ClockSkewResult(points, count)


# ---------------------------------------------------------------------------
# EXT-SCALE — pipeline depth vs. logical latency.
# ---------------------------------------------------------------------------


@dataclass
class ScalePoint:
    """One pipeline depth."""

    depth: int
    logical_latency_ns: int
    expected_ns: int


@dataclass
class PipelineScalingResult:
    """The EXT-SCALE sweep."""

    points: list[ScalePoint]
    hop_cost_ns: int

    def render(self) -> str:
        rows = [
            [
                str(point.depth),
                f"{point.logical_latency_ns / 1e6:.0f} ms",
                f"{point.expected_ns / 1e6:.0f} ms",
            ]
            for point in self.points
        ]
        return render_table(
            ["pipeline depth", "measured logical latency", "depth x (D+L+E)"],
            rows,
            title="EXT-SCALE - DEAR event-chain latency vs. depth:",
        )


def _scaling_point(
    depth: int, deadline_ns: int, latency_bound_ns: int
) -> ScalePoint:
    """One pipeline depth of the scaling sweep (runs in a worker)."""
    chain = _run_pulse_chain(deadline_ns, latency_bound_ns, depth=depth)
    if not chain.received or not chain.sent:
        raise RuntimeError(f"pipeline of depth {depth} produced no output")
    tag, value = chain.received[0]
    return ScalePoint(
        depth=depth,
        logical_latency_ns=tag.time - chain.sent[value],
        expected_ns=depth * (deadline_ns + latency_bound_ns),
    )


def pipeline_scaling(
    depths: list[int] | None = None,
    deadline_ns: int = 5 * MS,
    latency_bound_ns: int = 5 * MS,
    sweep: SweepRunner | None = None,
    spec: ScenarioSpec | None = None,
) -> PipelineScalingResult:
    """Measure logical end-to-end latency of DEAR chains of varying depth.

    Every hop is a full SWC boundary: its own AP process, service,
    server event transactor and (downstream) client event transactor,
    alternating between two ECUs so half the hops cross the network.
    With *spec* carrying an :class:`StpConfig`, its ``L`` bound is the
    per-hop latency bound.
    """
    if spec is not None and spec.stp is not None:
        latency_bound_ns = spec.stp.latency_bound_ns
    if depths is None:
        depths = [1, 2, 4, 6]
    sweep = sweep or SweepRunner()
    points = sweep.map(
        partial(
            _scaling_point,
            deadline_ns=deadline_ns,
            latency_bound_ns=latency_bound_ns,
        ),
        depths,
        name="ext-scale",
        params={"deadline_ns": deadline_ns, "latency_bound_ns": latency_bound_ns},
    )
    return PipelineScalingResult(points, deadline_ns + latency_bound_ns)


# ---------------------------------------------------------------------------
# EXT-NATIVE — the advocated standard extension vs. the workaround.
# ---------------------------------------------------------------------------


@dataclass
class NativeTransportResult:
    """Behavioural equivalence + wire cost of the two tag encodings."""

    behaviour_identical: bool
    trailer_bytes: int
    native_bytes: int

    def render(self) -> str:
        rows = [
            ["trailer (paper's workaround)", str(self.trailer_bytes)],
            ["native v2 field (proposed extension)", str(self.native_bytes)],
        ]
        table = render_table(
            ["tag encoding", "bytes per tagged message"],
            rows,
            title="EXT-NATIVE - standard extension vs. workaround:",
        )
        return table + (
            f"\n  behaviourally identical: {self.behaviour_identical}"
        )


def _run_encoding_chain(transport: str) -> str:
    """One pulse chain with the given tag encoding; returns its trace."""
    return _run_pulse_chain(count=4, transport=transport).fingerprint


def native_transport_comparison(
    sweep: SweepRunner | None = None,
) -> NativeTransportResult:
    """Compare the two tag encodings: behaviour and wire cost."""
    from repro.someip import MessageType, SomeIpHeader, SomeIpMessage
    from repro.someip.tagging import attach_tag
    from repro.time import Tag

    sweep = sweep or SweepRunner()
    trailer_trace, native_trace = sweep.map(
        _run_encoding_chain, ["trailer", "native"], name="ext-native"
    )
    behaviour_identical = trailer_trace == native_trace
    header = SomeIpHeader(
        service_id=1, method_id=0x8001, client_id=0, session_id=1,
        message_type=MessageType.NOTIFICATION,
    )
    payload = b"\x00" * 16
    tag = Tag(123 * MS, 0)
    trailer = SomeIpMessage(header, attach_tag(payload, tag)).size_bytes
    native = SomeIpMessage(header, payload, native_tag=tag).size_bytes
    return NativeTransportResult(
        behaviour_identical=behaviour_identical,
        trailer_bytes=trailer,
        native_bytes=native,
    )
