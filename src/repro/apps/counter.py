"""The Figure 1 client/server application (the ``counter`` app).

The paper opens with this example: a client manipulates a server-side
state variable through non-blocking method calls::

    s.set_value(1);  s.add(2);  result = s.get_value();

The server enforces mutual exclusion between method executions, but the
AP runtime maps each invocation to its own thread, so the *order* of
the three operations is up to the thread scheduler and the printed
result is one of {0, 1, 2, 3} (Figure 1's histogram).

:func:`run_nondet` reproduces that app on the stock AP stack;
:func:`run_det` is the DEAR version, where the client fires the same
three calls (still without waiting for results) as tagged reactor
events 1 ms apart and tag-order processing makes the result always 3.
Both are registry runners: they return a ``BrakeRunResult`` with one
``SinkCommand`` per round whose ``intensity`` is the printed value
(:func:`printed_values` reads them back).  :class:`CounterScenario`
toggles Section II.B's sources 1 and 2; source 3, unordered transport,
is the spec's ``NetworkSpec(latency=COUNTER_LATENCY, in_order=False)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.apps.brake.instrumentation import BrakeRunResult
from repro.apps.lib.common import SinkCommand, begin_flow, deliver_flow
from repro.apps.world import build_world, transactor_config
from repro.ara import AraProcess, Method, MethodCallProcessingMode, ServiceInterface
from repro.dear import (
    MethodCall,
    MethodReturn,
    generate_client_transactors,
    generate_server_transactors,
)
from repro.network import SwitchConfig, UniformLatency
from repro.reactors import Environment, Reactor
from repro.sim import SleepUntil
from repro.sim.platform import PlatformConfig
from repro.someip.serialization import INT32
from repro.time import MS, SEC

#: Platform model for this app: thread-wakeup variance (hundreds of µs on
#: a loaded Atom board) well above the µs-scale spacing of back-to-back
#: SOME/IP messages — the regime in which Figure 1's histogram arises.
FIGURE1_PLATFORM = PlatformConfig(
    num_cores=4, dispatch_jitter_ns=400_000, timer_jitter_ns=500_000
)

#: A quiet switched LAN: latency variation well below the thread
#: dispatch jitter, so the server-side scheduler — not the network —
#: decides the processing order, as in the paper's analysis.
COUNTER_LATENCY = UniformLatency(180_000, 260_000)

COUNTER_INTERFACE = ServiceInterface(
    name="Counter",
    service_id=0x00C0,
    methods=[
        Method("set_value", 0x0001, arguments=[("value", INT32)]),
        Method("add", 0x0002, arguments=[("amount", INT32)]),
        Method("get_value", 0x0003, returns=[("value", INT32)]),
    ],
)

#: One round, in order: method -> (DEAR timer offset, call arguments).
ROUND = {
    "set_value": (10 * MS, {"value": 1}),
    "add": (11 * MS, {"amount": 2}),
    "get_value": (12 * MS, {}),
}
#: The value the client means to print: ``set_value(1); add(2)``.
INTENDED_VALUE = 3
#: Spacing of successive rounds.
ROUND_PERIOD_NS = 100 * MS


@dataclass(frozen=True)
class CounterScenario:
    """One counter experiment.

    Each of the ``n_frames`` rounds is one ``set_value(1); add(2);
    get_value()`` sequence, ``ROUND_PERIOD_NS`` after the previous one,
    and prints once.  ``processing_mode`` is the server skeleton's
    :class:`~repro.ara.MethodCallProcessingMode` value (``"event"``:
    thread per invocation, source 1 on).  With ``two_clients`` the
    ``add`` comes from a second client on its own ECU (source 2).
    ``deadline_ns`` is every DEAR transactor's deadline;
    ``latency_bound_ns``/``clock_error_ns`` are the STP bounds ``L``
    and ``E`` (what a spec's ``stp`` overrides).
    """

    n_frames: int = 1
    processing_mode: str = MethodCallProcessingMode.EVENT.value
    two_clients: bool = False
    deadline_ns: int = 5 * MS
    latency_bound_ns: int = 10 * MS
    clock_error_ns: int = 0

    def horizon_ns(self) -> int:
        """Simulated time the stock client gets to finish every round."""
        return 5 * SEC + (self.n_frames - 1) * ROUND_PERIOD_NS

    def clients(self) -> list[tuple[str, str, tuple[str, ...]]]:
        """``(host, process, methods)`` of every client; the first prints."""
        if not self.two_clients:
            return [("client-ecu", "client", tuple(ROUND))]
        return [
            ("client-ecu", "client", ("set_value", "get_value")),
            ("client2-ecu", "client2", ("add",)),
        ]


@dataclass
class CounterErrors:
    """Rounds that went wrong (duck-types ``ErrorCounters``)."""

    #: Rounds that printed something other than :data:`INTENDED_VALUE`.
    wrong_value: int = 0
    #: Rounds whose ``get_value`` never returned.
    unanswered: int = 0

    def total(self) -> int:
        return self.wrong_value + self.unanswered

    def as_dict(self) -> dict[str, int]:
        return {"wrong_value": self.wrong_value, "unanswered": self.unanswered}


def printed_values(result: BrakeRunResult) -> list[int]:
    """The value each round printed; raises if a round never printed."""
    if len(result.commands) < result.n_frames:
        raise RuntimeError(
            f"counter client of seed {result.seed} printed "
            f"{len(result.commands)} of {result.n_frames} rounds"
        )
    return [result.commands[index].intensity for index in range(result.n_frames)]


class _Counter:
    """The server's state variable behind its three atomic operations."""

    def __init__(self):
        self.value = 0

    def set_value(self, value):
        self.value = value

    def add(self, amount):
        self.value += amount

    def get_value(self):
        return self.value


def _world(seed, scenario, switch_config, fault_plan, seams):
    hosts = ["server-ecu"] + [host for host, _, _ in scenario.clients()]
    return build_world(
        seed,
        [(host, FIGURE1_PLATFORM) for host in hosts],
        switch_config or SwitchConfig(latency=COUNTER_LATENCY),
        fault_plan=fault_plan,
        **seams,
    )


def _result(seed, scenario, world, printed, **dear) -> BrakeRunResult:
    return BrakeRunResult(
        seed=seed,
        n_frames=scenario.n_frames,
        errors=CounterErrors(
            wrong_value=sum(value != INTENDED_VALUE for value in printed.values()),
            unanswered=scenario.n_frames - len(printed),
        ),
        commands={
            index: SinkCommand(index, True, value)
            for index, value in sorted(printed.items())
        },
        fault_summary=(
            None if world.fault_injector is None else world.fault_injector.summary()
        ),
        **dear,
    )


def run_nondet(
    seed: int,
    scenario: CounterScenario | None = None,
    switch_config: SwitchConfig | None = None,
    fault_plan=None,
    **seams,
) -> BrakeRunResult:
    """Run the paper's Figure 1 client on the stock AP stack.

    *seams* are the registry's fault-replay keywords, passed through to
    :func:`repro.apps.world.build_world`.
    """
    scenario = scenario or CounterScenario()
    world = _world(seed, scenario, switch_config, fault_plan, seams)
    counter = _Counter()
    skeleton = AraProcess(world.platform("server-ecu"), "server").create_skeleton(
        COUNTER_INTERFACE,
        1,
        processing_mode=MethodCallProcessingMode(scenario.processing_mode),
    )
    for method in ROUND:
        skeleton.implement(method, getattr(counter, method))
    skeleton.offer()
    printed: dict[int, int] = {}

    def client(process, methods, prints):
        proxy = yield from process.find_service(COUNTER_INTERFACE, 1)
        start = process.platform.local_now()
        for index in range(scenario.n_frames):
            if index:
                yield SleepUntil(start + index * ROUND_PERIOD_NS)
            # The naive client: non-blocking calls, only the last future
            # is awaited — exactly the code in Figure 1.
            flows = begin_flow(index, world.sim.now) if prints else None
            for method in methods:
                future = proxy.call(method, **ROUND[method][1])
            if flows is not None:
                flows.restore_current(None)
            if prints:
                printed[index] = yield from future.get()
                deliver_flow(index, world.sim.now)

    for index, (host, name, methods) in enumerate(scenario.clients()):
        process = AraProcess(world.platform(host), name)
        process.spawn("main", client(process, methods, prints=index == 0))
    world.run_for(scenario.horizon_ns())
    return _result(seed, scenario, world, printed)


class _CounterLogic(Reactor):
    """Deterministic server logic behind the three method transactors."""

    def __init__(self, name, owner):
        super().__init__(name, owner)
        self.counter = _Counter()
        self.ports = {}
        for method in ROUND:
            inp, out = self.input(f"{method}_in"), self.output(f"{method}_out")
            self.ports[method] = (inp, out)
            self.reaction(
                f"on_{method}", triggers=[inp], effects=[out],
                body=partial(self._serve, method, inp, out),
            )

    def _serve(self, method, inp, out, ctx):
        call: MethodCall = ctx.get(inp)
        operation = getattr(self.counter, method)
        result = operation() if call.arguments is None else operation(call.arguments)
        ctx.set(out, MethodReturn(call.call_id, result))


class _CounterClientLogic(Reactor):
    """Fires its share of every round as tagged events 1 ms apart.

    One request per method and round, ``ROUND_PERIOD_NS`` apart, never
    waiting for a result.  A client that sends ``get_value`` opens one
    flow per round and stops once every round printed; one that does
    not stops after its last round.
    """

    def __init__(self, name, owner, methods, rounds: int, sim):
        super().__init__(name, owner)
        self.rounds = rounds
        self.requests = {}
        self.printed: dict[int, int] = {}
        self._sim = sim
        self._prints = "get_value" in methods
        self._sent = 0
        for method in methods:
            offset, arguments = ROUND[method]
            port = self.output(f"{method}_req")
            timer = self.timer(f"t_{method}", offset=offset, period=ROUND_PERIOD_NS)
            self.requests[method] = port
            argument = next(iter(arguments.values()), None)
            first, last = method == methods[0], method == methods[-1]
            self.reaction(
                f"send_{method}", triggers=[timer], effects=[port],
                body=partial(self._send, port, argument, first, last),
            )
        self.get_res = self.input("get_res")
        self.reaction("on_result", triggers=[self.get_res], body=self._on_result)

    def _send(self, port, argument, first, last, ctx):
        if self._sent < self.rounds:
            if first and self._prints:
                flows = begin_flow(self._sent, self._sim.now)
                if flows is not None:
                    flows.restore_current(None)
            ctx.set(port, argument)
            self._sent += last
        elif not self._prints:
            ctx.request_stop()

    def _on_result(self, ctx):
        index = len(self.printed)
        self.printed[index] = ctx.get(self.get_res).value
        deliver_flow(index, self._sim.now)
        if index + 1 == self.rounds:
            ctx.request_stop()


def run_det(
    seed: int,
    scenario: CounterScenario | None = None,
    switch_config: SwitchConfig | None = None,
    fault_plan=None,
    **seams,
) -> BrakeRunResult:
    """Run the DEAR (deterministic) counter application."""
    scenario = scenario or CounterScenario()
    world = _world(seed, scenario, switch_config, fault_plan, seams)
    config = transactor_config(scenario, scenario.deadline_ns)
    timeout = scenario.horizon_ns()
    server = world.platform("server-ecu")
    server_process = AraProcess(server, "server", tag_aware=True)
    server_env = Environment(name="counter-server", timeout=timeout)
    skeleton = server_process.create_skeleton(
        COUNTER_INTERFACE,
        1,
        processing_mode=MethodCallProcessingMode(scenario.processing_mode),
    )
    binding = generate_server_transactors(server_env, server_process, skeleton, config)
    transactors = list(binding.methods.values())
    logic = _CounterLogic("logic", server_env)
    for method, (inp, out) in logic.ports.items():
        server_env.connect(binding.methods[method].request_out, inp)
        server_env.connect(out, binding.methods[method].response_in)
    skeleton.offer()
    server_env.start(server)

    environments, clients = [server_env], []
    for host, name, methods in scenario.clients():
        platform = world.platform(host)
        process = AraProcess(platform, name, tag_aware=True)
        env = Environment(name=f"counter-{name}", timeout=timeout)
        client = _CounterClientLogic("logic", env, methods, scenario.n_frames, world.sim)
        environments.append(env)
        clients.append(client)

        def setup(process=process, env=env, platform=platform, client=client):
            proxy = yield from process.find_service(COUNTER_INTERFACE, 1)
            client_binding = generate_client_transactors(env, process, proxy, config)
            transactors.extend(client_binding.methods.values())
            for method, port in client.requests.items():
                env.connect(port, client_binding.methods[method].request)
            env.connect(client_binding.methods["get_value"].response, client.get_res)
            env.start(platform)

        process.spawn("setup", setup())
    world.run_for(timeout + 5 * SEC)
    return _result(
        seed,
        scenario,
        world,
        clients[0].printed,
        trace_fingerprints={env.name: env.trace.fingerprint() for env in environments},
        deadline_misses=sum(t.deadline_misses for t in transactors),
        stp_violations=sum(t.stp_violations for t in transactors),
    )
