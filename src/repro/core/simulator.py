"""The synchronous round engine for BCC(b) executions.

The simulator is the paper's model made operational: a complete network of
``n`` vertices, each broadcasting at most ``b`` bits per round, with every
broadcast delivered to the other ``n - 1`` vertices through their port to
the sender. It records full per-vertex transcripts so lower-bound machinery
(active edges, edge labels, indistinguishability checks) can be computed on
real executions rather than abstract ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.algorithm import AlgorithmFactory, NodeAlgorithm
from repro.core.instance import BCCInstance
from repro.core.knowledge import InitialKnowledge
from repro.core.model import BCCModel
from repro.core.randomness import PublicCoin
from repro.core.transcript import RoundRecord, Transcript
from repro.costs.ledger import get_ledger, run_cost_summary
from repro.errors import SimulationError
from repro.obs.metrics import get_registry
from repro.obs.spans import get_recorder
from repro.obs.stream import get_bus

if TYPE_CHECKING:  # imported lazily to keep core free of resilience deps
    from repro.net.plan import NetworkEvent, NetworkPlan
    from repro.resilience.faults import FaultEvent, FaultPlan


@dataclass
class RunResult:
    """Everything observable about one execution.

    Attributes
    ----------
    instance:
        The instance that was executed.
    outputs:
        ``outputs[v]`` is vertex index v's output.
    transcripts:
        ``transcripts[v]`` is vertex index v's full transcript.
    rounds_executed:
        Number of rounds actually run (may be fewer than requested when
        every vertex reported ``finished()``).
    broadcast_history:
        ``broadcast_history[t - 1][v]`` is the message vertex v broadcast in
        round t. This global view belongs to the simulator/analyst, never to
        the nodes. Under fault injection this is the *on-channel* view: a
        crashed vertex's entry is the empty broadcast from its crash round
        onward, while delivery faults (bit flips, erasures) appear only in
        the per-receiver transcripts -- exactly the information asymmetry
        an adversarial channel creates.
    fault_events:
        The faults injected during this run (empty for clean runs), in
        injection order. See :mod:`repro.resilience.faults`.
    crashed_vertices:
        Vertex indices crash-stopped at any point during the run.
    failed_vertices:
        Vertex indices whose node algorithm raised during a run under a
        fault or network plan; such nodes fail-stop (silent forever,
        output ``None``). Always empty for clean runs, where node
        exceptions propagate.
    cost_summary:
        Per-run communication-cost record (total bits, rounds, and a
        per-vertex bits/silent-rounds breakdown -- see
        :func:`repro.costs.ledger.run_cost_summary`), populated only
        when a :class:`~repro.costs.ledger.CostLedger` was active for
        the run; ``None`` otherwise, keeping the disabled path free.
    network_events:
        Delivery anomalies (delays, duplicates, reorders, end-of-run
        drops) injected by a non-pristine
        :class:`~repro.net.NetworkPlan`, in injection order; empty for
        clean and faults-only runs.
    delivery_stats:
        Per-edge delivery counters for edges that carried traffic under
        a non-pristine network plan (see
        :meth:`repro.net.Channel.stats`); empty otherwise.
    """

    instance: BCCInstance
    outputs: Tuple[Any, ...]
    transcripts: Tuple[Transcript, ...]
    rounds_executed: int
    broadcast_history: Tuple[Tuple[str, ...], ...]
    all_finished: bool = False
    fault_events: Tuple["FaultEvent", ...] = ()
    crashed_vertices: Tuple[int, ...] = ()
    failed_vertices: Tuple[int, ...] = ()
    cost_summary: Optional[Dict[str, Any]] = None
    network_events: Tuple["NetworkEvent", ...] = ()
    delivery_stats: Tuple[Dict[str, int], ...] = ()

    def sent_sequence(self, v: int) -> Tuple[str, ...]:
        """The message sequence vertex index ``v`` broadcast."""
        return self.transcripts[v].sent_sequence()

    def total_bits_broadcast(self) -> int:
        """Total bits broadcast by all vertices over the whole run."""
        return sum(t.bits_sent() for t in self.transcripts)

    def state_view(self, v: int, knowledge: InitialKnowledge, t: Optional[int] = None) -> tuple:
        """Hashable state (knowledge + t-round transcript prefix) of vertex v."""
        rounds = self.rounds_executed if t is None else t
        return (knowledge.comparable_view(), self.transcripts[v].prefix_comparable(rounds))


class Simulator:
    """Runs node algorithms on BCC instances under a fixed model.

    Observability is opt-in and costs one ``None`` check per run when
    disabled: pass ``metrics`` (a :class:`repro.obs.MetricsRegistry`) or
    install one process-wide via :func:`repro.obs.use_registry` to record
    per-round wall time, messages validated, bits broadcast, and the
    early-stop round; pass ``trace`` (a :class:`repro.obs.RunTrace`) to
    stream structured per-round JSONL events.

    Fault injection is likewise opt-in: pass ``faults`` (a
    :class:`repro.resilience.FaultPlan`) here or per-run to execute under
    a deterministic adversarial channel (bit flips, erasures, crash-stops
    applied between broadcast and delivery). Clean and adversarial runs
    share one round loop; with no plan, delivery costs one ``None`` check
    per edge and builds no channel state. Adversarial runs route
    delivery through a :class:`repro.net.NetworkManager`, so ``faults``
    is one pluggable delivery policy among several: pass ``network`` (a
    :class:`repro.net.NetworkPlan`) to add per-edge delay, duplication,
    and deterministic reordering on top of -- or instead of -- faults.

    Cost accounting follows the same contract: pass ``costs`` (a
    :class:`repro.costs.CostLedger`) or install one process-wide via
    :func:`repro.costs.use_ledger` to attribute every broadcast to its
    (vertex, round, phase) cell and to populate
    ``RunResult.cost_summary`` (mirrored as the trace-v4
    ``cost_summary`` event when a trace is active).

    Live progress streaming is the same contract once more: install an
    :class:`repro.obs.EventBus` via :func:`repro.obs.use_bus` and the
    run publishes ``simulator.run_start`` / ``simulator.round`` /
    ``simulator.run_end`` events as they happen; with no bus installed
    the cost is a single ``None`` check and no payload is built.
    """

    def __init__(
        self,
        model: BCCModel,
        metrics=None,
        trace=None,
        faults: Optional["FaultPlan"] = None,
        costs=None,
        network: Optional["NetworkPlan"] = None,
    ):
        self._model = model
        self._metrics = metrics
        self._trace = trace
        self._faults = faults
        self._costs = costs
        self._network = network

    @property
    def model(self) -> BCCModel:
        return self._model

    def initial_knowledge(self, instance: BCCInstance, v: int, coin: PublicCoin) -> InitialKnowledge:
        """Construct the time-0 knowledge of vertex index ``v``."""
        return InitialKnowledge(
            vertex_id=instance.vertex_id(v),
            n=instance.n,
            bandwidth=self._model.bandwidth,
            kt=instance.kt,
            ports=instance.port_labels(v),
            input_ports=instance.input_ports(v),
            all_ids=tuple(sorted(instance.ids)) if instance.kt == 1 else None,
            coin=coin,
        )

    def run(
        self,
        instance: BCCInstance,
        factory: AlgorithmFactory,
        rounds: int,
        coin: Optional[PublicCoin] = None,
        faults: Optional["FaultPlan"] = None,
        network: Optional["NetworkPlan"] = None,
        session=None,
    ) -> RunResult:
        """Execute ``rounds`` synchronous rounds of the algorithm.

        Stops early after any round in which every vertex reports
        ``finished()``. The same ``coin`` object is handed to every vertex
        (the public-coin model); omit it for a fixed default seed.

        ``faults`` (default: the plan given at construction, usually None)
        runs the execution under a deterministic adversarial channel: the
        plan is applied between broadcast and delivery each round, so
        per-receiver views can diverge, and a node that raises fail-stops
        (silent, output ``None``, listed in ``failed_vertices``). With no
        fault or network plan each delivery is the sender's broadcast and
        node exceptions propagate.

        ``network`` (default: the plan given at construction) routes
        delivery through per-edge :class:`repro.net.Channel` objects --
        seeded delay/duplication/reordering composing with ``faults``. A
        network plan may carry its own fault plan; an explicit ``faults``
        argument wins when both name one.

        ``session`` (a :class:`repro.replay.SessionStore`) records every
        round -- broadcasts, per-vertex round digests, fault and delivery
        events, RNG state transitions -- for later replay/rewind. Like the
        other hooks it costs one ``None`` check per round when absent.
        """
        if instance.kt != self._model.kt:
            raise SimulationError(
                f"instance knowledge level KT-{instance.kt} does not match "
                f"model KT-{self._model.kt}"
            )
        if rounds < 0:
            raise SimulationError(f"rounds must be >= 0, got {rounds}")
        the_coin = coin if coin is not None else PublicCoin()
        plan = faults if faults is not None else self._faults
        net_plan = network if network is not None else self._network
        if plan is None and net_plan is not None:
            plan = net_plan.faults

        # Resolve observability once per run; ``None`` means the disabled
        # fast path (a single extra truthiness check per round). The span
        # recorder follows the same discipline as the metrics registry
        # and the fault hook: one module-level lookup per run, then only
        # local ``is not None`` checks on the hot path.
        metrics = self._metrics if self._metrics is not None else get_registry()
        trace = self._trace
        ledger = self._costs if self._costs is not None else get_ledger()
        bus = get_bus()
        recorder = get_recorder()
        if recorder is None:
            return self._execute(
                instance, factory, rounds, the_coin, plan, net_plan, session,
                metrics, trace, None, ledger, bus,
            )
        run_span = recorder.start(
            "simulator.run",
            n=instance.n,
            kt=instance.kt,
            bandwidth=self._model.bandwidth,
            rounds_budget=rounds,
            faulted=plan is not None,
        )
        try:
            result = self._execute(
                instance, factory, rounds, the_coin, plan, net_plan, session,
                metrics, trace, recorder, ledger, bus,
            )
            run_span.set_attr("rounds_executed", result.rounds_executed)
            return result
        finally:
            # Lenient finish: on an exception mid-round this also closes
            # any still-open round/broadcast/deliver descendants, so the
            # next run's spans cannot nest under a stale parent.
            recorder.finish(run_span)

    def _execute(
        self,
        instance: BCCInstance,
        factory: AlgorithmFactory,
        rounds: int,
        the_coin: PublicCoin,
        plan: Optional["FaultPlan"],
        net_plan: Optional["NetworkPlan"],
        session,
        metrics,
        trace,
        recorder,
        ledger,
        bus=None,
    ) -> RunResult:
        """The round engine proper (observability already resolved).

        One round loop serves every run. Adversarial executions (any
        fault or network plan) route each delivery through a
        :class:`repro.net.NetworkManager` and fail-stop raising nodes; a
        bare fault plan rides in a *pristine* network plan, whose manager
        allocates no channels and adds no RNG draws. Clean runs build no
        manager: each receiver takes the sender's broadcast directly, and
        node exceptions propagate.
        """
        n = instance.n
        if net_plan is not None:
            net_run = net_plan.begin_run(n, plan)
        elif plan is not None:
            from repro.net.plan import NetworkPlan

            net_plan = NetworkPlan()
            net_run = net_plan.begin_run(n, plan)
        else:
            net_run = None
        fault_run = net_run.fault_run if net_run is not None else None
        networked = net_plan is not None and not net_plan.is_pristine
        # The live event bus rides the same observing branch as metrics
        # and traces: with no bus installed, nothing below constructs a
        # payload -- the disabled path stays one ``is not None`` check.
        observing = metrics is not None or trace is not None or bus is not None
        if bus is not None:
            bus.publish(
                "simulator.run_start",
                {"n": n, "kt": instance.kt, "rounds_budget": rounds},
            )
        if trace is not None:
            start_fields: Dict[str, Any] = {
                "n": n,
                "kt": instance.kt,
                "bandwidth": self._model.bandwidth,
                "rounds_budget": rounds,
            }
            if fault_run is not None:
                start_fields["fault_seed"] = plan.seed
                start_fields["fault_rates"] = {
                    "bit_flip": plan.bit_flip_rate,
                    "erasure": plan.erasure_rate,
                    "crash": plan.crash_rate,
                }
            if networked:
                start_fields["network"] = {
                    "seed": net_plan.seed,
                    "max_delay": net_plan.max_delay,
                    "duplicate_rate": net_plan.duplicate_rate,
                    "reorder": net_plan.reorder,
                }
            trace.emit("run_start", **start_fields)

        nodes: List[NodeAlgorithm] = []
        for v in range(n):
            node = factory()
            node.setup(self.initial_knowledge(instance, v, the_coin))
            nodes.append(node)

        transcripts = [Transcript() for _ in range(n)]
        history: List[Tuple[str, ...]] = []

        executed = 0
        total_bits = 0
        fault_cursor = 0
        net_cursor = 0
        session_fault_cursor = 0
        session_net_cursor = 0
        # Under an adversarial channel a node choking on corrupted input is
        # part of the degradation being measured, not a simulator bug: any
        # exception a node raises fail-stops it (silent forever, output
        # None). Clean runs let node exceptions propagate.
        failed_nodes: set = set()

        def all_finished() -> bool:
            done = True
            for v in range(n):
                if v in failed_nodes:
                    continue  # a failed node makes no further progress
                try:
                    if not nodes[v].finished():
                        if net_run is None:
                            return False  # nothing to fail-stop: stop early
                        done = False
                except Exception:
                    if net_run is None:
                        raise
                    failed_nodes.add(v)
            return done

        done = all_finished()
        for t in range(1, rounds + 1):
            if done:
                break
            round_start = time.perf_counter() if observing else 0.0
            round_span = (
                recorder.start("simulator.round", t=t) if recorder is not None else None
            )
            if recorder is not None:
                phase_span = recorder.start("simulator.broadcast", t=t)
            collected: List[str] = []
            for v in range(n):
                message = ""
                if v not in failed_nodes:
                    try:
                        message = self._model.validate_message(nodes[v].broadcast(t))
                    except Exception:
                        if net_run is None:
                            raise
                        failed_nodes.add(v)
                collected.append(message)
            messages = tuple(collected)
            if net_run is not None:
                # Sender-side faults (crash-stop) first, then the per-edge
                # delivery pipeline (fault filter, then channel) so
                # port-level views can diverge.
                messages = net_run.filter_broadcasts(t, messages)
            history.append(messages)
            if recorder is not None:
                recorder.finish(phase_span)
                phase_span = recorder.start("simulator.deliver", t=t)
            for v in range(n):
                received: Dict[int, str] = {}
                for u in range(n):
                    if u != v:
                        received[instance.port_to_peer(v, u)] = (
                            messages[u]
                            if net_run is None
                            else net_run.deliver(t, u, v, messages[u])
                        )
                if v not in failed_nodes:
                    try:
                        nodes[v].receive(t, received)
                    except Exception:
                        if net_run is None:
                            raise
                        failed_nodes.add(v)
                transcripts[v].append(RoundRecord(sent=messages[v], received=received))
            if recorder is not None:
                recorder.finish(phase_span)
            executed = t
            done = all_finished()
            if ledger is not None:
                ledger.record_round(t, messages)
            if observing:
                round_seconds = time.perf_counter() - round_start
                round_bits = sum(len(m) for m in messages)
                total_bits += round_bits
                round_faults = 0
                round_deliveries = 0
                if fault_run is not None:
                    round_faults = fault_run.faults_injected - fault_cursor
                if net_run is not None:
                    round_deliveries = net_run.events_injected - net_cursor
                if metrics is not None:
                    metrics.counter("simulator.rounds_executed").inc()
                    metrics.counter("simulator.messages_validated").inc(n)
                    metrics.counter("simulator.bits_broadcast").inc(round_bits)
                    metrics.histogram("simulator.round_seconds").observe(round_seconds)
                    if round_faults:
                        metrics.counter("simulator.faults_injected").inc(round_faults)
                    if round_deliveries:
                        metrics.counter("simulator.delivery_anomalies").inc(
                            round_deliveries
                        )
                if bus is not None:
                    bus.publish(
                        "simulator.round",
                        {
                            "t": t,
                            "bits": round_bits,
                            "wall_seconds": round_seconds,
                            "faults": round_faults,
                            "deliveries": round_deliveries,
                            "all_finished": done,
                        },
                    )
                if trace is not None:
                    if fault_run is not None:
                        for event in fault_run.events[fault_cursor:]:
                            trace.emit("fault", **event.as_dict())
                    if round_deliveries:
                        for event in net_run.events[net_cursor:]:
                            trace.emit("delivery", **event.as_dict())
                    trace.emit(
                        "round",
                        t=t,
                        bits=round_bits,
                        wall_seconds=round_seconds,
                        all_finished=done,
                        **({"faults": round_faults} if fault_run is not None else {}),
                    )
                if fault_run is not None:
                    fault_cursor = fault_run.faults_injected
                if net_run is not None:
                    net_cursor = net_run.events_injected
            if session is not None:
                session.record_round(
                    t,
                    messages,
                    transcripts,
                    all_finished=done,
                    fault_events=(
                        fault_run.events[session_fault_cursor:]
                        if fault_run is not None
                        else ()
                    ),
                    net_events=(
                        net_run.events[session_net_cursor:]
                        if net_run is not None
                        else ()
                    ),
                    fault_rng=(
                        fault_run.rng_digest() if fault_run is not None else None
                    ),
                    net_rng=net_run.rng_digest() if net_run is not None else None,
                )
                if fault_run is not None:
                    session_fault_cursor = fault_run.faults_injected
                if net_run is not None:
                    session_net_cursor = net_run.events_injected
            if round_span is not None:
                recorder.finish(round_span)

        if net_run is not None:
            # Close every channel: copies still in flight become recorded
            # "dropped" delivery events (a no-op for pristine managers).
            net_run.finish(executed)
            if trace is not None and net_run.events_injected > net_cursor:
                for event in net_run.events[net_cursor:]:
                    trace.emit("delivery", **event.as_dict())
        cost_summary = (
            run_cost_summary(transcripts, executed) if ledger is not None else None
        )
        if metrics is not None:
            metrics.counter("simulator.runs").inc()
            if done and executed < rounds:
                metrics.gauge("simulator.early_stop_round").set(executed)
                metrics.counter("simulator.early_stops").inc()
        if bus is not None:
            bus.publish(
                "simulator.run_end",
                {
                    "rounds_executed": executed,
                    "all_finished": done,
                    "total_bits": total_bits,
                },
            )
        if trace is not None:
            if cost_summary is not None:
                trace.emit("cost_summary", **cost_summary)
            end_fields: Dict[str, Any] = {
                "rounds_executed": executed,
                "all_finished": done,
                "total_bits": total_bits,
            }
            if fault_run is not None:
                end_fields["faults_injected"] = fault_run.faults_injected
                end_fields["crashed_vertices"] = fault_run.crashed_vertices
                end_fields["failed_vertices"] = tuple(sorted(failed_nodes))
            if networked:
                end_fields["delivery_anomalies"] = net_run.events_injected
            trace.emit("run_end", **end_fields)

        outputs: List[Any] = []
        for v in range(n):
            output = None
            if v not in failed_nodes:
                try:
                    output = nodes[v].output()
                except Exception:
                    if net_run is None:
                        raise
                    failed_nodes.add(v)
            outputs.append(output)
        return RunResult(
            instance=instance,
            outputs=tuple(outputs),
            transcripts=tuple(transcripts),
            rounds_executed=executed,
            broadcast_history=tuple(history),
            all_finished=done,
            fault_events=tuple(fault_run.events) if fault_run is not None else (),
            crashed_vertices=fault_run.crashed_vertices if fault_run is not None else (),
            failed_vertices=tuple(sorted(failed_nodes)),
            cost_summary=cost_summary,
            network_events=tuple(net_run.events) if net_run is not None else (),
            delivery_stats=(
                tuple(net_run.delivery_stats()) if net_run is not None else ()
            ),
        )

    def run_until_done(
        self,
        instance: BCCInstance,
        factory: AlgorithmFactory,
        max_rounds: int,
        coin: Optional[PublicCoin] = None,
    ) -> RunResult:
        """Run until every vertex is finished, or raise after ``max_rounds``.

        Unlike :meth:`run`, exhausting the budget without global completion
        is treated as an error; use this for upper-bound algorithms whose
        round complexity is itself the measured quantity.
        """
        result = self.run(instance, factory, max_rounds, coin)
        if not result.all_finished:
            raise SimulationError(
                f"algorithm did not finish within {max_rounds} rounds"
            )
        return result
