"""Cluster assembly and round-by-round simulation driving.

:class:`Cluster` wires together the engine, the TDMA time base, the
bus (with fault injection), one node per sending slot, and the trace.
It reproduces the paper's prototype setup programmatically: a set of
nodes (4 in the paper, any ``N >= 2`` here) interconnected via a
(possibly replicated) TT network, each running jobs on top of a TT
operating system, plus a disturbance capability.

The driver schedules, for each round ``k``:

* one transmission event per slot at the slot start (the sender's
  controller latches its out-buffer into a frame, the bus applies
  fault injection and schedules delivery at the end of the
  transmission window);
* one job-execution event per node at the node's schedule offset;
* a control event at the start of round ``k+1`` that lazily schedules
  the next round, so arbitrarily long simulations need O(N) queued
  events at any time.
"""

from __future__ import annotations

from random import Random
from typing import Any, Callable, Dict, Optional

from ..faults.injector import InjectionLayer, Scenario
from ..sim.engine import Engine
from ..sim.events import EventPriority
from ..sim.rng import RandomStreams
from ..sim.trace import Trace
from .bus import Bus
from .controller import CommunicationController
from .node import Job, Node
from .schedule import (
    DynamicNodeSchedule,
    GlobalSchedule,
    NodeSchedule,
    StaticNodeSchedule,
)
from .timebase import TimeBase

#: The paper's prototype TDMA round length (automotive and aerospace).
PAPER_ROUND_LENGTH = 2.5e-3


class Cluster:
    """A simulated time-triggered cluster.

    Parameters
    ----------
    n_nodes:
        Number of nodes / sending slots per round.
    round_length:
        TDMA round duration in seconds (paper: 2.5 ms).
    tx_fraction:
        Fraction of a slot occupied by the frame on the bus.
    seed:
        Master seed for all stochastic components.
    n_channels:
        Bus replication degree (Sec. 3: "possibly replicated").
    trace_level:
        Recording level of the cluster-owned :class:`Trace` (ignored
        when an explicit ``trace`` is supplied).  Level 0 drops
        per-slot records without allocating them.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` shared by the
        engine, the bus and (when the caller wires them) the diagnostic
        services.  ``None`` keeps the whole stack unmetered.
    """

    def __init__(self, n_nodes: int, round_length: float = PAPER_ROUND_LENGTH,
                 tx_fraction: float = 0.8, seed: int = 0,
                 n_channels: int = 1, trace: Optional[Trace] = None,
                 trace_level: int = 2,
                 metrics: Optional[Any] = None) -> None:
        self.metrics = metrics
        self.engine = Engine(metrics=metrics)
        self.timebase = TimeBase(n_nodes, round_length, tx_fraction)
        self.streams = RandomStreams(seed)
        self.trace = trace if trace is not None else Trace(level=trace_level)
        self.injection = InjectionLayer()
        self.bus = Bus(self.engine, self.timebase, self.injection,
                       self.trace, n_channels=n_channels, metrics=metrics)
        self.schedule = GlobalSchedule(self.timebase)

        self.nodes: Dict[int, Node] = {}
        for node_id in range(1, n_nodes + 1):
            controller = CommunicationController(node_id, n_nodes, self.trace)
            node = Node(node_id, controller, self.schedule.node_schedule(node_id))
            self.nodes[node_id] = node
            self.bus.attach(node_id, controller)

        self._rounds_driven = 0
        self._started = False
        # Margin keeping round-boundary events of round k out of a
        # ``run_rounds`` horizon ending at round k's start: all genuine
        # events of round k-1 end strictly earlier than this margin
        # before k * T (see TimeBase transmission windows).
        self._horizon_margin = 0.05 * (1 - tx_fraction) * self.timebase.slot_length

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.timebase.n_slots

    def node(self, node_id: int) -> Node:
        """The host node owning sending slot ``node_id``."""
        return self.nodes[node_id]

    def install_job(self, node_id: int, job: Job) -> None:
        """Install a per-round job on a node (e.g. a diagnostic job)."""
        self._check_not_started("install jobs")
        self.nodes[node_id].add_job(job)

    def set_static_schedule(self, node_id: int, exec_after: Optional[int] = None,
                            offset: Optional[float] = None) -> None:
        """Give a node a static schedule (design-time ``l_i``)."""
        self._set_schedule(node_id, StaticNodeSchedule(
            self.timebase, node_id, offset=offset, exec_after=exec_after))

    def set_dynamic_schedule(self, node_id: int,
                             rng: Optional[Random] = None) -> None:
        """Give a node a dynamic (per-round random) schedule (Sec. 10)."""
        if rng is None:
            rng = self.streams.stream(f"dynamic-schedule-{node_id}")
        self._set_schedule(node_id, DynamicNodeSchedule(self.timebase, node_id, rng))

    def _set_schedule(self, node_id: int, schedule: NodeSchedule) -> None:
        self._check_not_started("change schedules")
        self.schedule.set_node_schedule(node_id, schedule)
        self.nodes[node_id].schedule = schedule

    def add_scenario(self, scenario: Scenario) -> None:
        """Register a fault scenario (may be added mid-simulation).

        Scenarios expressed in slot coordinates (e.g. an unbound
        :class:`~repro.faults.scenarios.SlotBurst`) resolve their
        absolute times against this cluster's time base here.
        """
        bind = getattr(scenario, "bind", None)
        if callable(bind):
            bind(self.timebase)
        self.injection.add(scenario)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_rounds(self, n_rounds: int) -> None:
        """Advance the simulation by ``n_rounds`` complete rounds."""
        if n_rounds < 0:
            raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
        self._ensure_started()
        target = self._rounds_driven + n_rounds
        horizon = self.timebase.round_start(target) - self._horizon_margin
        self.engine.run_batch(until=horizon)
        self._rounds_driven = target
        if self.metrics is not None and self.metrics.enabled:
            self.metrics.counter("cluster.rounds_driven").inc(n_rounds)

    def run_until(self, time: float) -> None:
        """Advance the simulation to absolute ``time`` (seconds)."""
        self._ensure_started()
        self.engine.run_batch(until=time)
        self._rounds_driven = max(self._rounds_driven,
                                  self.timebase.round_of(self.engine.now))

    @property
    def rounds_completed(self) -> int:
        """Number of rounds fully driven by :meth:`run_rounds`."""
        return self._rounds_driven

    @property
    def now(self) -> float:
        return self.engine.now

    # ------------------------------------------------------------------
    # Internal driver
    # ------------------------------------------------------------------
    def _ensure_started(self) -> None:
        if not self._started:
            self._started = True
            self.engine.schedule(0.0, EventPriority.INJECTOR,
                                 lambda: self._schedule_round(0),
                                 description="bootstrap round 0")

    def _check_not_started(self, what: str) -> None:
        if self._started:
            raise RuntimeError(f"cannot {what} after the simulation started")

    def _schedule_round(self, round_index: int) -> None:
        tb = self.timebase
        # Transmissions: one per slot, at the slot start.
        for slot in range(1, self.n_nodes + 1):
            self.engine.schedule(
                tb.slot_start(round_index, slot), EventPriority.SLOT_TRANSMIT,
                self._make_transmit(round_index, slot),
                description=f"tx r{round_index} s{slot}")
        # Job executions: one batch per node, at the node's offset.
        for node_id, node in self.nodes.items():
            params = node.schedule.params(round_index)
            self.engine.schedule(
                tb.round_start(round_index) + params.offset, EventPriority.JOB,
                self._make_job_exec(node, round_index),
                description=f"jobs n{node_id} r{round_index}")
        # Lazily schedule the next round at its start.
        self.engine.schedule(
            tb.round_start(round_index + 1), EventPriority.INJECTOR,
            lambda: self._schedule_round(round_index + 1),
            description=f"schedule round {round_index + 1}")

    def _make_transmit(self, round_index: int, slot: int) -> Callable[[], None]:
        sender = self.schedule.sender_of_slot(slot)
        controller = self.nodes[sender].controller
        bus = self.bus

        def transmit() -> None:
            if controller.tx_enabled:
                # transmit_latched only materialises a Frame if the
                # transmission leaves the quiescent fast path.
                bus.transmit_latched(round_index, slot, sender,
                                     controller.build_payload())
            else:
                bus.transmit(round_index, slot, None)

        return transmit

    def _make_job_exec(self, node: Node, round_index: int) -> Callable[[], None]:
        def execute() -> None:
            node.execute_jobs(round_index, self.engine.now)

        return execute


__all__ = ["Cluster", "PAPER_ROUND_LENGTH"]
