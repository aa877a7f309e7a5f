"""Shared-frame receive path against a per-receiver reference model.

The bus writes each slot's outcome once into a shared receive record
and calls ``CommunicationController.deliver`` only for receivers whose
outcome differs, that ignore the sender, or that have delivery
listeners.  :class:`Reference` below is the receive state every
controller kept when the bus delivered every slot to every receiver;
after every slot each controller's reads must agree with it.
"""

import random

import pytest

import repro.tt.controller as controller_module
from repro.core.config import IsolationMode, uniform_config
from repro.core.service import DiagnosedCluster, LowLatencyCluster
from repro.faults.injector import InjectionLayer
from repro.faults.processes import IntermittentSender, PoissonTransients
from repro.faults.scenarios import ChannelBurst, SenderFault
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.sim.trace import Trace
from repro.tt.bus import Bus
from repro.tt.controller import (RECEIVE_WINDOW, CommunicationController,
                                 ReceiveRecord, SenderStatus, channel_of)
from repro.tt.timebase import TimeBase

CHANNELS = (None, "diag", "app", "missing")


class Reference:
    """Receive state of one controller fed every slot's delivery."""

    def __init__(self, node_id, n_nodes):
        self.node_id = node_id
        self.values = [None] * (n_nodes + 1)
        self.validity = [0] * (n_nodes + 1)
        self.history = {s: [] for s in range(1, n_nodes + 1)}
        self.collision = {}

    def deliver(self, sender, round_index, valid, payload, status):
        """Latch one delivery; returns what a listener is handed."""
        if sender == self.node_id:
            self.collision[round_index] = bool(valid)
        if status is SenderStatus.IGNORED:
            valid = False
        self.validity[sender] = 1 if valid else 0
        if valid:
            self.values[sender] = payload
        history = self.history[sender]
        history.append((round_index, 1 if valid else 0,
                        payload if valid else None))
        del history[:-RECEIVE_WINDOW]
        return bool(valid), payload if valid else None

    def read_interface(self, channel=None):
        if channel is None:
            return list(self.values)
        return [None if v is None else channel_of(v, channel)
                for v in self.values]

    def read_validity(self):
        return list(self.validity)

    def read_delivery(self, sender, round_index):
        for rec_round, valid, payload in self.history[sender]:
            if rec_round == round_index:
                return (valid, payload)
        return None

    def collision_ok(self, round_index):
        return self.collision.get(round_index, False)


def assert_agrees(controller, reference, current_round, n_nodes):
    for channel in CHANNELS:
        assert (controller.read_interface(channel)
                == reference.read_interface(channel)), channel
    assert controller.read_validity() == reference.read_validity()
    for sender in range(1, n_nodes + 1):
        for q in range(current_round - 5, current_round + 2):
            assert (controller.read_delivery(sender, q)
                    == reference.read_delivery(sender, q)), (sender, q)
    # The collision detector answers within the receive window: the
    # own slot's last RECEIVE_WINDOW rounds.
    for q in range(current_round - 3, current_round + 2):
        assert controller.collision_ok(q) is reference.collision_ok(q), q


class Harness:
    """A bus with N controllers driven slot by slot, plus references."""

    def __init__(self, n_nodes=4, n_channels=1, fast_path=True):
        self.n = n_nodes
        self.engine = Engine()
        self.timebase = TimeBase(n_nodes, 2.5e-3)
        self.injection = InjectionLayer()
        self.bus = Bus(self.engine, self.timebase, self.injection, Trace(),
                       n_channels=n_channels)
        self.bus.fast_path = fast_path
        self.ctrls = {}
        for i in range(1, n_nodes + 1):
            self.ctrls[i] = CommunicationController(i, n_nodes, Trace())
            self.bus.attach(i, self.ctrls[i])
        self.refs = {i: Reference(i, n_nodes) for i in self.ctrls}
        self.expected_calls = {i: [] for i in self.ctrls}
        self.heard = {i: [] for i in self.ctrls}
        self.private_deliveries = 0
        self._wrap()

    def _wrap(self):
        bus = self.bus
        batch, slow = bus._deliver_batch, bus._deliver

        def deliver_batch(round_index, slot, sender, payload):
            self._feed(round_index, slot, sender,
                       {r: (True, payload) for r in self.ctrls})
            batch(round_index, slot, sender, payload)

        def deliver(round_index, slot, sender, per_receiver):
            self._feed(round_index, slot, sender, per_receiver)
            slow(round_index, slot, sender, per_receiver)

        bus._deliver_batch, bus._deliver = deliver_batch, deliver
        for ctrl in self.ctrls.values():
            original = ctrl.deliver

            def counted(*args, _original=original, **kwargs):
                self.private_deliveries += 1
                return _original(*args, **kwargs)

            ctrl.deliver = counted

    def _feed(self, round_index, slot, sender, per_receiver):
        for r, (valid, payload) in per_receiver.items():
            seen = self.refs[r].deliver(
                sender, round_index, valid, payload,
                self.ctrls[r].sender_status(sender))
            if self.ctrls[r]._delivery_listeners:
                self.expected_calls[r].append(
                    (sender, round_index, slot) + seen)

    def listen(self, node_id):
        self.ctrls[node_id].add_delivery_listener(
            lambda **kw: self.heard[node_id].append(
                (kw["sender"], kw["round_index"], kw["slot"], kw["valid"],
                 kw["payload"])))

    def slot(self, round_index, slot, silent=False):
        payload = {"diag": (round_index, slot), "app": f"a{round_index}"}
        bus = self.bus

        def transmit():
            if silent:
                bus.transmit(round_index, slot, None)
            else:
                bus.transmit_latched(round_index, slot, slot, payload)

        self.engine.schedule(self.timebase.slot_start(round_index, slot),
                             EventPriority.SLOT_TRANSMIT, transmit)
        self.engine.run()
        for i, ctrl in self.ctrls.items():
            assert_agrees(ctrl, self.refs[i], round_index, self.n)
            assert self.heard[i] == self.expected_calls[i]

    def run(self, rounds, before_slot=None):
        for k in rounds:
            for s in range(1, self.n + 1):
                if before_slot is not None:
                    before_slot(k, s)
                self.slot(k, s)


def test_quiescent_slots_write_only_the_shared_record():
    h = Harness()
    h.run(range(6))
    assert h.private_deliveries == 0


def test_uniform_slow_slots_are_shared_too():
    h = Harness(fast_path=False)
    h.injection.add(SenderFault(2, kind="benign", rounds=[1, 2]))
    h.injection.add(SenderFault(3, kind="malicious", rounds=[2],
                                payload={"diag": "forged"}))
    h.run(range(5))
    assert h.private_deliveries == 0


def test_stale_value_survives_invalid_slot():
    h = Harness()
    h.injection.add(SenderFault(2, kind="benign", rounds=[1]))
    h.run(range(1))
    h.slot(1, 1)
    h.slot(1, 2)
    for ctrl in h.ctrls.values():
        assert ctrl.read_validity()[2] == 0
        assert ctrl.read_interface("diag")[2] == (0, 2)


@pytest.mark.parametrize("detectable_by", [{1}, {2, 3, 4}, {1, 2}])
def test_asymmetric_slot_delivers_privately_only_where_it_differs(
        detectable_by):
    h = Harness()
    h.injection.add(SenderFault(2, kind="asymmetric", rounds=[1, 3],
                                detectable_by=detectable_by))
    h.run(range(6))
    # One private delivery per minority receiver of the two faulty slots.
    minority = min(len(detectable_by), h.n - len(detectable_by))
    assert h.private_deliveries == 2 * minority


def test_malicious_payload_on_a_subset():
    h = Harness()
    h.injection.add(SenderFault(3, kind="malicious", rounds=[1, 2],
                                payload=(1, 0, 1, 1)))
    h.injection.add(SenderFault(3, kind="asymmetric", rounds=[2],
                                detectable_by={1, 4}))
    h.run(range(5))


def test_replicated_channels():
    h = Harness(n_channels=2)
    tb = h.timebase
    h.injection.add(ChannelBurst(0, tb.slot_start(1, 1), tb.round_length))
    h.injection.add(ChannelBurst(1, tb.slot_start(1, 3), tb.slot_length))
    h.injection.add(SenderFault(4, kind="asymmetric", rounds=[2],
                                detectable_by={2}))
    h.run(range(5))


def test_silent_sender_and_collision_detector():
    h = Harness()
    h.run(range(2))
    h.slot(2, 1)
    h.slot(2, 2, silent=True)
    h.slot(2, 3)
    h.slot(2, 4)
    assert h.ctrls[2].collision_ok(1) is True
    assert h.ctrls[2].collision_ok(2) is False


@pytest.mark.parametrize("status", [SenderStatus.IGNORED,
                                    SenderStatus.OBSERVED])
def test_masked_sender_and_reintegration(status):
    h = Harness()

    def before_slot(k, s):
        if (k, s) == (1, 1):
            h.ctrls[1].set_sender_status(3, status)
            h.ctrls[3].set_sender_status(3, status)  # self-isolation
        if (k, s) == (4, 1):
            h.ctrls[1].set_sender_status(3, SenderStatus.ACTIVE)
            h.ctrls[3].set_sender_status(3, SenderStatus.ACTIVE)

    h.injection.add(SenderFault(3, kind="benign", rounds=[2, 5]))
    h.run(range(10), before_slot)


def test_delivery_listeners_take_every_delivery_privately():
    h = Harness()
    h.injection.add(SenderFault(2, kind="asymmetric", rounds=[2],
                                detectable_by={1}))

    def before_slot(k, s):
        if (k, s) == (1, 3):
            h.listen(4)

    h.run(range(4), before_slot)
    assert h.heard[4]
    assert h.private_deliveries == 1 + len(h.heard[4])


def test_randomised_mix():
    rng = random.Random(7)
    n_rounds = 12
    for n_channels in (1, 2):
        h = Harness(n_nodes=5, n_channels=n_channels,
                    fast_path=bool(rng.randrange(2)))
        tb = h.timebase
        for k in range(n_rounds):
            for s in range(1, h.n + 1):
                kind = rng.choice(["none", "none", "benign", "asymmetric",
                                   "malicious", "mixed", "channel"])
                subset = set(rng.sample(range(1, h.n + 1),
                                        rng.randrange(1, h.n)))
                if kind in ("benign", "asymmetric", "malicious"):
                    h.injection.add(SenderFault(
                        s, kind=kind, rounds=[k], detectable_by=subset,
                        payload=rng.choice(["junk", {"diag": (0, 1)}])))
                elif kind == "mixed":
                    h.injection.add(SenderFault(s, kind="malicious",
                                                rounds=[k], payload="junk"))
                    h.injection.add(SenderFault(s, kind="asymmetric",
                                                rounds=[k],
                                                detectable_by=subset))
                elif kind == "channel":
                    h.injection.add(ChannelBurst(
                        rng.randrange(n_channels), tb.slot_start(k, s),
                        tb.slot_length / 2))

        statuses = list(SenderStatus)

        def before_slot(k, s):
            if rng.random() < 0.2:
                node = rng.randrange(1, h.n + 1)
                sender = rng.randrange(1, h.n + 1)
                h.ctrls[node].set_sender_status(sender, rng.choice(statuses))
            if (k, s) == (n_rounds // 2, 1):
                h.listen(2)

        for k in range(n_rounds):
            for s in range(1, h.n + 1):
                before_slot(k, s)
                h.slot(k, s, silent=rng.random() < 0.1)


def test_controller_without_bus_keeps_private_record():
    rng = random.Random(3)
    n = 4
    ctrl = CommunicationController(2, n, Trace())
    ref = Reference(2, n)
    heard, expected = [], []
    for k in range(30):
        if k == 10:
            ctrl.add_delivery_listener(
                lambda **kw: heard.append((kw["sender"], kw["valid"],
                                           kw["payload"])))
        for s in range(1, n + 1):
            if rng.random() < 0.2:
                ctrl.set_sender_status(s, rng.choice(list(SenderStatus)))
            valid = rng.random() < 0.7
            payload = {"diag": (k, s), "app": k} if valid else None
            seen = ref.deliver(s, k, valid, payload, ctrl.sender_status(s))
            if k >= 10:
                expected.append((s,) + seen)
            ctrl.deliver(sender=s, round_index=k, slot=s, valid=valid,
                         payload=payload)
            assert_agrees(ctrl, ref, k, n)
    assert heard == expected


def test_receive_record_channel_cache_tracks_writes():
    record = ReceiveRecord(3)
    record.write(1, 0, True, {"diag": "a"})
    assert record.channel_values("diag") == [None, "a", None, None]
    record.write(1, 1, True, {"diag": "b"})
    record.write(2, 1, True, "forged")
    record.write(1, 2, False, None)
    assert record.channel_values("diag") == [None, "b", "forged", None]
    assert record.values[1] == {"diag": "b"}
    assert record.value_rounds[1] == 1 and record.rounds[1] == 2


# ----------------------------------------------------------------------
# Bounded receive bookkeeping
# ----------------------------------------------------------------------
def _clusters():
    """N=4 clusters covering every service that queries the window."""
    # Node 3 ends up isolated (ignored) by every node, the others not.
    config = uniform_config(4, penalty_threshold=20, reward_threshold=200,
                            isolation_mode=IsolationMode.IGNORE)
    static = DiagnosedCluster(config, seed=11, trace_level=1)
    dynamic = DiagnosedCluster(config, seed=12, trace_level=1,
                               dynamic_schedules=True)
    lowlat = LowLatencyCluster(config, seed=13, trace_level=1)
    for target in (static, dynamic, lowlat):
        cluster = target.cluster
        # Bursts 1.5 rounds long: black-outs send the vote to the
        # Lemma 3 fallback (collision detector queries).
        cluster.add_scenario(PoissonTransients(
            rate=2.0, burst_length=3.75e-3,
            rng=cluster.streams.stream("transients")))
        cluster.add_scenario(IntermittentSender(
            3, mean_reappearance_rounds=30,
            rng=cluster.streams.stream("intermittent")))
    return static, dynamic, lowlat


def _spy(target, log):
    for node_id, node in target.cluster.nodes.items():
        ctrl = node.controller
        for name in ("collision_ok", "read_delivery"):
            original = getattr(ctrl, name)

            def spied(*args, _original=original, _name=name,
                      _node=node_id):
                result = _original(*args)
                log.append((_node, _name, args, result))
                return result

            setattr(ctrl, name, spied)


def _containers(obj):
    names = getattr(type(obj), "__slots__", ()) or vars(obj)
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, (list, dict)):
            yield name, value


def _run(n_rounds):
    logs, traces, targets = [], [], _clusters()
    for target in targets:
        log = []
        _spy(target, log)
        target.run_rounds(n_rounds)
        logs.append(log)
        traces.append(target.trace.to_dicts())
    return targets, logs, traces


def test_receive_bookkeeping_stays_within_the_window(monkeypatch):
    n_rounds = 2000
    targets, logs, traces = _run(n_rounds)
    for target in targets:
        bus = target.cluster.bus
        for name, value in _containers(bus._record):
            assert len(value) <= 5, name
        for history in bus._record.history.values():
            assert len(history) <= RECEIVE_WINDOW
        for node in target.cluster.nodes.values():
            ctrl = node.controller
            for name, value in _containers(ctrl):
                assert len(value) <= 5, name
            for history in ctrl._history.values():
                assert len(history) <= RECEIVE_WINDOW
    # Every service query was made, and answered as with unbounded
    # buffers.
    names = {entry[1] for log in logs for entry in log}
    assert names == {"collision_ok", "read_delivery"}
    answers = {entry[3] for log in logs for entry in log
               if entry[1] == "collision_ok"}
    assert answers == {True, False}
    for target in targets[:2]:
        assert [s.active for s in target.services.values()] == [
            [1, 1, 0, 1]] * 4
    monkeypatch.setattr(controller_module, "RECEIVE_WINDOW", 10 ** 9)
    _, unbounded_logs, unbounded_traces = _run(n_rounds)
    assert logs == unbounded_logs
    assert traces == unbounded_traces
