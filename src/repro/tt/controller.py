"""Communication controller: the node's interface to the TDMA bus.

Sec. 3 of the paper abstracts inter-node communication as *interface
variables* ``<v_1, ..., v_N>`` that the controllers update automatically
by sending/receiving messages according to the global communication
schedule.  This module implements that abstraction:

* one interface variable (and its *validity bit*) per sender node;
* the validity bit of ``v_i`` at receiver ``j`` is 0 iff ``j`` could not
  receive the last message from ``i`` — stale values are kept but
  flagged invalid, exactly as on the paper's prototype (the
  ``tt_Receiver_Status`` API);
* a *local collision detection* mechanism: the controller observes its
  own frame on the bus and records per-round whether it was readable;
* an *activity mask*: traffic from nodes isolated by the diagnostic
  protocol "must be ignored by the communication controllers of all
  other nodes" — masked senders are treated as permanently invalid.
  A softer ``observe`` mode keeps diagnosing a node without readmitting
  it, used by the reintegration extension (Sec. 9, last paragraph).

A frame is a broadcast: every receiver whose local error detection
passes latches the same value.  The receive state is therefore split
in two.  A :class:`ReceiveRecord` owned by the bus holds what the
receivers following it latched, written once per slot; each
controller keeps *private entries* only for the deliveries that
reached it alone (an outcome that differs from the other receivers',
a sender it ignores, or a controller with delivery listeners).  Reads
return, per sender, the newer of the two by delivery round.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

from ..sim.trace import Trace

#: Channel name used by the diagnostic middleware.  Frames multiplex
#: named channels so the add-on protocol shares the node's sending slot
#: with application data "without interference with other
#: functionalities" (Sec. 1).
DIAG_CHANNEL = "diag"

#: Deliveries buffered per sender (receive history and collision
#: detector results).  Every sender delivers once per round, so at any
#: point within round ``k`` the buffer covers rounds ``k-4..k-1`` at
#: least: the diagnostic job reads rounds down to ``k-3`` (``d_round``
#: and the dynamic variant's tag matching), the Sec. 10 low-latency
#: service the previous round's collision result.
RECEIVE_WINDOW = 4

#: One buffered delivery: ``(round, validity_bit, payload, raw)`` —
#: the payload is ``None`` when invalid; ``raw`` is the validity before
#: the activity mask, i.e. the collision detector result for an own
#: frame.
Delivery = Tuple[int, int, Any, int]

_ROUND = itemgetter(0)


class SenderStatus(enum.Enum):
    """How this controller treats traffic from one sender."""

    #: Normal operation: deliveries update interface state.
    ACTIVE = "active"
    #: Isolated but observed: validity bits still reflect the bus (the
    #: diagnostic layer keeps assessing the node) while the application
    #: must treat the node as down.
    OBSERVED = "observed"
    #: Isolated and ignored: validity forced to 0.
    IGNORED = "ignored"


def channel_of(payload: Any, channel: str) -> Any:
    """Extract one channel from a received frame payload.

    Well-formed frames carry a dict of channels; anything else (e.g. a
    payload forged by a malicious fault) is handed to every channel
    as-is — the consuming layer's input validation decides what to do
    with it.
    """
    if isinstance(payload, dict):
        return payload.get(channel)
    return payload


class ReceiveRecord:
    """Per-sender receive state shared by the receivers that follow it.

    The bus writes one record per slot instead of one delivery per
    receiver.  Lists are indexed by sender ID (index 0 unused), so a
    follower's ``read_validity``/``read_interface`` is a list copy.

    Attributes
    ----------
    rounds:
        Round of each sender's last delivery (-1: none yet).
    validity:
        Validity bit of that delivery.
    values:
        Payload of each sender's last valid delivery (stale values are
        kept, as on the controllers).
    value_rounds:
        Round of that last valid delivery (-1: none yet).
    history:
        The last :data:`RECEIVE_WINDOW` deliveries per sender.
    private:
        Per sender, the controllers (in node order) that take every
        delivery of that sender privately: those ignoring it and those
        with delivery listeners.
    """

    __slots__ = ("rounds", "validity", "values", "value_rounds", "history",
                 "_channels", "private")

    def __init__(self, n_senders: int) -> None:
        size = n_senders + 1
        self.rounds: List[int] = [-1] * size
        self.validity: List[int] = [0] * size
        self.values: List[Any] = [None] * size
        self.value_rounds: List[int] = [-1] * size
        self.history: Dict[int, List[Delivery]] = {}
        #: channel -> ``values`` with that channel extracted, built on
        #: the first read of the channel and kept in step by
        #: :meth:`write`, so extraction runs once per slot.
        self._channels: Dict[str, List[Any]] = {}
        self.private: List[Tuple["CommunicationController", ...]] = (
            [()] * size)

    def write(self, sender: int, round_index: int, valid: bool,
              payload: Any) -> None:
        """Latch one slot's outcome for every follower at once."""
        self.rounds[sender] = round_index
        if valid:
            self.validity[sender] = 1
            self.values[sender] = payload
            self.value_rounds[sender] = round_index
            for channel, extracted in self._channels.items():
                extracted[sender] = channel_of(payload, channel)
            entry = (round_index, 1, payload, 1)
        else:
            self.validity[sender] = 0
            entry = (round_index, 0, None, 0)
        history = self.history.get(sender)
        if history is None:
            self.history[sender] = [entry]
        else:
            history.append(entry)
            if len(history) > RECEIVE_WINDOW:
                del history[0]

    def channel_values(self, channel: str) -> List[Any]:
        """``values`` with ``channel`` extracted (do not mutate)."""
        extracted = self._channels.get(channel)
        if extracted is None:
            extracted = self._channels[channel] = [
                None if v is None else channel_of(v, channel)
                for v in self.values]
        return extracted

    def set_private(self, controller: "CommunicationController",
                    sender: int, private: bool) -> None:
        """Route ``sender``'s deliveries to ``controller`` privately or not."""
        members = [c for c in self.private[sender] if c is not controller]
        if private:
            members.append(controller)
            members.sort(key=lambda c: c.node_id)
        self.private[sender] = tuple(members)


class CommunicationController:
    """Per-node controller holding interface variables and validity bits."""

    def __init__(self, node_id: int, n_nodes: int, trace: Trace) -> None:
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.trace = trace
        self._status: List[SenderStatus] = [SenderStatus.ACTIVE] * (n_nodes + 1)
        # The record this controller follows: the bus's once attached,
        # until then one of its own that nothing writes.
        self._shared = ReceiveRecord(n_nodes)
        # Private entries per sender: [round, validity_bit, value], the
        # value being the last valid payload as of that round.
        self._private: Dict[int, List[Any]] = {}
        self._history: Dict[int, List[Delivery]] = {}
        self._out_buffers: Dict[str, Any] = {}
        self.tx_enabled: bool = True
        self._delivery_listeners: List[Any] = []

    def follow(self, record: ReceiveRecord) -> None:
        """Follow the bus's shared record (called by ``Bus.attach``)."""
        self._shared = record
        if (self._delivery_listeners
                or SenderStatus.IGNORED in self._status):
            for sender in range(1, self.n_nodes + 1):
                self._route(sender)

    def _route(self, sender: int) -> None:
        self._shared.set_private(
            self, sender, bool(self._delivery_listeners)
            or self._status[sender] is SenderStatus.IGNORED)

    # ------------------------------------------------------------------
    # Sending side
    # ------------------------------------------------------------------
    def write_interface(self, payload: Any,
                        channel: str = DIAG_CHANNEL) -> None:
        """Stage ``payload`` on a named channel of the node's next frame.

        Mirrors the paper's ``write_iface``: whether the data goes out
        in the current or the next round depends purely on whether the
        write happens before the node's sending slot (send alignment is
        the *protocol's* job; the controller just latches at slot
        start).  Channels multiplex the frame between the diagnostic
        middleware (channel ``"diag"``) and application jobs, so the
        add-on protocol never interferes with application traffic.
        """
        self._out_buffers[channel] = payload

    def build_payload(self) -> Any:
        """Payload for the transmission now starting (latched at slot start)."""
        return dict(self._out_buffers) if self._out_buffers else None

    channel_of = staticmethod(channel_of)

    # ------------------------------------------------------------------
    # Receiving side
    # ------------------------------------------------------------------
    def deliver(self, sender: int, round_index: int, slot: int,
                valid: bool, payload: Any, time: float = 0.0) -> None:
        """Latch one slot's frame for this controller alone.

        The bus calls this at delivery time for the outcomes its shared
        record does not carry for this controller.
        """
        # Local collision detection: could our own frame be read back
        # from the bus?  Recorded before the activity mask.
        raw = 1 if valid else 0
        if self._status[sender] is SenderStatus.IGNORED:
            valid = False
        entry = self._private.get(sender)
        if entry is None:
            entry = self._private[sender] = [-1, 0, None]
        shared = self._shared
        if shared.value_rounds[sender] > entry[0]:
            # Carry over the stale value this controller last latched
            # through the shared record.
            entry[2] = shared.values[sender]
        entry[0] = round_index
        if valid:
            entry[1] = 1
            entry[2] = payload
        else:
            entry[1] = 0
            payload = None
        # Receive history (last RECEIVE_WINDOW rounds per sender).
        # Real TT controllers expose equivalent status information (the
        # CNI reports the update instant of each interface variable);
        # the protocol only needs it under *dynamic* node scheduling,
        # where the application-level read-alignment buffer alone
        # cannot always reconstruct the previous round (the job's read
        # point may skip over a delivery when l_i grows between rounds).
        history = self._history.get(sender)
        if history is None:
            history = self._history[sender] = []
        history.append((round_index, entry[1], payload, raw))
        if len(history) > RECEIVE_WINDOW:
            del history[0]
        for listener in self._delivery_listeners:
            listener(sender=sender, round_index=round_index, slot=slot,
                     valid=valid, payload=payload, time=time)

    def add_delivery_listener(self, listener: Any) -> None:
        """Register a callback invoked after every slot delivery.

        Used by system-level services (the Sec. 10 low-latency variant)
        that react per slot rather than per round.  The callback
        signature is ``(sender, round_index, slot, valid, payload)``.
        A controller with listeners takes every delivery privately.
        """
        self._delivery_listeners.append(listener)
        if len(self._delivery_listeners) == 1:
            for sender in range(1, self.n_nodes + 1):
                self._route(sender)

    # ------------------------------------------------------------------
    # Application-visible reads (the add-on protocol's only inputs)
    # ------------------------------------------------------------------
    def read_interface(self, channel: Optional[str] = None) -> List[Any]:
        """Snapshot of the interface variables, 1-based (index 0 = None).

        With a ``channel``, each sender's entry is that channel's value
        from the sender's last valid frame.
        """
        shared = self._shared
        out = list(shared.values if channel is None
                   else shared.channel_values(channel))
        if self._private:
            value_rounds = shared.value_rounds
            for s, (rnd, _valid, value) in self._private.items():
                if rnd >= value_rounds[s]:
                    out[s] = (value if channel is None or value is None
                              else channel_of(value, channel))
        return out

    def read_validity(self) -> List[int]:
        """Snapshot of the validity bits, 1-based (index 0 = 0)."""
        shared = self._shared
        out = list(shared.validity)
        if self._private:
            rounds = shared.rounds
            for s, (rnd, valid, _value) in self._private.items():
                if rnd >= rounds[s]:
                    out[s] = valid
        return out

    def _buffered(self, sender: int, round_index: int) -> Optional[Delivery]:
        """This controller's buffered delivery of ``sender`` in a round.

        The buffer is the newest :data:`RECEIVE_WINDOW` of its private
        deliveries and of the shared ones it did not override (a
        private delivery replaces the shared one of the same round).
        """
        shared = self._shared.history.get(sender)
        own = self._history.get(sender)
        if not own:
            buffered = shared or ()
        elif not shared:
            buffered = own
        else:
            mine = {entry[0] for entry in own}
            buffered = sorted(
                own + [entry for entry in shared if entry[0] not in mine],
                key=_ROUND)[-RECEIVE_WINDOW:]
        for entry in buffered:
            if entry[0] == round_index:
                return entry
        return None

    def read_delivery(self, sender: int, round_index: int):
        """The buffered delivery of ``sender``'s slot in ``round_index``.

        Returns ``(validity_bit, payload)`` (payload ``None`` when
        invalid) or ``None`` when that round's delivery is no longer
        buffered.  The controller keeps the last four deliveries per
        sender, so at any point within round ``k`` the deliveries of
        rounds ``k-1`` and ``k-2`` are guaranteed to be available — the
        property the dynamic-scheduling variant of the protocol relies
        on for its read alignment and tag-matched aggregation.
        """
        entry = self._buffered(sender, round_index)
        return None if entry is None else (entry[1], entry[2])

    def collision_ok(self, round_index: int) -> bool:
        """Local collision detector result for the node's slot in a round.

        Returns False when the node did not (or could not) put a
        readable frame on the bus in that round, and for rounds older
        than the last :data:`RECEIVE_WINDOW` deliveries of its slot.
        """
        entry = self._buffered(self.node_id, round_index)
        return entry is not None and entry[3] == 1

    # ------------------------------------------------------------------
    # Activity management (driven by the diagnostic protocol output)
    # ------------------------------------------------------------------
    def set_sender_status(self, sender: int, status: SenderStatus) -> None:
        """Set how traffic from ``sender`` is treated (activity mask)."""
        if not 1 <= sender <= self.n_nodes:
            raise ValueError(f"sender must be in 1..{self.n_nodes}, got {sender}")
        self._status[sender] = status
        self._route(sender)

    def sender_status(self, sender: int) -> SenderStatus:
        """Current activity-mask status of one sender."""
        return self._status[sender]

    def disable_transmission(self) -> None:
        """Stop putting frames on the bus (self-isolation / power-off)."""
        self.tx_enabled = False

    def enable_transmission(self) -> None:
        """Resume putting frames on the bus (after reintegration)."""
        self.tx_enabled = True


__all__ = ["CommunicationController", "ReceiveRecord", "SenderStatus",
           "RECEIVE_WINDOW", "channel_of"]
