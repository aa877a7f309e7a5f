"""In-memory span recorder and the class-level wrappers that feed it.

The benchmark traces the program from the outside: :func:`install`
replaces selected public functions of each layer with thin wrappers
that open a span around the original call, and :func:`uninstall` puts
the originals back.  Nothing under ``src/`` knows about this module.

A span is ``(name, start_ns, end_ns, parent, run_id, thread)`` in
``time.perf_counter_ns`` (monotonic) units.  Self time is the span's
duration minus the part its child spans cover; it is accumulated online
per ``(run_id, name)``, so the totals cover every call even when the raw
span list is capped.  Calls too frequent to span individually (one per
receiver per slot) are counted instead of timed.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from time import perf_counter_ns
from typing import Any, Dict, List, Tuple

#: Raw spans kept for the Chrome trace file; totals cover all spans.
MAX_SPANS = 50_000


class Tracer:
    """Spans and counts, keyed by the current ``run_id``."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.enabled = False
        self.run_id = "setup"
        self.max_spans = max_spans
        self.spans: List[list] = []
        self.dropped = 0
        #: (run_id, name) -> [calls, total_ns, self_ns]
        self.totals: Dict[Tuple[str, str], List[int]] = {}
        #: (run_id, name) -> count
        self.counts: Dict[Tuple[str, str], int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        # Forked pool workers inherit the wrappers; their spans would be
        # lost with the worker, so tracing stays off there.
        os.register_at_fork(after_in_child=self.disable)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        """Open a span; returns the frame :meth:`end` closes."""
        stack = self._stack()
        parent = stack[-1][3] if stack else -1
        index = -1
        start = perf_counter_ns()
        with self._lock:
            if len(self.spans) < self.max_spans:
                index = len(self.spans)
                self.spans.append([name, start, start, parent, self.run_id,
                                   threading.get_ident()])
            else:
                self.dropped += 1
        frame = [name, start, 0, index]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        """Close ``frame``; charge its duration to the enclosing span."""
        end = perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        if frame[3] >= 0:
            self.spans[frame[3]][2] = end
        key = (self.run_id, frame[0])
        with self._lock:
            total = self.totals.get(key)
            if total is None:
                total = self.totals[key] = [0, 0, 0]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[2]

    def disable(self) -> None:
        """Stop recording (wrappers then cost one attribute test)."""
        self.enabled = False

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a per-run counter (single-threaded hot paths)."""
        key = (self.run_id, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str) -> "_Span":
        """``with tracer.span(name):`` — a no-op while disabled."""
        return _Span(self, name)

    # -- queries ------------------------------------------------------
    def self_s(self, run_id: str, *names: str) -> float:
        """Summed self time of ``names`` in one run, in seconds."""
        return sum(self.totals.get((run_id, n), (0, 0, 0))[2]
                   for n in names) / 1e9

    def total_s(self, run_id: str, *names: str) -> float:
        """Summed inclusive time of ``names`` in one run, in seconds."""
        return sum(self.totals.get((run_id, n), (0, 0, 0))[1]
                   for n in names) / 1e9

    def calls(self, run_id: str, name: str) -> int:
        """Spans closed under ``name`` in one run."""
        return self.totals.get((run_id, name), (0, 0, 0))[0]

    def counted(self, run_id: str, name: str) -> int:
        """A :meth:`count` counter's value in one run."""
        return self.counts.get((run_id, name), 0)

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        pid = os.getpid()
        events: List[Dict[str, Any]] = []
        for index, (name, start, end, parent, run_id, tid) in \
                enumerate(self.spans):
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": start / 1000.0, "dur": (end - start) / 1000.0,
                "pid": pid, "tid": tid,
                "args": {"id": index, "parent": parent, "run": run_id},
            })
        document = {"traceEvents": events, "displayTimeUnit": "ms",
                    "otherData": {"dropped_spans": self.dropped}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)


class _Span:
    __slots__ = ("_tracer", "_name", "_frame")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._frame = None

    def __enter__(self) -> "_Span":
        if self._tracer.enabled:
            self._frame = self._tracer.begin(self._name)
        return self

    def __exit__(self, *exc) -> None:
        if self._frame is not None:
            self._tracer.end(self._frame)


def _spanned(tracer: Tracer, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        frame = tracer.begin(name)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end(frame)
    return wrapper


def _counted(tracer: Tracer, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if tracer.enabled:
            tracer.count(name)
        return original(*args, **kwargs)
    return wrapper


def _get_many_keys(tracer: Tracer, original):
    @functools.wraps(original)
    def wrapper(self, keys):
        keys = list(keys)
        if tracer.enabled:
            tracer.count("store.get_many_keys", len(keys))
        return original(self, keys)
    return wrapper


def _targets():
    """(owner, attribute, wrapper factory) for every traced boundary."""
    from repro.campaign.state import CampaignState
    from repro.core.bitmatrix import BitDiagnosticMatrix
    from repro.core.diagnostic import DiagnosticService
    from repro.core.penalty_reward import PenaltyRewardState
    from repro.faults.injector import InjectionLayer
    from repro.sim.engine import Engine
    from repro.store.result_store import ResultStore
    from repro.tt.bus import Bus
    from repro.tt.controller import CommunicationController
    from repro.vec import kernel

    def span(name):
        return lambda tracer, original: _spanned(tracer, name, original)

    targets = [
        (Engine, "run_batch", span("sim.run_batch")),
        (Bus, "transmit", span("tt.transmit")),
        (Bus, "transmit_latched", span("tt.transmit")),
        (Bus, "transmit_quiescent", span("tt.transmit")),
        # The bus's scheduled delivery events: where every receiver's
        # controller is called, i.e. the per-receiver delivery cost.
        (Bus, "_deliver_batch", span("tt.deliver")),
        (Bus, "_deliver", span("tt.deliver")),
        (CommunicationController, "deliver",
         lambda tracer, original: _counted(tracer, "tt.deliver_calls",
                                           original)),
        (InjectionLayer, "apply", span("faults.inject")),
        (InjectionLayer, "is_quiescent", span("faults.inject")),
        (DiagnosticService, "execute", span("core.diag_job")),
        (BitDiagnosticMatrix, "analyse", span("core.analyse")),
        (PenaltyRewardState, "update", span("core.pr_update")),
        (kernel, "compile_schedule", span("vec.compile")),
        (kernel, "lower_injection", span("vec.lower")),
        (kernel, "run_batch", span("vec.run_batch")),
        (kernel, "execute_batch", span("vec.execute_batch")),
        (CampaignState, "save", span("campaign.checkpoint")),
        (ResultStore, "put", span("store.put")),
        (ResultStore, "put_many", span("store.put_many")),
        (ResultStore, "get_many", span("store.get_many")),
    ]
    return targets


def install(tracer: Tracer) -> List[Tuple[Any, str, Any]]:
    """Wrap every traced boundary; returns what :func:`uninstall` needs."""
    from repro.store.result_store import ResultStore

    installed = []
    for owner, attribute, factory in _targets():
        original = owner.__dict__[attribute]
        setattr(owner, attribute, factory(tracer, original))
        installed.append((owner, attribute, original))
    # Count keys outside the get_many span so the count is not timed.
    original = ResultStore.__dict__["get_many"]
    ResultStore.get_many = _get_many_keys(tracer, original)
    installed.append((ResultStore, "get_many", original))
    return installed


def uninstall(installed: List[Tuple[Any, str, Any]]) -> None:
    """Restore the originals, innermost wrapper last."""
    for owner, attribute, original in reversed(installed):
        setattr(owner, attribute, original)

