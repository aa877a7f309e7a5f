"""oracle-ge64: one N=64 event-engine RunSpec, in-process, closed loop.

Each repetition is ``spec.build`` and ``run_rounds`` of the spec's
rounds on a fresh cluster, in two equal segments: the first (with the
build) is the cold figure, the second, on the now-running cluster, the
warm one.  The gate afterwards runs the same spec once more with the
full trace and a metrics registry, on both backends.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time
from dataclasses import replace
from typing import Dict, List, Tuple

from common import Context, Report, Tally, medians, overhead, vm_hwm_mb
from gates import oracle_digest, oracle_failures
from generators import DEFAULT_SEED, oracle_spec
from repro.core.diagnostic import TRACE_ALL
from repro.obs.registry import MetricsRegistry
from repro.spec import RunSpec, build
from repro.vec import run_batch

#: Always measure at least this many repetitions, whatever the time.
MIN_REPS = 4


def _final_state(cluster) -> str:
    """Digest of every node's activity vector and p/r counters.

    A digest, not the state itself: a run keeps one per repetition,
    and at N=64 the state is about 0.3 MB, which would make
    ``peak_rss_mb`` grow with the number of repetitions that fit.
    """
    n = cluster.config.n_nodes
    state = tuple((node, service.active_nodes(),
                   tuple(service.counters_of(j) for j in range(1, n + 1)))
                  for node, service in sorted(cluster.services.items()))
    return hashlib.sha256(repr(state).encode()).hexdigest()


def _ratio(counters: Dict[str, int], part: str, *whole: str) -> float:
    total = sum(counters.get(name, 0) for name in whole)
    return counters.get(part, 0) / total if total else 0.0


def _repetition(spec: RunSpec, tracer) -> Tuple[Dict[str, float],
                                               Dict[str, float], str]:
    """One fresh cluster: (end-to-end figures, layer figures, state)."""
    registry = MetricsRegistry() if tracer is not None else None
    # The previous repetition's cluster is garbage; a caller running one
    # spec would not pay for collecting it.
    gc.collect()
    segment = spec.n_rounds // 2
    t0 = time.perf_counter()
    cluster = build(spec, metrics=registry)
    t1 = time.perf_counter()
    cluster.run_rounds(segment)
    t2 = time.perf_counter()
    cluster.run_rounds(spec.n_rounds - segment)
    t3 = time.perf_counter()
    figures = {"setup_s": t1 - t0, "rounds_per_s": spec.n_rounds / (t3 - t1),
               "cold_s": t2 - t0, "warm_s": t3 - t2}
    layers: Dict[str, float] = {}
    if tracer is not None:
        run = tracer.run_id
        counters = registry.snapshot()["counters"]
        layers = {
            "spec.build_s": t1 - t0,
            "sim.dispatch_self_s": tracer.self_s(run, "sim.run_batch"),
            "tt.delivery_s": tracer.self_s(run, "tt.transmit", "tt.deliver"),
            "tt.deliver_calls": tracer.counted(run, "tt.deliver_calls"),
            "tt.fast_path_ratio": _ratio(counters, "bus.slots_fast_path",
                                         "bus.slots_total"),
            "faults.inject_s": tracer.self_s(run, "faults.inject"),
            "core.diag_job_s": tracer.self_s(run, "core.diag_job"),
            "core.analyse_s": tracer.total_s(run, "core.analyse"),
            "core.analysis_cache_hit_ratio": _ratio(
                counters, "vote.cache_hit", "vote.cache_hit",
                "vote.cache_miss"),
            "core.pr_update_s": tracer.total_s(run, "core.pr_update"),
        }
    return figures, layers, _final_state(cluster)


def _histories(target, nodes) -> Dict[int, Dict[int, Tuple[int, ...]]]:
    return {node: target.health_vectors(node) for node in nodes}


def _gate(spec: RunSpec, ctx: Context, tally: Tally,
          states: List[str]) -> str:
    full = spec.with_updates(cluster=replace(spec.cluster,
                                             trace_level=TRACE_ALL))
    registry = MetricsRegistry()
    cluster = build(full, metrics=registry)
    cluster.run_rounds(full.n_rounds)
    nodes = cluster.obedient_node_ids()
    event = _histories(cluster, nodes)
    vectorized = _histories(run_batch(full).view(0), nodes)
    counters = registry.snapshot()["counters"]
    reference = (ctx.reference.get("oracle-ge64")
                 if ctx.seed == DEFAULT_SEED else None)
    failures = oracle_failures(event, vectorized, counters, reference)
    tally.check(cluster.consistent_health_history(),
                "consistent_health_history() is false")
    tally.check(not failures, "; ".join(failures))
    expected = _final_state(cluster)
    for rep, state in enumerate(states):
        tally.check(state == expected,
                    f"repetition {rep} ended in another protocol state")
    return oracle_digest(event, counters)


def run(ctx: Context, tally: Tally) -> Report:
    spec = oracle_spec(ctx.seed)
    states: List[str] = []
    figures: Dict[bool, List[Dict[str, float]]] = {False: [], True: []}
    layers: List[Dict[str, float]] = []
    report = Report()
    for rep, traced in ctx.turns(MIN_REPS):
        ctx.tracer.run_id = f"rep-{rep}"
        with ctx.measuring(traced):
            rep_figures, rep_layers, state = _repetition(
                spec, ctx.tracer if traced else None)
        figures[traced].append(rep_figures)
        states.append(state)
        if traced:
            layers.append(rep_layers)
        else:
            for name in ("cold_s", "warm_s"):
                report.sample(name, rep, rep_figures[name])
    report.e2e = medians(figures[False])
    report.e2e["peak_rss_mb"] = vm_hwm_mb(os.getpid())
    report.detail["samples"] = len(figures[False])
    if ctx.trace:
        report.traced_e2e = medians(figures[True])
        report.layers = medians(layers)
        report.layers["trace.overhead_frac"] = overhead(
            report.e2e["warm_s"], report.traced_e2e["warm_s"])
    report.digests["oracle-ge64"] = _gate(spec, ctx, tally, states)
    return report
