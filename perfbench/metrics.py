"""Every metric the benchmark reports: name, unit and what it predicts.

``END_TO_END`` are the metrics a user of the system sees; each workload
reports all of them (an untraced run).  ``PER_LAYER`` are single-layer
numbers from a traced run; each names the end-to-end metric and
workload it should move, and the workloads where it should stay flat.
Every workload reports every per-layer metric: a layer the workload
never calls reads 0.  ``BENCHMARK.json`` repeats the names and units;
``tests/test_perfbench.py`` keeps the two in step.

``DETAIL`` are the workload-specific end-to-end figures printed in the
human summary and the result file beside the uniform set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

WORKLOADS = ("oracle-ge64", "campaign-pool", "montecarlo-vec",
             "service-mixed")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    #: (end-to-end metric, workload) this layer metric should move.
    moves: Tuple[str, str] = ("", "")
    #: Workloads where it should not move.
    flat: Tuple[str, ...] = ()
    doc: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", doc=(
        "oracle: spec.build; campaigns: enumerating the specs and creating "
        "the ResultStore; service: spawn until /healthz answers plus "
        "preloading the warm set")),
    Metric("rounds_per_s", "1/s", "higher", doc=(
        "simulated TDMA rounds per host second on the uncached path")),
    Metric("cold_s", "s", "lower", doc=(
        "one uncached result: oracle first RunSpec execution; campaigns "
        "cold campaign; service fresh job POST to terminal SSE event (p50)")),
    Metric("warm_s", "s", "lower", doc=(
        "the same result asked for again: oracle repeat execution (no "
        "cache on that path); campaigns warm re-run; service warm "
        "re-POST (p50)")),
    Metric("peak_rss_mb", "MB", "lower", doc=(
        "VmHWM; campaign-pool adds the pool children, service-mixed is "
        "the server process after the clients' first 2,000 operations")),
)

DETAIL = (
    ("request_p50_ms", "ms"), ("request_p99_ms", "ms"),
    ("requests_per_s", "1/s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
    ("failed_frac", "ratio"), ("samples", "count"),
    ("rss_after_ops", "count"),
)

_ORACLE = "oracle-ge64"
_POOL = "campaign-pool"
_VEC = "montecarlo-vec"
_SVC = "service-mixed"
_NOT_ORACLE = (_POOL, _VEC, _SVC)

PER_LAYER = (
    # -- oracle-ge64: the event engine in-process -----------------------
    Metric("spec.build_s", "s", moves=("setup_s", _ORACLE),
           flat=_NOT_ORACLE, doc="spec.build per RunSpec"),
    Metric("sim.dispatch_self_s", "s", moves=("rounds_per_s", _ORACLE),
           flat=_NOT_ORACLE, doc="Engine.run_batch minus child spans"),
    Metric("tt.delivery_s", "s", moves=("rounds_per_s", _ORACLE),
           flat=(_VEC, _SVC), doc=(
               "self time of Bus.transmit*/transmit_quiescent and the "
               "bus delivery events that call every receiver")),
    Metric("tt.deliver_calls", "count", moves=("rounds_per_s", _ORACLE),
           flat=(_VEC, _SVC), doc="CommunicationController.deliver calls"),
    Metric("tt.fast_path_ratio", "ratio", better="higher",
           moves=("rounds_per_s", _ORACLE), flat=_NOT_ORACLE,
           doc="bus.slots_fast_path / bus.slots_total"),
    Metric("faults.inject_s", "s", moves=("rounds_per_s", _ORACLE),
           flat=_NOT_ORACLE,
           doc="InjectionLayer.apply + is_quiescent"),
    Metric("core.diag_job_s", "s", moves=("rounds_per_s", _ORACLE),
           flat=_NOT_ORACLE,
           doc="DiagnosticService.execute self time"),
    Metric("core.analyse_s", "s", moves=("rounds_per_s", _ORACLE),
           flat=_NOT_ORACLE, doc="BitDiagnosticMatrix.analyse (H-maj)"),
    Metric("core.analysis_cache_hit_ratio", "ratio", better="higher",
           moves=("rounds_per_s", _ORACLE), flat=_NOT_ORACLE,
           doc="vote.cache_hit / (vote.cache_hit + vote.cache_miss)"),
    Metric("core.pr_update_s", "s", moves=("rounds_per_s", _ORACLE),
           flat=_NOT_ORACLE, doc="PenaltyRewardState.update"),
    # -- campaign-pool: dispatch and commit path -----------------------
    Metric("runner.items", "count", moves=("cold_s", _POOL), flat=(_SVC,),
           doc="work items submitted per cold run"),
    Metric("runner.turnaround_p50_ms", "ms", moves=("cold_s", _POOL),
           flat=(_SVC,), doc="submit to completion, per item"),
    Metric("runner.turnaround_p99_ms", "ms", moves=("cold_s", _POOL),
           flat=(_SVC,), doc="submit to completion, per item"),
    Metric("campaign.checkpoint_s", "s", moves=("cold_s", _POOL),
           flat=(_ORACLE, _SVC), doc="CampaignState.save per cold run"),
    Metric("campaign.checkpoint_calls", "count", moves=("cold_s", _POOL),
           flat=(_ORACLE, _SVC), doc="CampaignState.save calls"),
    Metric("campaign.wait_s", "s", moves=("cold_s", _POOL),
           flat=(_ORACLE, _SVC), doc="time blocked in as_completed"),
    Metric("campaign.engine_self_s", "s", moves=("cold_s", _POOL),
           flat=(_ORACLE, _SVC),
           doc="run_campaign minus wait, store and checkpoint spans"),
    # -- montecarlo-vec: the numpy kernel ------------------------------
    Metric("vec.compile_s", "s", moves=("cold_s", _VEC),
           flat=(_ORACLE, _POOL, _SVC), doc="compile_schedule"),
    Metric("vec.lower_s", "s", moves=("cold_s", _VEC),
           flat=(_ORACLE, _POOL, _SVC), doc="lower_injection"),
    Metric("vec.kernel_s", "s", moves=("cold_s", _VEC),
           flat=(_ORACLE, _POOL, _SVC),
           doc="run_batch minus compile and lower"),
    Metric("vec.reduce_s", "s", moves=("cold_s", _VEC),
           flat=(_ORACLE, _POOL, _SVC), doc="execute_batch minus run_batch"),
    Metric("campaign.batches", "count", moves=("cold_s", _VEC),
           flat=(_ORACLE, _POOL), doc="replicate batches per cold run"),
    # -- both campaign workloads: the store ----------------------------
    Metric("store.put_s", "s", moves=("cold_s", _POOL),
           flat=(_ORACLE, _VEC), doc="ResultStore.put per cold run"),
    Metric("store.put_calls", "count", moves=("cold_s", _POOL),
           flat=(_ORACLE, _VEC), doc="ResultStore.put calls"),
    Metric("store.put_many_s", "s", moves=("cold_s", _VEC),
           flat=(_ORACLE, _POOL), doc="ResultStore.put_many per cold run"),
    Metric("store.put_many_calls", "count", moves=("cold_s", _VEC),
           flat=(_ORACLE, _POOL), doc="ResultStore.put_many calls"),
    Metric("store.get_many_s", "s", moves=("warm_s", _POOL),
           flat=(_ORACLE,), doc="ResultStore.get_many per warm run"),
    Metric("store.get_many_keys", "count", moves=("warm_s", _POOL),
           flat=(_ORACLE,), doc="keys looked up per warm run"),
    Metric("store.bytes_per_entry", "bytes", moves=("warm_s", _POOL),
           flat=(_ORACLE,), doc="shard bytes / entries after the cold run"),
    # -- service-mixed: at the HTTP boundary ---------------------------
    Metric("service.post_warm_p50_ms", "ms", moves=("warm_s", _SVC),
           flat=(_ORACLE, _POOL, _VEC), doc="warm re-POST latency"),
    Metric("service.post_warm_p99_ms", "ms", moves=("warm_s", _SVC),
           flat=(_ORACLE, _POOL, _VEC), doc="warm re-POST latency"),
    Metric("service.result_json_p50_ms", "ms", moves=("warm_s", _SVC),
           flat=(_ORACLE, _POOL, _VEC), doc="GET result?format=json"),
    Metric("service.result_rendered_p50_ms", "ms", moves=("warm_s", _SVC),
           flat=(_ORACLE, _POOL, _VEC),
           doc="GET result?format=md|html|csv (results renderers)"),
    Metric("service.queue_wait_p50_ms", "ms", moves=("cold_s", _SVC),
           flat=(_ORACLE, _POOL, _VEC),
           doc="POST response to the engine's plan event"),
    Metric("service.run_p50_ms", "ms", moves=("cold_s", _SVC),
           flat=(_ORACLE, _POOL, _VEC), doc="plan event to terminal event"),
    Metric("service.cached_ratio", "ratio", better="higher",
           moves=("warm_s", _SVC), flat=(_ORACLE, _POOL, _VEC),
           doc="POST answers with cached: true / all POSTs"),
    Metric("service.rejected", "count", moves=("warm_s", _SVC),
           flat=(_ORACLE, _POOL, _VEC), doc="service.rejected (HTTP 429)"),
    Metric("store.hit_ratio", "ratio", better="higher",
           moves=("warm_s", _SVC), flat=(_ORACLE, _POOL, _VEC),
           doc="store.hit / (store.hit + store.miss) from /v1/metrics"),
    Metric("service.request_p50_ms", "ms", moves=("warm_s", _SVC),
           flat=(_ORACLE, _POOL, _VEC),
           doc="warm POSTs and result GETs"),
    Metric("service.request_p99_ms", "ms", moves=("warm_s", _SVC),
           flat=(_ORACLE, _POOL, _VEC),
           doc="warm POSTs and result GETs"),
    Metric("service.requests_per_s", "1/s", better="higher",
           moves=("warm_s", _SVC), flat=(_ORACLE, _POOL, _VEC),
           doc="warm POSTs and result GETs per second"),
    Metric("service.job_p50_ms", "ms", moves=("cold_s", _SVC),
           flat=(_ORACLE, _POOL, _VEC), doc="fresh POST to terminal event"),
    Metric("service.job_p90_ms", "ms", moves=("cold_s", _SVC),
           flat=(_ORACLE, _POOL, _VEC), doc="fresh POST to terminal event"),
    # -- the tracer itself ---------------------------------------------
    Metric("trace.overhead_frac", "ratio", doc=(
        "traced / untraced - 1 in the same run, of the oracle's warm_s, "
        "the campaigns' cold_s and the service's warm_s")),
)


def complete(values: dict, metrics) -> dict:
    """``values`` restricted to ``metrics``, missing ones as 0.0."""
    return {m.name: {"value": float(values.get(m.name, 0.0)),
                     "unit": m.unit} for m in metrics}
