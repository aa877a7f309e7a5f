"""campaign-pool and montecarlo-vec: ``run_campaign`` cold, then warm.

Every iteration creates a fresh :class:`ResultStore`, runs the campaign
cold, then re-runs it warm on the same store.  campaign-pool dispatches
360 short Sec. 8 tasks to a two-worker process pool; montecarlo-vec runs
600 vectorized replicates in-process as three replicate batches.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Tuple

from common import (
    Context,
    Report,
    Tally,
    child_pids,
    median,
    overhead,
    percentile,
    vm_hwm_mb,
)
from gates import document_failures, sha256_text
from generators import DEFAULT_SEED, montecarlo_campaign, pool_campaign
from repro.campaign import result_document, run_campaign
from repro.obs.export import render_json
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.runner.backends import DispatchBackend, LocalPoolBackend
from repro.spec import execute
from repro.store import ResultStore

MIN_ITERATIONS = 3
#: Set-ups timed per iteration beside the one whose store the campaign uses.
EXTRA_SETUPS = 2


class TimedBackend(DispatchBackend):
    """A :class:`LocalPoolBackend` that times each item and each wait.

    Submit -> completion per item goes to ``turnaround`` (seconds), and
    the time the engine blocks for the next completion is a
    ``campaign.wait`` span.  Only while the tracer is enabled.
    """

    name = "pool"

    def __init__(self, jobs: int, tracer, turnaround: List[float]) -> None:
        self._inner = LocalPoolBackend(jobs=jobs)
        self._tracer = tracer
        self._turnaround = turnaround
        self._submitted: Dict[int, float] = {}

    def submit(self, item) -> None:
        if self._tracer.enabled:
            self._tracer.count("runner.items")
            self._submitted[item.item_id] = time.perf_counter()
        self._inner.submit(item)

    def as_completed(self):
        completions = self._inner.as_completed()
        while True:
            with self._tracer.span("campaign.wait"):
                completion = next(completions, None)
            if completion is None:
                return
            started = self._submitted.pop(completion.item.item_id, None)
            if started is not None:
                self._turnaround.append(time.perf_counter() - started)
            yield completion

    def close(self) -> None:
        self._inner.close()


def _document(definition, result) -> str:
    return render_json(result_document(definition, result))


def _cold_layers(tracer, run: str, registry) -> Dict[str, float]:
    batches = registry.snapshot()["counters"].get("campaign.batches", 0) \
        if registry is not NULL_REGISTRY else 0
    return {
        "runner.items": tracer.counted(run, "runner.items"),
        "campaign.checkpoint_s": tracer.total_s(run, "campaign.checkpoint"),
        "campaign.checkpoint_calls": tracer.calls(run, "campaign.checkpoint"),
        "campaign.wait_s": tracer.total_s(run, "campaign.wait"),
        "campaign.engine_self_s": tracer.self_s(run, "campaign.run"),
        "vec.compile_s": tracer.total_s(run, "vec.compile"),
        "vec.lower_s": tracer.total_s(run, "vec.lower"),
        "vec.kernel_s": tracer.self_s(run, "vec.run_batch"),
        "vec.reduce_s": tracer.self_s(run, "vec.execute_batch"),
        "campaign.batches": batches,
        "store.put_s": tracer.total_s(run, "store.put"),
        "store.put_calls": tracer.calls(run, "store.put"),
        "store.put_many_s": tracer.total_s(run, "store.put_many"),
        "store.put_many_calls": tracer.calls(run, "store.put_many"),
    }


class _Workload:
    def __init__(self, name: str, make: Callable, jobs: int) -> None:
        self.name = name
        self.make = make
        self.jobs = jobs

    def _setup(self, ctx: Context) -> Tuple[float, str, ResultStore]:
        """What a campaign run does first: enumerate its specs from the
        seed and open a fresh store.  Returns (seconds, root, store)."""
        root = tempfile.mkdtemp(prefix="store-", dir=ctx.work)
        start = time.perf_counter()
        self.make(ctx.seed)
        store = ResultStore(root)
        return time.perf_counter() - start, root, store

    def _campaign(self, ctx: Context, store: ResultStore, traced: bool,
                  run: str, turnaround: List[float]):
        """One timed ``run_campaign``.

        Returns (seconds, result, pool children's MB, engine registry).
        """
        tracer = ctx.tracer
        tracer.run_id = run
        registry = MetricsRegistry() if traced else NULL_REGISTRY
        backend = TimedBackend(self.jobs, tracer, turnaround)
        try:
            gc.collect()
            start = time.perf_counter()
            with tracer.span("campaign.run"):
                result = run_campaign(self.labeled, name=self.definition.name,
                                      store=store, jobs=self.jobs,
                                      dispatch=backend, metrics=registry)
            seconds = time.perf_counter() - start
            children = sum(vm_hwm_mb(pid) for pid in child_pids(os.getpid()))
        finally:
            backend.close()
        return seconds, result, children, registry

    def _iterate(self, ctx: Context, tally: Tally, index: int, traced: bool,
                 sample: Dict[str, List], layers: Dict[str, List]) -> None:
        tracer = ctx.tracer
        for _ in range(EXTRA_SETUPS):
            seconds, root, store = self._setup(ctx)
            store.close()
            shutil.rmtree(root, ignore_errors=True)
            sample["setup_s"].append(seconds)
        seconds, root, store = self._setup(ctx)
        sample["setup_s"].append(seconds)
        try:
            with store:
                cold_s, cold, children, registry = self._campaign(
                    ctx, store, traced, f"cold-{index}", sample["turnaround"])
                stats = store.stats()
                warm_s, warm, _children, _registry = self._campaign(
                    ctx, store, traced, f"warm-{index}", [])
        finally:
            shutil.rmtree(root, ignore_errors=True)
        sample["cold_s"].append(cold_s)
        sample["warm_s"].append(warm_s)
        if not traced:
            self.report.sample("cold_s", time.perf_counter(), cold_s)
            self.report.sample("warm_s", time.perf_counter(), warm_s)
        sample["children_mb"].append(children)
        if traced:
            for name, value in _cold_layers(tracer, f"cold-{index}",
                                            registry).items():
                layers.setdefault(name, []).append(value)
            warm_run = f"warm-{index}"
            layers.setdefault("store.get_many_s", []).append(
                tracer.total_s(warm_run, "store.get_many"))
            layers.setdefault("store.get_many_keys", []).append(
                tracer.counted(warm_run, "store.get_many_keys"))
            layers.setdefault("store.bytes_per_entry", []).append(
                stats["shard_bytes"] / max(1, stats["entries"]))
        self._gate(ctx, tally, cold, warm)

    def _gate(self, ctx: Context, tally: Tally, cold, warm) -> None:
        tasks = len(self.labeled)
        tally.check(cold.ok and cold.misses == tasks,
                    f"cold run: {len(cold.errors)} errors, "
                    f"{cold.misses}/{tasks} executed")
        tally.check(warm.ok and warm.hits == tasks,
                    f"warm run: {warm.hits}/{tasks} hits")
        cold_doc = _document(self.definition, cold)
        reference = (ctx.reference.get(self.name)
                     if ctx.seed == DEFAULT_SEED else None)
        failures = document_failures(cold_doc, _document(self.definition,
                                                         warm), reference)
        tally.check(not failures, "; ".join(failures))
        self.digest = sha256_text(cold_doc)
        self.last_cold = cold

    def run(self, ctx: Context, tally: Tally) -> Report:
        self.definition, self.labeled = self.make(ctx.seed)
        rounds = sum(spec.n_rounds for _label, spec in self.labeled)
        report = self.report = Report()
        samples = {traced: {"setup_s": [], "cold_s": [], "warm_s": [],
                            "children_mb": [], "turnaround": []}
                   for traced in (False, True)}
        layers: Dict[str, List] = {}
        for index, traced in ctx.turns(MIN_ITERATIONS):
            with ctx.measuring(traced):
                self._iterate(ctx, tally, index, traced, samples[traced],
                              layers)
        e2e = {}
        for traced, sample in samples.items():
            if not sample["cold_s"]:
                continue
            cold_s = median(sample["cold_s"])
            e2e[traced] = {
                "setup_s": median(sample["setup_s"]),
                "rounds_per_s": rounds / cold_s,
                "cold_s": cold_s,
                "warm_s": median(sample["warm_s"]),
                "peak_rss_mb": (vm_hwm_mb(os.getpid())
                                + max(sample["children_mb"])),
            }
        report.e2e = e2e[False]
        report.detail["samples"] = len(samples[False]["cold_s"])
        if ctx.trace:
            turnaround = samples[True]["turnaround"]
            report.traced_e2e = e2e[True]
            report.layers = {name: median(values)
                             for name, values in layers.items()}
            report.layers["runner.turnaround_p50_ms"] = 1e3 * percentile(
                turnaround, 50)
            report.layers["runner.turnaround_p99_ms"] = 1e3 * percentile(
                turnaround, 99)
            report.layers["trace.overhead_frac"] = overhead(
                report.e2e["cold_s"], report.traced_e2e["cold_s"])
        self._extra_gate(ctx, tally)
        report.digests[self.name] = self.digest
        return report

    def _extra_gate(self, ctx: Context, tally: Tally) -> None:
        """campaign-pool: every Sec. 8 guarantee held in the last run."""
        summary = self.definition.aggregate(self.last_cold.results)
        tally.check(summary.all_passed,
                    "Sec. 8 validation aggregate did not all pass")


class _MonteCarlo(_Workload):
    def _extra_gate(self, ctx: Context, tally: Tally) -> None:
        """One seeded replicate re-run on the event backend must agree."""
        index = random.Random(f"perfbench-mc-{ctx.seed}").randrange(
            len(self.labeled))
        label, spec = self.labeled[index]
        event = execute(spec.with_updates(backend="event"))
        tally.check(event == self.last_cold.results[index],
                    f"event backend disagrees on {label}")


def run_pool(ctx: Context, tally: Tally) -> Report:
    return _Workload("campaign-pool", pool_campaign, jobs=2).run(ctx, tally)


def run_montecarlo(ctx: Context, tally: Tally) -> Report:
    return _MonteCarlo("montecarlo-vec", montecarlo_campaign,
                       jobs=1).run(ctx, tally)
