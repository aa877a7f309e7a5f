"""The benchmark's own tests: inputs, metric names, gates, tracer.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import gates
import generators
import metrics
from tracing import Tracer

from repro.campaign import result_document, run_campaign
from repro.core.diagnostic import TRACE_ALL
from repro.obs.export import render_json
from repro.obs.registry import MetricsRegistry
from repro.spec import build
from repro.vec import run_batch

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- generators ---------------------------------------------------------
@pytest.mark.parametrize("make", [
    generators.oracle_spec,
    lambda seed: generators.pool_campaign(seed)[1],
    lambda seed: generators.montecarlo_campaign(seed)[1],
    generators.service_warm_set,
    lambda seed: [list(itertools.islice(
        generators.service_ops(seed, client, 8), 200))
        for client in range(generators.SERVICE_CLIENTS)],
])
def test_generators_are_deterministic_per_seed(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_fresh_service_specs_never_repeat():
    bodies = [json.dumps(arg, sort_keys=True)
              for client in range(generators.SERVICE_CLIENTS)
              for kind, arg in itertools.islice(
                  generators.service_ops(0, client, 8), 2000)
              if kind == "fresh"]
    assert len(bodies) == len(set(bodies)) > 100


def test_seeds_shift_only_the_cluster_seed():
    _definition, base = generators.pool_campaign(0)
    _definition, shifted = generators.pool_campaign(2)
    for (label_a, spec_a), (label_b, spec_b) in zip(base, shifted):
        assert label_a == label_b
        assert spec_b.cluster.seed == spec_a.cluster.seed + \
            2 * generators.POOL_REPS
        assert spec_b.with_updates(cluster=spec_a.cluster) == spec_a


# -- metric names -------------------------------------------------------
def test_benchmark_json_matches_metric_definitions():
    bench = _benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == \
        list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == \
        [(m.name, m.unit, m.better) for m in metrics.END_TO_END]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]


def test_metric_names_and_units_follow_the_grammar():
    bench = _benchmark_json()
    entries = (bench["workloads"] + bench["end_to_end"]
               + bench["per_layer"])
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.match(name), name
    for entry in bench["end_to_end"] + bench["per_layer"]:
        assert metrics.UNIT_RE.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in bench["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in bench["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_layer_metric_names_what_it_should_move():
    e2e = {m.name for m in metrics.END_TO_END}
    for metric in metrics.PER_LAYER:
        if metric.name == "trace.overhead_frac":
            continue
        moved, workload = metric.moves
        assert moved in e2e and workload in metrics.WORKLOADS, metric
        assert workload not in metric.flat
        assert set(metric.flat) <= set(metrics.WORKLOADS)


def test_readme_documents_every_metric():
    with open(os.path.join(BENCH, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert f"`{metric.name}`" in readme, metric.name


# -- gates: a passing input, then one flipped bit or byte ----------------
@pytest.fixture(scope="module")
def oracle_outputs():
    spec = generators.oracle_spec(0)
    small = spec.with_updates(
        protocol=replace(spec.protocol, n_nodes=8,
                         criticalities=(1,) * 8),
        cluster=replace(spec.cluster, trace_level=TRACE_ALL), n_rounds=12)
    registry = MetricsRegistry()
    cluster = build(small, metrics=registry)
    cluster.run_rounds(small.n_rounds)
    nodes = cluster.obedient_node_ids()
    event = {n: cluster.health_vectors(n) for n in nodes}
    vectorized = {n: run_batch(small).view(0).health_vectors(n)
                  for n in nodes}
    counters = registry.snapshot()["counters"]
    return event, vectorized, counters


def _flip_one_bit(histories):
    flipped = {node: dict(rounds) for node, rounds in histories.items()}
    node = min(flipped)
    d_round = min(flipped[node])
    hv = list(flipped[node][d_round])
    hv[0] ^= 1
    flipped[node][d_round] = tuple(hv)
    return flipped


def test_oracle_gate_passes_then_fails_on_one_flipped_bit(oracle_outputs):
    event, vectorized, counters = oracle_outputs
    reference = gates.oracle_digest(event, counters)
    assert gates.oracle_failures(event, vectorized, counters,
                                 reference) == []
    flipped = _flip_one_bit(event)
    assert gates.oracle_failures(flipped, vectorized, counters, reference)
    # The same flip on both backends and every node still breaks the
    # reference digest.
    everywhere = {node: _flip_one_bit({node: rounds})[node]
                  for node, rounds in event.items()}
    assert gates.consistency_failures(everywhere) == []
    assert gates.oracle_failures(everywhere, everywhere, counters,
                                 reference)


def test_document_gate_fails_on_one_flipped_byte():
    definition, labeled = generators.pool_campaign(0)
    labeled = labeled[:4]
    definition = replace(definition, labeled_specs=labeled)
    text = render_json(result_document(definition, run_campaign(labeled)))
    reference = gates.sha256_text(text)
    assert gates.document_failures(text, text, reference) == []
    index = len(text) // 2
    flipped = text[:index] + chr(ord(text[index]) ^ 1) + text[index + 1:]
    assert gates.document_failures(text, flipped, reference)
    assert gates.document_failures(flipped, flipped, reference)


def test_reference_digests_cover_the_gated_workloads():
    reference = gates.load_reference()
    assert set(reference) == {"oracle-ge64", "campaign-pool",
                              "montecarlo-vec"}


# -- tracer ---------------------------------------------------------------
def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.enabled = True
    tracer.run_id = "r"
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
        tracer.count("calls", 3)
    calls, total, self_ns = tracer.totals[("r", "outer")]
    assert calls == 1
    assert self_ns == total - tracer.totals[("r", "inner")][1]
    assert tracer.counted("r", "calls") == 3
    assert tracer.spans[1][3] == 0  # inner's parent is outer


# -- the command without the program --------------------------------------
def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-ge64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
