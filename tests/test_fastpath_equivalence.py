"""Fast-path vs slow-path bit-exactness.

The batched slot delivery fast path (``Bus.transmit_quiescent`` gated
by ``InjectionLayer.is_quiescent``) is an optimisation, not a semantic
variant: for every seed and every scenario mix the cluster must produce
byte-identical traces and identical health vectors whether the fast
path is enabled or forced off (the slow leg clears ``Bus.fast_path``
on the built cluster).  These tests pin that contract on
fault-free runs and on runs with deterministic and stochastic
injections (the stochastic ones also exercise the "same RNG draws"
requirement — a single skipped or extra draw would desynchronise every
subsequent verdict).
"""

import json

import pytest

from repro.core.config import uniform_config
from repro.core.service import DiagnosedCluster
from repro.faults.processes import (
    IntermittentSender,
    PoissonTransients,
    RandomSlotNoise,
)
from repro.faults.scenarios import SenderFault, SlotBurst

FAULT_ROUND = 5
ROUNDS = 20


def _no_scenarios(dc):
    return ()


def _slot_burst(dc):
    return (SlotBurst(dc.cluster.timebase, FAULT_ROUND, 2, 1),)


def _long_burst(dc):
    return (SlotBurst(dc.cluster.timebase, FAULT_ROUND, 1,
                      2 * dc.config.n_nodes),)


def _sender_fault(dc):
    return (SenderFault(1, kind="benign",
                        rounds=[FAULT_ROUND, FAULT_ROUND + 2]),)


def _stochastic_mix(dc):
    streams = dc.cluster.streams
    return (
        PoissonTransients(rate=200.0, burst_length=0.5e-3,
                          rng=streams.stream("transients")),
        IntermittentSender(2, mean_reappearance_rounds=4,
                           rng=streams.stream("intermittent")),
        RandomSlotNoise(0.05, rng=streams.stream("noise")),
    )


SCENARIO_BUILDERS = [
    _no_scenarios,
    _slot_burst,
    _long_burst,
    _sender_fault,
    _stochastic_mix,
]


def run_cluster(n_nodes, fast_path, builder, seed=0, trace_level=2):
    config = uniform_config(n_nodes, penalty_threshold=3,
                            reward_threshold=50)
    dc = DiagnosedCluster(config, seed=seed, trace_level=trace_level)
    dc.cluster.bus.fast_path = fast_path
    for scenario in builder(dc):
        dc.cluster.add_scenario(scenario)
    dc.run_rounds(ROUNDS)
    return dc


@pytest.mark.parametrize("n_nodes", [4, 8])
@pytest.mark.parametrize("builder", SCENARIO_BUILDERS,
                         ids=lambda b: b.__name__.lstrip("_"))
class TestFastSlowEquivalence:
    def test_traces_byte_identical(self, n_nodes, builder):
        fast = run_cluster(n_nodes, True, builder)
        slow = run_cluster(n_nodes, False, builder)
        fast_dicts = fast.trace.to_dicts()
        slow_dicts = slow.trace.to_dicts()
        assert fast_dicts == slow_dicts
        assert (json.dumps(fast_dicts, sort_keys=True) ==
                json.dumps(slow_dicts, sort_keys=True))

    def test_health_vectors_identical(self, n_nodes, builder):
        fast = run_cluster(n_nodes, True, builder)
        slow = run_cluster(n_nodes, False, builder)
        for node in range(1, n_nodes + 1):
            assert fast.health_vectors(node) == slow.health_vectors(node)
        assert (fast.consistent_health_history() ==
                slow.consistent_health_history())


@pytest.mark.parametrize("n_nodes", [4, 8])
def test_traceless_runs_match_rounds_and_counters(n_nodes):
    """At trace_level=0 the paths still agree on all protocol state."""
    fast = run_cluster(n_nodes, True, _stochastic_mix, trace_level=0)
    slow = run_cluster(n_nodes, False, _stochastic_mix, trace_level=0)
    assert fast.cluster.rounds_completed == slow.cluster.rounds_completed
    for node in range(1, n_nodes + 1):
        assert (str(fast.service(node).pr.snapshot()) ==
                str(slow.service(node).pr.snapshot()))
        assert fast.service(node).active == slow.service(node).active


def test_fast_path_skips_injection_machinery():
    """Sanity: quiescent slots never reach ``InjectionLayer.apply``."""
    calls = {True: 0, False: 0}

    def counting(dc, key):
        layer = dc.cluster.bus.injection
        original = layer.apply

        def apply(ctx):
            calls[key] += 1
            return original(ctx)

        layer.apply = apply

    config = uniform_config(4, penalty_threshold=3, reward_threshold=50)
    for fast_path in (True, False):
        dc = DiagnosedCluster(config, seed=0)
        dc.cluster.bus.fast_path = fast_path
        counting(dc, fast_path)
        dc.run_rounds(ROUNDS)
    assert calls[True] == 0
    assert calls[False] > 0


# ---------------------------------------------------------------------------
# Differential fuzz: random scenario mixes, fast vs slow, serial vs pool
# ---------------------------------------------------------------------------
#
# Each case seed deterministically derives a cluster size, a mix of
# 1-3 fault scenarios (deterministic and stochastic) and their
# parameters.  For every case the fast and slow paths must produce
# byte-identical traces and — because metering is purely observational
# — identical metrics snapshots, except for the two counters that
# *describe the execution strategy itself* (``bus.slots_fast_path`` /
# ``bus.slots_slow_path``), which are expected to differ and are
# excluded from the comparison.  A subset of cases is additionally run
# through the process pool to pin ``jobs=1 == jobs=4``.

import random as _random
from unittest import mock

from repro.core import service as core_service
from repro.core.diagnostic import DiagnosticService
from repro.core.lowlatency import LowLatencyDiagnosticService
from repro.core.membership import MembershipService
from repro.core.service import LowLatencyCluster, MembershipCluster
from repro.core.syndrome import EPSILON, is_valid_syndrome
from repro.core.voting import h_maj, h_maj_explain
from repro.faults.scenarios import crash
from repro.obs import MetricsRegistry
from repro.runner.pool import Task, run_tasks
from repro.tt.controller import DIAG_CHANNEL

FUZZ_CASES = 50
FUZZ_NODES = (4, 8, 16)
FUZZ_ROUNDS = 10
#: Counters describing *how* the run executed rather than *what* the
#: protocol did; legitimately different between fast and slow runs.
EXECUTION_COUNTERS = frozenset(
    {"bus.slots_fast_path", "bus.slots_slow_path"})
#: Superset also covering the packed-analysis strategy counters, which
#: the list-based reference services below never touch.
STRATEGY_COUNTERS = EXECUTION_COUNTERS | frozenset(
    {"vote.cache_hit", "vote.cache_miss", "vote.popcount_votes",
     "syndrome.intern_evictions"})


def _fuzz_scenarios(dc, case_seed):
    """Deterministic random scenario mix for one fuzz case."""
    rng = _random.Random(case_seed)
    n = dc.config.n_nodes
    tb = dc.cluster.timebase
    streams = dc.cluster.streams
    scenarios = []
    for i in range(rng.randint(1, 3)):
        kind = rng.choice(("slot-burst", "long-burst", "sender", "crash",
                           "poisson", "intermittent", "noise"))
        if kind == "slot-burst":
            scenarios.append(SlotBurst(tb, rng.randint(2, 6),
                                       rng.randint(1, n), rng.randint(1, n)))
        elif kind == "long-burst":
            scenarios.append(SlotBurst(tb, rng.randint(2, 5), 1,
                                       rng.randint(n, 2 * n)))
        elif kind == "sender":
            first = rng.randint(2, 6)
            scenarios.append(SenderFault(
                rng.randint(1, n), kind="benign",
                rounds=[first, first + rng.randint(1, 3)]))
        elif kind == "crash":
            scenarios.append(crash(rng.randint(1, n),
                                   from_round=rng.randint(3, 7)))
        elif kind == "poisson":
            scenarios.append(PoissonTransients(
                rate=rng.choice((50.0, 200.0)), burst_length=0.5e-3,
                rng=streams.stream(f"fuzz-poisson-{i}")))
        elif kind == "intermittent":
            scenarios.append(IntermittentSender(
                rng.randint(1, n),
                mean_reappearance_rounds=rng.randint(2, 6),
                rng=streams.stream(f"fuzz-intermittent-{i}")))
        else:
            scenarios.append(RandomSlotNoise(
                rng.choice((0.02, 0.08)),
                rng=streams.stream(f"fuzz-noise-{i}")))
    return scenarios


def _run_fuzz_case(case_seed, fast_path):
    n_nodes = FUZZ_NODES[case_seed % len(FUZZ_NODES)]
    config = uniform_config(n_nodes, penalty_threshold=3,
                            reward_threshold=50)
    registry = MetricsRegistry()
    dc = DiagnosedCluster(config, seed=case_seed, trace_level=2,
                          metrics=registry)
    dc.cluster.bus.fast_path = fast_path
    for scenario in _fuzz_scenarios(dc, case_seed):
        dc.cluster.add_scenario(scenario)
    dc.run_rounds(FUZZ_ROUNDS)
    return (json.dumps(dc.trace.to_dicts(), sort_keys=True),
            registry.snapshot())


def _semantic(snapshot):
    """A snapshot with all strategy counters dropped."""
    return {**snapshot,
            "counters": {name: value
                         for name, value in snapshot["counters"].items()
                         if name not in STRATEGY_COUNTERS}}


def _fuzz_worker(case_seed):
    """Picklable pool worker: one fast-path metered fuzz case."""
    return _run_fuzz_case(case_seed, True)


VARIANT_KINDS = ("base", "membership", "lowlatency")


# ---------------------------------------------------------------------------
# List-based reference services
# ---------------------------------------------------------------------------
#
# The production services decide on packed bitmasks (one popcount vote
# per column, memoised cluster-wide).  These subclasses swap in the
# plain paper semantics — ``h_maj`` over each unpacked column, the
# row-by-row minority predicate, a dict of reports per low-latency
# slot — and meter exactly what the production path meters, so a run
# on them must agree byte-for-byte with a production run.


class ReferenceDiagnosticService(DiagnosticService):
    """Alg. 1 analysis as one ``h_maj`` per unpacked column, no memo."""

    def _vote(self, controller, matrix, d_round):
        n = self.config.n_nodes
        if self._m_on:
            self._m_analysis_rounds.inc()
            self._m_hmaj_calls.inc(n)
            self._m_eps_rows.observe(matrix.epsilon_rows())
            tallies = {"majority": self._m_hmaj_majority,
                       "bottom": self._m_hmaj_bottom,
                       "default": self._m_hmaj_default}
        cons_hv = []
        for j in range(1, n + 1):
            diag, reason = h_maj_explain(matrix.column(j))
            if self._m_on:
                tallies[reason].inc()
            if reason == "bottom":
                diag = self._bottom_fallback(controller, j, d_round)
            cons_hv.append(diag)
        return cons_hv


class _RowByRowMinority:
    """Exposes only the minority predicate, evaluated on unpacked rows."""

    def __init__(self, matrix):
        self.matrix = matrix

    def disagree_mask(self, cons_hv):
        n = self.matrix.n_nodes
        mask = 0
        for j in range(1, n + 1):
            row = self.matrix.row(j)
            if row is EPSILON:
                continue
            for m in range(1, n + 1):
                if m != j and row[m - 1] != cons_hv[m - 1]:
                    mask |= 1 << (j - 1)
                    break
        return mask


class ReferenceMembershipService(ReferenceDiagnosticService,
                                 MembershipService):
    """Sec. 7 with list votes and the row-by-row minority predicate."""

    def _post_analysis(self, al_dm, al_ls, cons_hv, k):
        self._last_matrix = _RowByRowMinority(self._last_matrix)
        return super()._post_analysis(al_dm, al_ls, cons_hv, k)


class ReferenceLowLatencyService(LowLatencyDiagnosticService):
    """Sec. 10 with a dict of reports per diagnosed slot.

    Each slot's verdict is ``h_maj`` over its reporters' opinions, and
    minority accusations walk the dict in report-insertion order —
    i.e. frame-delivery order.
    """

    def __init__(self, *args, **kwargs):
        self._reports = {}
        super().__init__(*args, **kwargs)

    def _on_delivery(self, sender, round_index, slot, valid, payload,
                     time=0.0):
        n = self.config.n_nodes
        opinions = self.node.controller.channel_of(payload, DIAG_CHANNEL)
        if (valid and is_valid_syndrome(opinions, n)
                and self.active[sender - 1]):
            for s in range(1, n + 1):
                r = round_index if s < slot else round_index - 1
                self._reports.setdefault((r, s), {})[sender] = opinions[s - 1]
        super()._on_delivery(sender, round_index, slot, valid, payload, time)

    def _slot_vote(self, target):
        reports = self._reports.get(target, {})
        return h_maj([reports.get(m, EPSILON)
                      for m in range(1, self.config.n_nodes + 1)
                      if m != target[1]])

    def _minority_accusations(self, target, diag):
        r, s = target
        for reporter, vote in self._reports.get(target, {}).items():
            if (reporter != s and vote != diag and self.active[reporter - 1]
                    and reporter not in self._accused):
                self._accused.add(reporter)
                self.trace.record(self._now, "clique", node=self.node_id,
                                  diagnosed_round=r, slot=s,
                                  accused=(reporter,))
                self._write_window()


def _asymmetric_faults(dc, case_seed):
    """One or two asymmetric (SOS) sender faults for a variant case.

    Only ``detectable_by`` receivers see each faulty frame, so the
    cluster splits into cliques and the membership flavours must
    accuse the minority (Sec. 7) — the paths the plain fuzz mix never
    reaches.
    """
    rng = _random.Random(7919 + case_seed)
    n = dc.config.n_nodes
    faults = []
    for _ in range(rng.randint(1, 2)):
        sender = rng.randint(1, n)
        others = [m for m in range(1, n + 1) if m != sender]
        detectors = rng.sample(others, rng.randint(1, len(others) - 1))
        first = rng.randint(2, 6)
        faults.append(SenderFault(sender, kind="asymmetric",
                                  rounds=[first, first + rng.randint(0, 2)],
                                  detectable_by=detectors))
    return faults


def _run_variant_case(case_seed, kind, reference=False, fast_path=True):
    """One metered fuzz case on a chosen cluster kind.

    ``reference`` swaps the production services for the list-based
    reference services above; ``fast_path=False`` forces every slot
    through the bus's slow path.
    """
    n_nodes = FUZZ_NODES[case_seed % len(FUZZ_NODES)]
    config = uniform_config(n_nodes, penalty_threshold=3,
                            reward_threshold=50)
    registry = MetricsRegistry()
    common = dict(seed=case_seed, trace_level=2, metrics=registry)
    if kind == "base":
        dc = DiagnosedCluster(config, **common, service_cls=(
            ReferenceDiagnosticService if reference else DiagnosticService))
    elif kind == "membership":
        dc = MembershipCluster(config, **common, service_cls=(
            ReferenceMembershipService if reference else MembershipService))
    else:
        service_cls = (ReferenceLowLatencyService if reference
                       else LowLatencyDiagnosticService)
        with mock.patch.object(core_service, "LowLatencyDiagnosticService",
                               service_cls):
            dc = LowLatencyCluster(config, **common, membership=True)
    dc.cluster.bus.fast_path = fast_path
    for scenario in (_fuzz_scenarios(dc, case_seed)
                     + _asymmetric_faults(dc, case_seed)):
        dc.cluster.add_scenario(scenario)
    dc.run_rounds(FUZZ_ROUNDS)
    return (json.dumps(dc.trace.to_dicts(), sort_keys=True),
            registry.snapshot())


def _variant_worker(case_seed, kind):
    """Picklable pool worker: one production variant fuzz case."""
    return _run_variant_case(case_seed, kind)


@pytest.mark.parametrize("case_seed", range(FUZZ_CASES))
def test_fuzz_fast_slow_differential(case_seed):
    fast_trace, fast_snap = _run_fuzz_case(case_seed, True)
    slow_trace, slow_snap = _run_fuzz_case(case_seed, False)
    assert fast_trace == slow_trace
    assert _semantic(fast_snap) == _semantic(slow_snap)
    # The strategy counters must still partition the same slot total.
    fast_c, slow_c = fast_snap["counters"], slow_snap["counters"]
    assert fast_c["bus.slots_total"] == slow_c["bus.slots_total"]
    assert (fast_c.get("bus.slots_fast_path", 0)
            + fast_c.get("bus.slots_slow_path", 0)
            == slow_c.get("bus.slots_fast_path", 0)
            + slow_c.get("bus.slots_slow_path", 0))
    assert slow_c.get("bus.slots_fast_path", 0) == 0


def test_fuzz_jobs_invariant():
    """The first ten fuzz cases through the pool: jobs=1 == jobs=4."""
    seeds = list(range(10))
    serial = run_tasks([Task(_fuzz_worker, (s,)) for s in seeds], jobs=1)
    parallel = run_tasks([Task(_fuzz_worker, (s,)) for s in seeds], jobs=4)
    assert serial == parallel


# ---------------------------------------------------------------------------
# Differential fuzz: packed (bitset) services vs list-based (tuple)
# reference services, per cluster kind
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", VARIANT_KINDS)
@pytest.mark.parametrize("case_seed", range(0, FUZZ_CASES, 2))
def test_fuzz_bitset_tuple_differential(case_seed, kind):
    """Production and reference services agree byte-for-byte.

    Covers the health vectors and verdicts, the ``clique``/``view``
    records of both membership flavours, and every semantic counter.
    """
    bit_trace, bit_snap = _run_variant_case(case_seed, kind)
    tup_trace, tup_snap = _run_variant_case(case_seed, kind, reference=True)
    assert bit_trace == tup_trace
    assert _semantic(bit_snap) == _semantic(tup_snap)
    # The reference services must not touch the packed strategy
    # counters: proof they really took the list-based path.
    tup_c = tup_snap["counters"]
    assert tup_c.get("vote.cache_hit", 0) == 0
    assert tup_c.get("vote.popcount_votes", 0) == 0


@pytest.mark.parametrize("case_seed", (1, 6, 11))
def test_fuzz_bitset_fastpath_matrix(case_seed):
    """Packed/reference services × fast/slow bus agree semantically."""
    results = {
        (reference, fast_path): _run_variant_case(
            case_seed, "base", reference=reference, fast_path=fast_path)
        for reference in (False, True) for fast_path in (True, False)}
    reference_trace, reference_snap = results[(False, True)]
    for combo, (trace, snap) in results.items():
        assert trace == reference_trace, combo
        assert _semantic(snap) == _semantic(reference_snap), combo


def test_fuzz_variants_jobs_invariant():
    """Variant fuzz cases through the pool: jobs=1 == jobs=4."""
    tasks = [Task(_variant_worker, (s, kind))
             for s in (0, 1, 2) for kind in VARIANT_KINDS]
    assert (run_tasks(tasks, jobs=1) == run_tasks(tasks, jobs=4))
