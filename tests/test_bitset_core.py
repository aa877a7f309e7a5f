"""Unit tests for the packed diagnostic matrix (repro.core.bitmatrix).

The contract under test: the tuple-level accessors of
:class:`BitDiagnosticMatrix` agree with references computed straight
from the unpacked rows, its packed analysis decides every column like
the pure ``h_maj`` reference, and :class:`AnalysisCache` memoises per
distinct matrix per diagnosed round without changing a single
decision.  Cluster-level agreement with list-based reference services
is pinned by the differential fuzz in ``test_fastpath_equivalence.py``.
"""

import random

import pytest

from repro.core import bitmatrix
from repro.core.bitmatrix import (
    AnalysisCache,
    BitDiagnosticMatrix,
    pack_syndrome,
    pack_syndrome_cached,
    packed_if_valid,
    unpack_syndrome,
)
from repro.core.syndrome import EPSILON, is_valid_syndrome
from repro.core.voting import BOTTOM, h_maj_explain
from repro.obs import MetricsRegistry


def random_rows(rng, n, eps_p=0.25):
    """A random row set mixing syndromes and ε."""
    rows = []
    for _ in range(n):
        if rng.random() < eps_p:
            rows.append(EPSILON)
        else:
            rows.append(tuple(rng.randrange(2) for _ in range(n)))
    return rows


class TestPacking:
    def test_roundtrip(self):
        rng = random.Random(0)
        for n in (1, 4, 7, 16, 64):
            for _ in range(20):
                syndrome = tuple(rng.randrange(2) for _ in range(n))
                assert unpack_syndrome(pack_syndrome(syndrome), n) == syndrome

    def test_bit_convention(self):
        # Bit j-1 is the opinion about node j.
        assert pack_syndrome((1, 0, 0)) == 0b001
        assert pack_syndrome((0, 0, 1)) == 0b100

    def test_cached_matches_uncached(self):
        s = (1, 0, 1, 1)
        assert pack_syndrome_cached(s) == pack_syndrome(s)
        assert pack_syndrome_cached(s) == pack_syndrome_cached(tuple(s))


class _FalsyOne(int):
    """Equal (and hash-equal) to 1, yet false: forged junk a value-keyed
    memo would confuse with a canonical 1."""

    def __bool__(self):
        return False


def validate_then_pack(payload, n):
    return pack_syndrome(payload) if is_valid_syndrome(payload, n) else None


def payload_zoo(rng, n):
    """Canonical syndromes plus everything aggregation must reject or
    decode without the memo."""
    canonical = tuple(rng.randrange(2) for _ in range(n))
    yield canonical
    yield tuple(float(v) for v in canonical)
    yield tuple(bool(v) for v in canonical)
    yield tuple(_FalsyOne(1) if v else 0 for v in canonical)
    yield list(canonical)
    yield tuple(list(canonical))          # equal value, another object
    yield canonical[:-1]
    yield canonical + (1,)
    yield (canonical,) + canonical[1:]    # nested
    yield tuple(2 if i == 0 else v for i, v in enumerate(canonical))
    yield (None,) * n
    yield "1" * n
    yield {"diag": canonical}
    yield 42
    yield None


class TestPackedIfValid:
    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(bitmatrix, "_VALID_PACKED", {})

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_validate_then_pack(self, seed):
        rng = random.Random(seed)
        for n in (1, 3, 4, 16):
            zoo = list(payload_zoo(rng, n))
            # Twice: the second pass runs against a filled memo.
            for payload in zoo + zoo:
                assert (packed_if_valid(payload, n)
                        == validate_then_pack(payload, n)), payload

    def test_value_equal_payloads_after_a_memoised_canonical_one(self):
        canonical = (1, 0, 1, 1)
        assert packed_if_valid(canonical, 4) == 0b1101
        assert canonical in bitmatrix._VALID_PACKED
        for payload in ((1.0, 0.0, 1.0, 1.0), (True, False, True, True),
                        (_FalsyOne(1), 0, 1, 1), tuple([1, 0, 1, 1])):
            assert payload == canonical
            assert (packed_if_valid(payload, 4)
                    == validate_then_pack(payload, 4)), payload
        assert packed_if_valid((_FalsyOne(1), 0, 1, 1), 4) == 0b1100
        # Same tuple, another cluster size: not a syndrome.
        assert packed_if_valid(canonical, 5) is None

    def test_memo_holds_only_exact_int_tuples(self):
        rng = random.Random(9)
        for payload in payload_zoo(rng, 4):
            packed_if_valid(payload, 4)
            assert bitmatrix._VALID_PACKED
            for key, (validated, _packed) in bitmatrix._VALID_PACKED.items():
                assert validated == key
                for value in (key, validated):
                    assert all(type(v) is int and v in (0, 1) for v in value)

    def test_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(bitmatrix, "_VALID_PACKED_LIMIT", 8)
        for value in range(64):
            payload = unpack_syndrome(value, 6)
            assert packed_if_valid(payload, 6) == value
            assert len(bitmatrix._VALID_PACKED) <= 8

    @pytest.mark.parametrize("seed", range(5))
    def test_from_payloads_matches_row_by_row_aggregation(self, seed):
        rng = random.Random(seed)
        n = rng.choice((4, 7, 16))
        shared = tuple(rng.randrange(2) for _ in range(n))
        zoo = list(payload_zoo(rng, n))
        payloads = [shared if rng.random() < 0.5 else rng.choice(zoo)
                    for _ in range(n)]
        validity = [rng.randrange(2) for _ in range(n)]
        active = [int(rng.random() < 0.8) for _ in range(n)]
        expected = BitDiagnosticMatrix(n)
        for m in range(1, n + 1):
            bits = validate_then_pack(payloads[m - 1], n)
            if validity[m - 1] and active[m - 1] and bits is not None:
                expected.set_row_bits(m, bits)
        matrix = BitDiagnosticMatrix.from_payloads(n, payloads, validity,
                                                   active)
        assert matrix.key() == expected.key()
        assert matrix.uniform_row() is None


def reference_column(rows, accused):
    """Opinions about ``accused`` in sender order, self-opinion dropped."""
    return [EPSILON if row is EPSILON else row[accused - 1]
            for sender, row in enumerate(rows, start=1) if sender != accused]


def reference_disagree_mask(rows, cons_hv):
    """Row-by-row minority predicate: senders whose syndrome differs
    from ``cons_hv`` anywhere but their own column (ε rows never)."""
    n = len(rows)
    mask = 0
    for j, row in enumerate(rows, start=1):
        if row is EPSILON:
            continue
        for m in range(1, n + 1):
            if m != j and row[m - 1] != cons_hv[m - 1]:
                mask |= 1 << (j - 1)
                break
    return mask


def reference_render_cells(rows, sender):
    """The Table 1 cells of one accuser line."""
    row = rows[sender - 1]
    if row is EPSILON:
        return ["ε"] * len(rows)
    return ["-" if j == sender else str(row[j - 1])
            for j in range(1, len(rows) + 1)]


class TestApiParity:
    @pytest.mark.parametrize("seed", range(10))
    def test_accessors_match_tuple_matrix(self, seed):
        rng = random.Random(seed)
        n = rng.choice((3, 4, 8, 16))
        rows = random_rows(rng, n)
        bit = BitDiagnosticMatrix.from_rows(rows)
        assert bit.epsilon_rows() == sum(1 for r in rows if r is EPSILON)
        lines = bit.render().splitlines()
        assert lines[0].split() == ["accuser", "|"] + [
            str(j) for j in range(1, n + 1)]
        for sender in range(1, n + 1):
            assert lines[1 + sender].split("|")[1].split() == \
                reference_render_cells(rows, sender)
        for j in range(1, n + 1):
            assert bit.row(j) == rows[j - 1]
            assert bit.column(j) == reference_column(rows, j)
        hv = [rng.randrange(2) for _ in range(n)]
        assert bit.disagree_mask(hv) == reference_disagree_mask(rows, hv)

    def test_uniform_constructor_parity(self):
        row = (1, 0, 1, 1)
        bit = BitDiagnosticMatrix.uniform(4, row)
        assert bit.uniform_row() == row
        assert [bit.row(j) for j in range(1, 5)] == [row] * 4
        general = BitDiagnosticMatrix.from_rows([row] * 4)
        assert general.key() == bit.key()
        assert general.uniform_row() is None

    def test_set_row_clears_uniform_marker(self):
        bit = BitDiagnosticMatrix.uniform(4, (1, 1, 1, 1))
        bit.set_row(2, EPSILON)
        assert bit.uniform_row() is None
        assert bit.row(2) is EPSILON

    def test_validation_parity(self):
        bit = BitDiagnosticMatrix(4)
        with pytest.raises(ValueError):
            bit.set_row(1, (1, 0))          # wrong length
        with pytest.raises(ValueError):
            bit.set_row(1, (1, 0, 2, 0))    # non-binary
        with pytest.raises(ValueError):
            bit.set_row(5, (1, 0, 1, 0))    # bad node id
        with pytest.raises(ValueError):
            bit.column(0)

    def test_epsilon_key_is_canonical(self):
        # Installing then erasing a row restores the exact key, so the
        # analysis memo cannot be split by dead row bits.
        a = BitDiagnosticMatrix(4)
        b = BitDiagnosticMatrix(4)
        b.set_row(2, (1, 1, 1, 1))
        b.set_row(2, EPSILON)
        assert a.key() == b.key()


class TestConverters:
    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_is_lossless(self, seed):
        """Tuple rows -> packed matrix -> tuple rows loses nothing."""
        rng = random.Random(seed)
        n = rng.choice((4, 8, 16))
        rows = random_rows(rng, n)
        bit = BitDiagnosticMatrix.from_rows(rows)
        back = [bit.row(j) for j in range(1, n + 1)]
        assert back == rows
        assert BitDiagnosticMatrix.from_rows(back).key() == bit.key()


class TestAnalyse:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_column_h_maj(self, seed):
        rng = random.Random(100 + seed)
        n = rng.choice((3, 4, 8, 16))
        rows = random_rows(rng, n, eps_p=rng.choice((0.0, 0.3, 1.0)))
        bit = BitDiagnosticMatrix.from_rows(rows)
        decisions, reasons, n_bottom, n_majority, n_default = bit.analyse()
        expected = [h_maj_explain(bit.column(j)) for j in range(1, n + 1)]
        assert list(decisions) == [d for d, _r in expected]
        assert list(reasons) == [r for _d, r in expected]
        assert n_bottom == sum(1 for _d, r in expected if r == "bottom")
        assert n_majority == sum(1 for _d, r in expected if r == "majority")
        assert n_default == sum(1 for _d, r in expected if r == "default")

    def test_all_epsilon_is_all_bottom(self):
        decisions, reasons, n_bottom, _m, _d = BitDiagnosticMatrix(4).analyse()
        assert set(decisions) == {BOTTOM}
        assert set(reasons) == {"bottom"}
        assert n_bottom == 4


class TestAnalysisCache:
    def test_hit_after_store_within_round(self):
        registry = MetricsRegistry()
        cache = AnalysisCache(registry)
        matrix = BitDiagnosticMatrix.uniform(4, (1, 1, 1, 1))
        key = matrix.key()
        assert cache.lookup(5, key) is None
        entry = matrix.analyse()
        cache.store(key, entry)
        assert cache.lookup(5, key) is entry
        counters = registry.snapshot()["counters"]
        assert counters["vote.cache_miss"] == 1
        assert counters["vote.cache_hit"] == 1

    def test_round_rollover_clears(self):
        cache = AnalysisCache()
        matrix = BitDiagnosticMatrix.uniform(4, (1, 1, 1, 1))
        key = matrix.key()
        cache.lookup(5, key)
        cache.store(key, matrix.analyse())
        assert cache.lookup(5, key) is not None
        assert cache.lookup(6, key) is None  # new round, cold cache

    def test_distinct_matrices_miss(self):
        cache = AnalysisCache()
        a = BitDiagnosticMatrix.uniform(4, (1, 1, 1, 1))
        b = BitDiagnosticMatrix.uniform(4, (1, 0, 1, 1))
        cache.lookup(1, a.key())
        cache.store(a.key(), a.analyse())
        assert cache.lookup(1, b.key()) is None
        assert cache.lookup(1, a.key()) is not None

    def test_null_registry_default(self):
        # No metrics attached: still functions, just uncounted.
        cache = AnalysisCache()
        matrix = BitDiagnosticMatrix(3)
        assert cache.lookup(0, matrix.key()) is None


class TestEscapeHatch:
    """The one wiring: every service aggregates packed matrices and all
    services of a cluster share one analysis cache."""

    def test_bitset_default_uses_bit_matrices(self):
        from repro import DiagnosedCluster, uniform_config

        dc = DiagnosedCluster(uniform_config(4, penalty_threshold=3,
                                             reward_threshold=50),
                              seed=0)
        dc.run_rounds(8)
        assert dc.consistent_health_history()
        assert isinstance(dc.service(1)._last_matrix, BitDiagnosticMatrix)
        # All services share one cluster-wide cache.
        caches = {id(s._analysis_cache) for s in dc.services.values()}
        assert len(caches) == 1

    def test_shared_cache_hits_across_nodes(self):
        from repro import DiagnosedCluster, uniform_config

        registry = MetricsRegistry()
        dc = DiagnosedCluster(uniform_config(4, penalty_threshold=3,
                                             reward_threshold=50),
                              seed=0, metrics=registry)
        from repro.faults import SlotBurst
        dc.cluster.add_scenario(SlotBurst(dc.cluster.timebase, 5, 2, 1))
        dc.run_rounds(12)
        counters = registry.snapshot()["counters"]
        # Fault rounds defeat the uniform shortcut, and then N-1 nodes
        # reuse the first node's analysis.
        assert counters["vote.cache_hit"] > 0
        assert counters["vote.cache_hit"] > counters["vote.cache_miss"]
