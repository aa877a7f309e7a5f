"""Unit tests for syndromes and the diagnostic matrix."""

import copy

import pytest

from repro.core.bitmatrix import BitDiagnosticMatrix
from repro.core.syndrome import (
    EPSILON,
    is_valid_syndrome,
    make_syndrome,
    opinion_about,
)


class TestEpsilon:
    def test_singleton(self):
        from repro.core.syndrome import _Epsilon
        assert _Epsilon() is EPSILON

    def test_deepcopy_preserves_identity(self):
        assert copy.deepcopy(EPSILON) is EPSILON

    def test_repr(self):
        assert repr(EPSILON) == "ε"


class TestMakeSyndrome:
    def test_freezes_to_tuple(self):
        assert make_syndrome([1, 0, 1]) == (1, 0, 1)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            make_syndrome([1, 2])

    def test_opinion_about_is_one_based(self):
        s = make_syndrome([1, 0, 1, 1])
        assert opinion_about(s, 2) == 0
        assert opinion_about(s, 1) == 1


class TestIsValidSyndrome:
    def test_accepts_tuples_and_lists(self):
        assert is_valid_syndrome((1, 0, 1, 1), 4)
        assert is_valid_syndrome([0, 0, 0, 0], 4)

    def test_rejects_wrong_length(self):
        assert not is_valid_syndrome((1, 0, 1), 4)

    def test_rejects_garbage(self):
        assert not is_valid_syndrome(None, 4)
        assert not is_valid_syndrome("1011", 4)
        assert not is_valid_syndrome((1, 0, 2, 1), 4)
        assert not is_valid_syndrome(42, 4)


class TestDiagnosticMatrix:
    def test_rows_default_to_epsilon(self):
        m = BitDiagnosticMatrix(4)
        assert m.row(1) is EPSILON

    def test_set_and_get_row(self):
        m = BitDiagnosticMatrix(4)
        m.set_row(2, (1, 1, 0, 1))
        assert m.row(2) == (1, 1, 0, 1)

    def test_row_length_checked(self):
        m = BitDiagnosticMatrix(4)
        with pytest.raises(ValueError):
            m.set_row(1, (1, 0))

    def test_column_excludes_self_opinion(self):
        m = BitDiagnosticMatrix.from_rows([
            (1, 1, 0, 0),
            (1, 0, 0, 0),   # node 2 thinks badly of itself: ignored
            EPSILON,
            (1, 1, 1, 1),
        ])
        # Column 2: opinions of nodes 1, 3, 4 about node 2.
        assert m.column(2) == [1, EPSILON, 1]

    def test_column_order_is_by_sender(self):
        m = BitDiagnosticMatrix.from_rows([
            (1, 0, 1, 1),
            (1, 1, 1, 1),
            (0, 1, 1, 1),
            (1, 1, 1, 0),
        ])
        assert m.column(1) == [1, 0, 1]
        assert m.column(4) == [1, 1, 1]

    def test_node_bounds_checked(self):
        m = BitDiagnosticMatrix(4)
        with pytest.raises(ValueError):
            m.column(0)
        with pytest.raises(ValueError):
            m.set_row(5, (1, 1, 1, 1))

    def test_render_paper_table1(self):
        m = BitDiagnosticMatrix.from_rows([
            (1, 1, 0, 0),
            (1, 1, 0, 0),
            EPSILON,
            EPSILON,
        ])
        # Table 1 of the paper: nodes 3 and 4 crashed, so their rows are
        # ε and nodes 1 and 2 accuse them; self-opinions render as '-'.
        assert m.render() == (
            "accuser |  1  2  3  4\n"
            "---------------------\n"
            "node  1 |  -  1  0  0\n"
            "node  2 |  1  -  0  0\n"
            "node  3 |  ε  ε  ε  ε\n"
            "node  4 |  ε  ε  ε  ε")


class TestMakeSyndromeNormalisation:
    def test_bools_normalise_to_ints(self):
        s = make_syndrome([True, False, 1, 0])
        assert s == (1, 0, 1, 0)
        assert all(type(bit) is int for bit in s)

    def test_floats_normalise_to_ints(self):
        s = make_syndrome([1.0, 0.0])
        assert s == (1, 0)
        assert all(type(bit) is int for bit in s)

    def test_json_serialises_as_numbers(self):
        import json
        assert json.dumps(make_syndrome([True, False])) == "[1, 0]"

    def test_validation_precedes_normalisation(self):
        # [True, 2] must raise, not silently coerce the 2.
        with pytest.raises(ValueError):
            make_syndrome([True, 2])

    def test_all_int_input_is_returned_unchanged(self):
        bits = (1, 0, 1)
        assert make_syndrome(bits) is bits


class TestInternCache:
    def setup_method(self):
        from repro.core.syndrome import clear_intern_cache
        clear_intern_cache()

    def teardown_method(self):
        from repro.core.syndrome import clear_intern_cache
        clear_intern_cache()

    def test_interns_to_one_object(self):
        from repro.core.syndrome import intern_syndrome
        a = intern_syndrome(tuple([1, 0, 1, 1]))
        b = intern_syndrome(tuple([1, 0, 1, 1]))
        assert a is b

    def test_scoped_per_length(self):
        from repro.core.syndrome import intern_cache_stats, intern_syndrome
        intern_syndrome((1, 0))
        intern_syndrome((1, 0, 1))
        stats = intern_cache_stats()
        assert stats["lengths"] == 2
        assert stats["entries"] == 2

    def test_clear_single_length(self):
        from repro.core.syndrome import (clear_intern_cache,
                                         intern_cache_stats, intern_syndrome)
        intern_syndrome((1, 0))
        intern_syndrome((1, 0, 1))
        clear_intern_cache(2)
        stats = intern_cache_stats()
        assert stats["lengths"] == 1
        assert stats["entries"] == 1

    def test_saturation_evicts_only_that_length(self):
        import itertools

        import repro.core.syndrome as syn

        class Counter:
            calls = 0

            def inc(self, n=1):
                Counter.calls += n

        counter = Counter()
        syn.intern_syndrome((1, 0, 1), counter)  # other length, untouched
        before = syn.intern_cache_stats()["evictions"]
        limit = syn._INTERN_LIMIT
        for bits in itertools.islice(itertools.product((0, 1), repeat=13),
                                     limit + 1):
            syn.intern_syndrome(bits, counter)
        stats = syn.intern_cache_stats()
        assert stats["evictions"] == before + 1
        assert Counter.calls == 1
        # The length-3 cache survived the length-13 eviction.
        assert syn.intern_syndrome((1, 0, 1)) is not None
        assert stats["lengths"] == 2


class TestColumnCache:
    """Columns are read from the current rows: no column computed
    before a ``set_row`` survives it."""

    def test_set_row_invalidates(self):
        m = BitDiagnosticMatrix.from_rows([
            (1, 0, 1, 1),
            (1, 1, 1, 1),
            (0, 1, 1, 1),
            (1, 1, 1, 0),
        ])
        assert m.column(2) == [0, 1, 1]
        m.set_row(3, (1, 0, 1, 1))
        assert m.column(2) == [0, 0, 1]


class TestDisagreeMask:
    def test_matches_naive_predicate(self):
        m = BitDiagnosticMatrix.from_rows([
            (1, 1, 0, 0),
            (1, 1, 0, 0),
            EPSILON,
            (1, 1, 1, 1),   # disagrees with cons_hv at columns 3/4
        ])
        cons_hv = [1, 1, 0, 0]
        assert m.disagree_mask(cons_hv) == 0b1000

    def test_self_opinion_ignored(self):
        m = BitDiagnosticMatrix.from_rows([
            (0, 1, 1),      # only deviates in its own column
            (1, 1, 1),
            (1, 1, 1),
        ])
        assert m.disagree_mask([1, 1, 1]) == 0
