"""Property-based hardening of the H-maj voting layer (hypothesis).

Complements :mod:`tests.test_properties` (which checks the Lemma 2
resilience bound) with the contracts the observability refactor leans
on: ``h_maj_explain`` is a pure annotation of ``h_maj``, voting is
invariant under vote permutation, unanimity always wins, and the
uniform-matrix identity shortcut used by the analysis fast path agrees
with the general per-column vote on arbitrary uniform matrices.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.bitmatrix import BitDiagnosticMatrix
from repro.core.syndrome import EPSILON, make_syndrome
from repro.core.voting import BOTTOM, h_maj, h_maj_explain

votes_strategy = st.lists(st.sampled_from([0, 1, EPSILON]),
                          min_size=0, max_size=15)


# ---------------------------------------------------------------------------
# h_maj_explain is h_maj plus a truthful reason
# ---------------------------------------------------------------------------
@given(votes_strategy)
def test_explain_decision_equals_h_maj(votes):
    decision, reason = h_maj_explain(votes)
    assert decision == h_maj(votes)
    assert reason in ("bottom", "majority", "default")


@given(votes_strategy)
def test_explain_reason_is_consistent_with_votes(votes):
    decision, reason = h_maj_explain(votes)
    surviving = [v for v in votes if v is not EPSILON]
    if reason == "bottom":
        assert not surviving
        assert decision is BOTTOM
    elif reason == "majority":
        # The decision occurs strictly more often than its complement.
        assert surviving.count(decision) > len(surviving) / 2
    else:  # default
        # Tied surviving votes; the protocol prefers availability.
        assert decision == 1
        assert surviving.count(0) == surviving.count(1) > 0


@given(votes_strategy, st.randoms(use_true_random=False))
def test_explain_permutation_invariant(votes, rnd):
    baseline = h_maj_explain(votes)
    shuffled = list(votes)
    rnd.shuffle(shuffled)
    assert h_maj_explain(shuffled) == baseline


# ---------------------------------------------------------------------------
# Unanimity
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=1),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=6))
def test_unanimity_wins_regardless_of_epsilon_padding(value, copies, eps):
    votes = [value] * copies + [EPSILON] * eps
    decision, reason = h_maj_explain(votes)
    assert decision == value
    assert reason == "majority"


# ---------------------------------------------------------------------------
# Uniform-matrix shortcut vs the general vote
# ---------------------------------------------------------------------------
@st.composite
def uniform_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    row = draw(st.lists(st.integers(min_value=0, max_value=1),
                        min_size=n, max_size=n))
    return BitDiagnosticMatrix.uniform(n, row), row


@given(uniform_matrices())
def test_uniform_shortcut_agrees_with_general_vote(pair):
    """The analysis skips voting when ``uniform_row`` is set; that is
    only sound if per-column H-maj over the same matrix would have
    produced exactly the shared row — for *any* row, not just the
    all-healthy one."""
    matrix, row = pair
    assert matrix.uniform_row() == make_syndrome(row)
    general = [h_maj(matrix.column(j))
               for j in range(1, matrix.n_nodes + 1)]
    assert general == list(row)
    assert list(matrix.analyse()[0]) == list(row)


@given(st.integers(min_value=2, max_value=10))
def test_all_healthy_uniform_matrix_has_no_epsilon_rows(n):
    matrix = BitDiagnosticMatrix.uniform(n, [1] * n)
    assert matrix.epsilon_rows() == 0
    assert matrix.uniform_row() == (1,) * n


@given(uniform_matrices(), st.data())
def test_set_row_clears_uniform_marker(pair, data):
    matrix, _row = pair
    sender = data.draw(st.integers(min_value=1, max_value=matrix.n_nodes))
    matrix.set_row(sender, EPSILON)
    assert matrix.uniform_row() is None
    assert matrix.epsilon_rows() == 1


# ---------------------------------------------------------------------------
# epsilon_rows ground truth
# ---------------------------------------------------------------------------
@given(st.integers(min_value=2, max_value=8), st.data())
def test_epsilon_rows_counts_exactly_the_missing_rows(n, data):
    missing = data.draw(st.sets(st.integers(min_value=1, max_value=n)))
    matrix = BitDiagnosticMatrix(n)
    for sender in range(1, n + 1):
        if sender not in missing:
            matrix.set_row(sender, [1] * n)
    # A fresh matrix starts all-epsilon; rows we installed are counted
    # out, the untouched ones remain.
    assert matrix.epsilon_rows() == len(missing)
    for j in range(1, n + 1):
        column = matrix.column(j)
        assert column.count(EPSILON) == len(missing - {j})
