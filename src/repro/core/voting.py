"""Hybrid majority voting (Eqn. 1 of the paper).

The consistent health vector is computed per accused node by hybrid
voting over the corresponding column of the diagnostic matrix.  The
function family comes from Lincoln & Rushby's formally verified hybrid
fault algorithms [18]: erroneous (benign, locally detected) votes ε are
*excluded* before the majority is taken, so benign faults reduce
redundancy instead of corrupting the vote; malicious/asymmetric votes
are outvoted as long as ``N > 2a + 2s + b + 1`` (Lemma 2).

::

             ⎧ ⊥   if |excl(V, ε)| = 0
    H-maj(V) = ⎨ v   if v = maj(excl(V, ε)) and |excl(V, ε)| >= 1
             ⎩ 1   else

The ``else`` branch (no strict majority among the surviving votes)
defaults to 1, i.e. "not faulty": the protocol prefers availability and
leaves discrimination to the penalty/reward layer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from .syndrome import EPSILON, Opinion, _Epsilon

#: The undecidable outcome ⊥ of H-maj (no non-ε vote available).
BOTTOM: Optional[int] = None

Vote = Union[Opinion, _Epsilon]


def excl(votes: Sequence[Vote]) -> List[Opinion]:
    """``excl(V, ε)``: the votes with all ε entries removed."""
    return [v for v in votes if v is not EPSILON]


def maj(values: Sequence[Opinion]) -> Optional[Opinion]:
    """Strict majority value of a non-empty binary vote set, else None.

    A value is the majority iff it occurs in more than half of the
    votes; a tie has no majority.
    """
    if not values:
        return None
    zeros = sum(1 for v in values if v == 0)
    ones = len(values) - zeros
    if zeros > ones:
        return 0
    if ones > zeros:
        return 1
    return None


def h_maj(votes: Sequence[Vote]) -> Optional[Opinion]:
    """Hybrid majority H-maj(V) per Eqn. 1.

    Returns 0 (faulty), 1 (not faulty) or :data:`BOTTOM` (= ``None``)
    when every vote is ε — the case where the caller must fall back on
    local information (collision detector / own syndrome, Lemma 3).
    """
    for v in votes:
        if v is not EPSILON and v not in (0, 1):
            raise ValueError(f"votes must be 0, 1 or ε, got {v!r}")
    surviving = excl(votes)
    if not surviving:
        return BOTTOM
    majority = maj(surviving)
    if majority is not None:
        return majority
    # No strict majority among surviving votes: default to "not faulty".
    return 1


def h_maj_explain(votes: Sequence[Vote]):
    """Like :func:`h_maj`, but also names the branch of Eqn. 1 taken.

    Returns ``(decision, reason)`` with ``reason`` one of ``"bottom"``
    (all votes ε), ``"majority"`` (a strict majority survived the ε
    exclusion) or ``"default"`` (no strict majority; the protocol
    defaults to "not faulty").  The decision always equals
    ``h_maj(votes)``; the metered analysis path uses this variant so
    the observability layer can count fallbacks without a second vote.
    """
    for v in votes:
        if v is not EPSILON and v not in (0, 1):
            raise ValueError(f"votes must be 0, 1 or ε, got {v!r}")
    surviving = excl(votes)
    if not surviving:
        return BOTTOM, "bottom"
    majority = maj(surviving)
    if majority is not None:
        return majority, "majority"
    return 1, "default"


def h_maj_counts(ones: int, zeros: int):
    """H-maj from vote *tallies* instead of a vote list.

    ``ones``/``zeros`` are the numbers of surviving (non-ε) 1 and 0
    votes — exactly ``excl(V, ε)`` summarised by two popcounts.  Returns
    the same ``(decision, reason)`` pair as :func:`h_maj_explain`; the
    packed diagnostic matrix (:mod:`repro.core.bitmatrix`) decides every
    column from ``int.bit_count()`` tallies through this function, so
    it cannot drift from the list-based reference.
    """
    if ones < 0 or zeros < 0:
        raise ValueError(f"vote tallies must be >= 0, got {ones}/{zeros}")
    if ones == 0 and zeros == 0:
        return BOTTOM, "bottom"
    if ones > zeros:
        return 1, "majority"
    if zeros > ones:
        return 0, "majority"
    return 1, "default"


def vote_bound_holds(n: int, a: int, s: int, b: int) -> bool:
    """Lemma 2's resilience condition: ``N > 2a + 2s + b + 1`` and ``a <= 1``.

    ``a``, ``s``, ``b`` are the numbers of asymmetric, symmetric
    malicious and benign faulty nodes over one protocol execution.
    """
    return n > 2 * a + 2 * s + b + 1 and a <= 1


def benign_only_bound_holds(n: int, b: int) -> bool:
    """Lemma 3's blackout condition: only benign faults, ``N-1 <= b <= N``."""
    return n - 1 <= b <= n


__all__ = [
    "BOTTOM",
    "Vote",
    "excl",
    "maj",
    "h_maj",
    "h_maj_counts",
    "h_maj_explain",
    "vote_bound_holds",
    "benign_only_bound_holds",
]
