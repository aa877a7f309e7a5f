"""Local syndromes and diagnostic matrices (Sec. 5).

A *local syndrome* is a binary ``N``-tuple: element ``j`` is node
``i``'s local opinion on the message sent by node ``j`` in the slot of
interest (1 = received correctly, 0 = locally detected as faulty).
Syndromes are exchanged inside the diagnostic messages ``dm_i``.

A *diagnostic matrix* collects the aligned local syndromes received for
one diagnosed round: row ``i`` is the syndrome sent by node ``i`` (or
the special error value ε when that syndrome itself arrived corrupted),
column ``j`` is the vector of opinions about node ``j``.  The matrix
itself lives in :mod:`repro.core.bitmatrix` as one packed row per
sender.

Indexing convention: syndromes are plain tuples of length ``N``; the
opinion about node ``j`` lives at index ``j - 1``.  Helper accessors
keep the 1-based paper notation readable.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple, Union


class _Epsilon:
    """The paper's special error value ε (unavailable/corrupted syndrome)."""

    _instance: Optional["_Epsilon"] = None

    def __new__(cls) -> "_Epsilon":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ε"

    def __deepcopy__(self, memo) -> "_Epsilon":
        return self

    def __reduce__(self):
        return (_Epsilon, ())


#: Singleton ε: assigned to local syndromes whose validity bit is 0.
EPSILON = _Epsilon()

#: A syndrome entry: 0 (faulty), 1 (correct) — ε appears only at the
#: matrix level, standing for a whole missing row.
Opinion = int
Syndrome = Tuple[Opinion, ...]
Row = Union[Syndrome, _Epsilon]


def make_syndrome(bits: Sequence[int]) -> Syndrome:
    """Validate and freeze a local syndrome.

    Entries are normalised to canonical ``int`` 0/1: values that merely
    *compare equal* to 0/1 (``True``, ``1.0``) would otherwise leak
    into traces and serialise differently (``true`` vs ``1`` in JSON),
    breaking byte-identity contracts downstream.
    """
    out = tuple(bits)
    needs_normalising = False
    for bit in out:
        if bit not in (0, 1):
            raise ValueError(f"syndrome entries must be 0/1, got {bit!r}")
        if type(bit) is not int:
            needs_normalising = True
    if needs_normalising:
        return tuple(1 if bit == 1 else 0 for bit in out)
    return out


def opinion_about(syndrome: Syndrome, node_id: int) -> Opinion:
    """1-based accessor: the syndrome's opinion about ``node_id``."""
    return syndrome[node_id - 1]


#: Interning caches for disseminated syndromes, scoped per syndrome
#: length so clusters of different N never compete for the same budget
#: (bounded; see :func:`intern_syndrome`).
_INTERNED: Dict[int, Dict[Syndrome, Syndrome]] = {}
_INTERN_LIMIT = 4096
_INTERN_EVICTIONS = 0


def intern_syndrome(syndrome: Syndrome, evictions=None) -> Syndrome:
    """Return a canonical shared tuple equal to ``syndrome``.

    In a healthy cluster every node disseminates the same all-ones
    syndrome every round; interning makes those tuples
    reference-identical, so the diagnostic matrix can detect a uniform
    round by pointer comparison and repeated rounds do not allocate
    fresh tuples.

    The cache is scoped **per syndrome length**: a long-lived process
    that simulates clusters of different N keeps one bounded cache per
    N instead of letting one size exhaust the budget of another.  When
    a length's cache fills up (adversarial payload diversity), that
    epoch is dropped wholesale and interning restarts — only a missed
    optimisation, counted in :func:`intern_cache_stats` and, when the
    caller passes a counter-like ``evictions`` instrument, in the
    observability layer (``syndrome.intern_evictions``).
    """
    global _INTERN_EVICTIONS
    by_length = _INTERNED.get(len(syndrome))
    if by_length is None:
        by_length = _INTERNED[len(syndrome)] = {}
    cached = by_length.get(syndrome)
    if cached is not None:
        return cached
    if len(by_length) >= _INTERN_LIMIT:
        by_length.clear()
        _INTERN_EVICTIONS += 1
        if evictions is not None:
            evictions.inc()
    by_length[syndrome] = syndrome
    return syndrome


def clear_intern_cache(length: Optional[int] = None) -> None:
    """Drop interned syndromes — all lengths, or one specific length.

    Call from cluster teardown (or tests) to return the process to a
    cold-cache state; interning restarts transparently afterwards.
    """
    if length is None:
        _INTERNED.clear()
    else:
        _INTERNED.pop(length, None)


def intern_cache_stats() -> Dict[str, int]:
    """Occupancy and saturation of the interning caches.

    ``lengths`` is the number of distinct syndrome lengths seen,
    ``entries`` the total interned tuples across them, ``evictions``
    the number of epoch resets since process start.
    """
    return {
        "lengths": len(_INTERNED),
        "entries": sum(len(c) for c in _INTERNED.values()),
        "evictions": _INTERN_EVICTIONS,
    }


def is_valid_syndrome(payload: Any, n_nodes: int) -> bool:
    """Whether a received payload parses as a well-formed syndrome.

    Guards the aggregation phase against garbage from non-obedient
    nodes whose frames pass the controller's syntactic checks: a
    malformed payload is treated like ε (the node contributed no usable
    opinion).
    """
    if not isinstance(payload, (tuple, list)) or len(payload) != n_nodes:
        return False
    # Equivalent to ``all(bit in (0, 1) for bit in payload)`` — count()
    # uses the same __eq__ semantics (True counts as 1, 0.0 as 0) but
    # runs the scan in C.  No entry can equal both 0 and 1.
    return payload.count(0) + payload.count(1) == n_nodes


def parse_tagged_syndrome(payload: Any, n_nodes: int):
    """Parse a round-tagged diagnostic message ``(round, syndrome)``.

    The dynamic-scheduling variant of the protocol makes its messages
    self-describing: the payload names the round its observations refer
    to.  Returns ``(round, syndrome_tuple)`` or ``None`` for anything
    malformed (treated as ε by the aggregation).
    """
    if not isinstance(payload, (tuple, list)) or len(payload) != 2:
        return None
    about_round, syndrome = payload
    if not isinstance(about_round, int) or isinstance(about_round, bool):
        return None
    if not is_valid_syndrome(syndrome, n_nodes):
        return None
    return (about_round, tuple(syndrome))


__all__ = [
    "EPSILON",
    "parse_tagged_syndrome",
    "Opinion",
    "Syndrome",
    "Row",
    "make_syndrome",
    "opinion_about",
    "intern_syndrome",
    "clear_intern_cache",
    "intern_cache_stats",
    "is_valid_syndrome",
]
