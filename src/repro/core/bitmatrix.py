"""Bitset diagnostic data plane: packed matrices and shared analysis.

Sec. 5 guarantees that all correct nodes aggregate the *same*
diagnostic matrix and reach the *same* consistent health vector, so in
an N-node cluster N−f of the per-round hybrid-majority votes are
redundant recomputation, and each individual vote shuffles O(N²)
short-lived lists.  This module removes both costs without changing a
single observable bit:

* a syndrome of length N packs into one ``int`` (bit ``j-1`` is the
  opinion about node ``j``), a matrix into one packed row per sender
  plus a *presence* bitmask standing in for the ε rows;
* every column vote reduces to two ``int.bit_count()`` popcounts fed
  through :func:`repro.core.voting.h_maj_counts` — the same Eqn. 1
  semantics as ``h_maj``, pinned by differential tests;
* an :class:`AnalysisCache`, shared by all nodes of a cluster, memoises
  the analysis of each distinct matrix per diagnosed round: the first
  node to see a matrix computes the vote (and the Eqn. 1 branch
  tallies the observability layer wants), identical followers reuse
  it, while faulty/asymmetric views still compute their own.

The ⊥ (blackout) fallback is *not* cached: it depends on node-local
state (collision detector, buffered own syndrome), so cached entries
record *which* columns were ⊥ and every node applies its own Lemma 3
fallback.

:class:`BitDiagnosticMatrix` is API-compatible with
:class:`repro.core.syndrome.DiagnosticMatrix` (``row``/``column``/
``render``/... return the same tuple-level values), with lossless
converters in both directions, so traces and the analysis layer are
unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .syndrome import (EPSILON, DiagnosticMatrix, Opinion, Row, Syndrome,
                       _Epsilon, is_valid_syndrome, make_syndrome)
from .voting import h_maj_counts

#: A memoised analysis result: per-column decisions (``BOTTOM`` for ⊥),
#: per-column Eqn. 1 branch names, and the branch tallies
#: ``(n_bottom, n_majority, n_default)`` the metered path consumes.
AnalysisEntry = Tuple[Tuple[Optional[int], ...], Tuple[str, ...], int, int, int]


def pack_syndrome(syndrome: Sequence[int]) -> int:
    """Pack a 0/1 sequence into an opinion bitmask (bit ``j-1`` = node ``j``)."""
    mask = 0
    for i, v in enumerate(syndrome):
        if v:
            mask |= 1 << i
    return mask


def unpack_syndrome(mask: int, n_nodes: int) -> Syndrome:
    """Unpack an opinion bitmask back into a canonical 0/1 tuple."""
    return tuple((mask >> i) & 1 for i in range(n_nodes))


#: Bounded value-keyed memo for :func:`pack_syndrome`: disseminated
#: syndromes are interned tuples, so in steady state every row pack is
#: one dict hit instead of an O(N) Python loop.
_PACK_CACHE: Dict[Syndrome, int] = {}
_PACK_LIMIT = 8192


def pack_syndrome_cached(syndrome: Syndrome) -> int:
    """Like :func:`pack_syndrome`, memoised by tuple value (bounded)."""
    mask = _PACK_CACHE.get(syndrome)
    if mask is None:
        mask = pack_syndrome(syndrome)
        if len(_PACK_CACHE) < _PACK_LIMIT:
            _PACK_CACHE[syndrome] = mask
    return mask


#: Bounded memo for :func:`packed_if_valid`: canonical syndrome value
#: -> ``(the tuple that was validated, its packed bits)``.
_VALID_PACKED: Dict[Syndrome, Tuple[Syndrome, int]] = {}
_VALID_PACKED_LIMIT = 4096


def packed_if_valid(payload: Any, n_nodes: int) -> Optional[int]:
    """``pack_syndrome(payload) if is_valid_syndrome(payload, n_nodes)
    else None``, decoded once per distinct disseminated syndrome.

    All receivers aggregate the same (interned) syndrome tuples, so
    the aggregation validates and packs each one once instead of once
    per receiver.  The memo is keyed by tuple value and filled only
    from tuples of exact ``int`` 0/1; a hit is returned only for the
    very tuple that was validated, so every other payload — lists,
    floats, bools, wrong lengths, forged junk, or a value-equal tuple
    that is a different object — takes the uncached path.  The memo is
    dropped wholesale when full.
    """
    if type(payload) is tuple:
        hit = _VALID_PACKED.get(payload)
        if hit is not None and hit[0] is payload and len(payload) == n_nodes:
            return hit[1]
    if not is_valid_syndrome(payload, n_nodes):
        return None
    packed = pack_syndrome(payload)
    if type(payload) is tuple and all(type(v) is int for v in payload):
        if len(_VALID_PACKED) >= _VALID_PACKED_LIMIT:
            _VALID_PACKED.clear()
        _VALID_PACKED[payload] = (payload, packed)
    return packed


class BitDiagnosticMatrix:
    """The N×N opinion matrix as one packed int row per sender.

    Drop-in for :class:`~repro.core.syndrome.DiagnosticMatrix`: the
    tuple-level accessors (``row``, ``column``, ``render``, ...) return
    exactly what the tuple matrix would, while the analysis path works
    on the packed representation (:meth:`analyse`, :meth:`key`,
    :meth:`disagree_mask`).
    """

    __slots__ = ("n_nodes", "_bits", "_present", "_uniform_row", "_full")

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        #: Packed opinion row per sender (0-based); meaningful only
        #: where the presence bit is set, canonically 0 for ε rows.
        self._bits: List[int] = [0] * n_nodes
        #: Bit ``i-1`` set iff sender ``i``'s row is non-ε.
        self._present = 0
        self._uniform_row: Optional[Syndrome] = None
        self._full = (1 << n_nodes) - 1

    # -- construction ---------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Sequence[Row]) -> "BitDiagnosticMatrix":
        """Build a matrix from rows ordered by sender ID (1..N)."""
        matrix = cls(len(rows))
        for i, row in enumerate(rows, start=1):
            matrix.set_row(i, row)
        return matrix

    @classmethod
    def from_payloads(cls, n_nodes: int, payloads: Sequence[Any],
                      validity: Sequence[int],
                      active: Sequence[int]) -> "BitDiagnosticMatrix":
        """Aggregate received diagnostic payloads into a matrix.

        Row ``m`` holds ``payloads[m-1]`` when its validity bit and
        activity flag are both set and it is a well-formed syndrome
        (:func:`packed_if_valid`); every other row is ε.  Receivers see
        the same few syndrome objects in most slots, so each distinct
        object is decoded once per call.
        """
        matrix = cls(n_nodes)
        bits = matrix._bits
        present = 0
        decoded: Dict[int, Optional[int]] = {}
        for idx in range(n_nodes):
            if validity[idx] == 0 or active[idx] == 0:
                continue
            payload = payloads[idx]
            key = id(payload)
            if key in decoded:
                packed = decoded[key]
            else:
                packed = decoded[key] = packed_if_valid(payload, n_nodes)
            if packed is not None:
                bits[idx] = packed
                present |= 1 << idx
        matrix._present = present
        return matrix

    @classmethod
    def uniform(cls, n_nodes: int, row: Sequence[int]) -> "BitDiagnosticMatrix":
        """Build a matrix whose every row is the same syndrome.

        Mirrors :meth:`DiagnosticMatrix.uniform`, including the
        ``uniform_row`` marker the analysis shortcut keys on.
        """
        row = make_syndrome(row)
        if len(row) != n_nodes:
            raise ValueError(
                f"syndrome length {len(row)} != n_nodes {n_nodes}")
        matrix = cls(n_nodes)
        bits = pack_syndrome_cached(row)
        matrix._bits = [bits] * n_nodes
        matrix._present = matrix._full
        matrix._uniform_row = row
        return matrix

    @classmethod
    def from_tuple_matrix(cls, matrix: DiagnosticMatrix) -> "BitDiagnosticMatrix":
        """Lossless conversion from the tuple representation."""
        out = cls(matrix.n_nodes)
        for i in range(1, matrix.n_nodes + 1):
            out.set_row(i, matrix.row(i))
        out._uniform_row = matrix.uniform_row()
        return out

    def to_tuple_matrix(self) -> DiagnosticMatrix:
        """Lossless conversion to the tuple representation."""
        out = DiagnosticMatrix(self.n_nodes)
        for i in range(1, self.n_nodes + 1):
            row = self.row(i)
            if row is not EPSILON:
                out.set_row(i, row)
        if self._uniform_row is not None:
            out._uniform_row = self._uniform_row
        return out

    # -- tuple-compatible accessors -------------------------------------
    def uniform_row(self) -> Optional[Syndrome]:
        """The shared syndrome if built via :meth:`uniform`, else ``None``."""
        return self._uniform_row

    def set_row(self, sender: int, row: Row) -> None:
        """Install the (validated) syndrome sent by ``sender`` (or ε)."""
        self._check_node(sender)
        if row is EPSILON:
            self.set_row_bits(sender, None)
            return
        row = make_syndrome(row)
        if len(row) != self.n_nodes:
            raise ValueError(
                f"syndrome length {len(row)} != n_nodes {self.n_nodes}")
        self.set_row_bits(sender, pack_syndrome_cached(row))

    def set_row_bits(self, sender: int, bits: Optional[int]) -> None:
        """Install a pre-packed row (``None`` = ε), skipping validation.

        The caller has validated the row (e.g. via
        :func:`packed_if_valid`).
        """
        idx = sender - 1
        if bits is None:
            self._bits[idx] = 0
            self._present &= ~(1 << idx)
        else:
            self._bits[idx] = bits
            self._present |= 1 << idx
        self._uniform_row = None

    def row(self, sender: int) -> Row:
        """The syndrome sent by ``sender`` (or ε), as a canonical tuple."""
        self._check_node(sender)
        idx = sender - 1
        if not self._present >> idx & 1:
            return EPSILON
        return unpack_syndrome(self._bits[idx], self.n_nodes)

    def column(self, accused: int) -> List[Union[Opinion, _Epsilon]]:
        """All opinions about ``accused``, excluding its self-opinion."""
        self._check_node(accused)
        shift = accused - 1
        column: List[Union[Opinion, _Epsilon]] = []
        for sender in range(self.n_nodes):
            if sender == shift:
                continue
            if self._present >> sender & 1:
                column.append(self._bits[sender] >> shift & 1)
            else:
                column.append(EPSILON)
        return column

    def epsilon_rows(self) -> int:
        """Number of rows that are ε (missing/corrupted syndromes)."""
        return self.n_nodes - self._present.bit_count()

    def render(self) -> str:
        """Human-readable rendering in the style of the paper's Table 1."""
        return self.to_tuple_matrix().render()

    def _check_node(self, node_id: int) -> None:
        if not 1 <= node_id <= self.n_nodes:
            raise ValueError(f"node must be in 1..{self.n_nodes}, got {node_id}")

    # -- analysis plane -------------------------------------------------
    def key(self) -> Tuple[int, Tuple[int, ...]]:
        """Content key for memoisation: identical matrices, equal keys.

        Canonical because ε rows always hold packed value 0.
        """
        return (self._present, tuple(self._bits))

    def disagree_mask(self, cons_hv: Sequence[int]) -> int:
        """Bitmask of senders whose row disagrees with ``cons_hv``.

        Same predicate as :meth:`DiagnosticMatrix.disagree_mask`, one
        XOR per present row.
        """
        hv = pack_syndrome(cons_hv)
        full = self._full
        mask = 0
        remaining = self._present
        bits = self._bits
        while remaining:
            low = remaining & -remaining
            idx = low.bit_length() - 1
            if (bits[idx] ^ hv) & ~low & full:
                mask |= low
            remaining ^= low
        return mask

    def analyse(self) -> AnalysisEntry:
        """Vote every column via popcounts (Eqn. 1, bit-parallel).

        Identical rows are grouped first — a single distinct syndrome
        contributes its multiplicity to every set bit in one pass — so
        the common sustained-fault matrix (N−1 identical rows + ε/
        deviant rows) is analysed in O(G·N) int operations for G
        distinct rows, instead of O(N²) list churn.
        """
        n = self.n_nodes
        present = self._present
        present_count = present.bit_count()
        bits = self._bits

        groups: Dict[int, int] = {}
        remaining = present
        while remaining:
            low = remaining & -remaining
            row = bits[low.bit_length() - 1]
            groups[row] = groups.get(row, 0) | low
            remaining ^= low

        ones = [0] * n
        for row, senders in groups.items():
            count = senders.bit_count()
            while row:
                low = row & -row
                ones[low.bit_length() - 1] += count
                row ^= low

        decisions: List[Optional[int]] = []
        reasons: List[str] = []
        n_bottom = n_majority = n_default = 0
        for j in range(n):
            jbit = 1 << j
            if present & jbit:
                total = present_count - 1
                # The self-opinion is excluded from the column vote.
                column_ones = ones[j] - (bits[j] >> j & 1)
            else:
                total = present_count
                column_ones = ones[j]
            decision, reason = h_maj_counts(column_ones, total - column_ones)
            decisions.append(decision)
            reasons.append(reason)
            if reason == "majority":
                n_majority += 1
            elif reason == "bottom":
                n_bottom += 1
            else:
                n_default += 1
        return (tuple(decisions), tuple(reasons),
                n_bottom, n_majority, n_default)


class AnalysisCache:
    """Per-round memo of matrix analyses, shared by a cluster's nodes.

    Keyed on interned matrix content (:meth:`BitDiagnosticMatrix.key`);
    entries live only for the current diagnosed round, so the cache
    never outgrows the number of *distinct views* in one round (1 for
    a healthy or symmetrically-faulty cluster, a handful under
    asymmetric faults).  Hits and misses are counted online
    (``vote.cache_hit`` / ``vote.cache_miss``) when a metrics registry
    is attached.
    """

    __slots__ = ("_round", "_entries", "_hits", "_misses")

    def __init__(self, metrics=None) -> None:
        self._round: Optional[int] = None
        self._entries: Dict[Tuple[int, Tuple[int, ...]], AnalysisEntry] = {}
        if metrics is None:
            from ..obs.registry import NULL_REGISTRY
            metrics = NULL_REGISTRY
        self._hits = metrics.counter("vote.cache_hit")
        self._misses = metrics.counter("vote.cache_miss")

    def lookup(self, d_round: int,
               key: Tuple[int, Tuple[int, ...]]) -> Optional[AnalysisEntry]:
        """The memoised analysis for ``key`` in ``d_round``, or ``None``.

        Seeing a new diagnosed round drops the previous round's
        entries (all nodes analyse round ``r`` before any analyses
        ``r+1`` — job executions are time-ordered within a round).
        """
        if d_round != self._round:
            self._round = d_round
            self._entries.clear()
            self._misses.inc()
            return None
        entry = self._entries.get(key)
        if entry is None:
            self._misses.inc()
        else:
            self._hits.inc()
        return entry

    def store(self, key: Tuple[int, Tuple[int, ...]],
              entry: AnalysisEntry) -> None:
        """Memoise a freshly computed analysis for the current round."""
        self._entries[key] = entry


__all__ = [
    "AnalysisCache",
    "AnalysisEntry",
    "BitDiagnosticMatrix",
    "pack_syndrome",
    "pack_syndrome_cached",
    "packed_if_valid",
    "unpack_syndrome",
]
