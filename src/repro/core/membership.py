"""The membership protocol (Sec. 7 of the paper).

When an *asymmetric* fault occurs, receivers are partitioned into two
*cliques*: the nodes that received the message and the nodes that did
not.  The base diagnostic protocol reaches a consistent decision on the
sender but cannot tell that a minority of obedient receivers now holds
an inconsistent state.  The membership variant fixes that:

* the **analysis phase runs before dissemination**, so the node knows
  the consistent health vector when it forms its outgoing syndrome;
* nodes whose received syndromes *disagree* with the consistent health
  vector are accused as members of the minority clique (*minority
  accusations*), by marking them faulty in the outgoing aligned local
  syndrome;
* in the next protocol execution the accused nodes are consistently
  diagnosed as faulty (either every obedient node received their
  disagreeing syndrome, or their dissemination failed benignly and the
  local detection mechanisms accuse them — Theorem 2) and leave the
  view.

The service maintains the classical group-membership output: a
monotonically shrinking *view* containing the nodes never deemed
faulty.  Theorem 2: a new unique view is formed within two complete
executions of the protocol (membership liveness) and members of
consecutive views have received the same set of messages (view
synchrony).
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, List, Optional, Tuple

from .diagnostic import DiagnosticService

ViewCallback = Callable[[int, int, FrozenSet[int]], None]


class MembershipService(DiagnosticService):
    """The modified diagnostic protocol acting as a membership service.

    Accepts every :class:`DiagnosticService` argument plus an optional
    ``on_view_change`` callback ``(node_id, round, new_view)``.
    """

    analysis_before_dissemination = True

    def __init__(self, *args, on_view_change: Optional[ViewCallback] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.on_view_change = on_view_change
        self.view: FrozenSet[int] = frozenset(
            range(1, self.config.n_nodes + 1))
        self.view_id: int = 0
        #: ``(round, view)`` history, starting with the initial view.
        self.view_history: List[Tuple[Optional[int], FrozenSet[int]]] = [
            (None, self.view)]
        if self._m_on:
            self._m_view_changes = self.metrics.counter(
                "membership.view_changes")
            self._m_accusations = self.metrics.counter(
                "membership.clique_accusations")

    # ------------------------------------------------------------------
    def _post_analysis(self, al_dm: List[Any], al_ls: List[int],
                       cons_hv: List[int], k: int) -> List[int]:
        """Fold minority accusations into the outgoing syndrome and
        update the view."""
        n = self.config.n_nodes
        al_ls = list(al_ls)
        accused = []
        # ε rows never enter the mask: those disseminators failed
        # benignly and are already being accused by every node's local
        # detection mechanisms.  The predicate is one XOR per row.
        mask = self._last_matrix.disagree_mask(cons_hv)
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length()
            if self.active[j - 1] == 0:
                continue
            accused.append(j)
            al_ls[j - 1] = 0
        if accused:
            if self._m_on:
                self._m_accusations.inc(len(accused))
            self.trace.record(self._now, "clique", node=self.node_id,
                              round_index=k, accused=tuple(accused))

        # View update: exclude every node consistently deemed faulty.
        faulty = {j for j in range(1, n + 1) if cons_hv[j - 1] == 0}
        new_view = self.view - faulty
        if new_view != self.view:
            self.view = frozenset(new_view)
            self.view_id += 1
            self.view_history.append((k, self.view))
            if self._m_on:
                self._m_view_changes.inc()
            self.trace.record(self._now, "view", node=self.node_id,
                              round_index=k, view=tuple(sorted(self.view)),
                              view_id=self.view_id)
            if self.on_view_change is not None:
                self.on_view_change(self.node_id, k, self.view)
        return al_ls

    # ------------------------------------------------------------------
    def in_view(self, j: int) -> bool:
        """Whether node ``j`` belongs to this node's current view."""
        return j in self.view


__all__ = ["MembershipService"]
