"""Numpy round kernel: lockstep simulation of rounds × replicates.

Instead of scheduling one discrete event per slot delivery and job
execution, this backend advances **whole TDMA rounds** of a batch of
independent Monte Carlo replicates with vector arithmetic over
``(replicates, N, N)`` arrays.  The mapping rests on two observations:

1. *The protocol consumes only per-slot validity observables.*  A row of
   the diagnostic matrix is read only when the corresponding validity
   bit is 1, and that bit refers to exactly one physical transmission —
   so the kernel tracks, per round, one ``(R, receiver, sender)``
   validity matrix plus the per-sender latched payload, and never needs
   the event engine's per-controller latched-value state.
2. *Jobs partition into two phases per physical round.*  A static
   schedule fixes, per node, how many deliveries of the round precede
   its job (``pos_i``).  The TDMA timeline interleaves as
   ``tx(1) < job(pos=0) < rx(1) < job(pos=1) < tx(2) < ...``; all
   non-shifted jobs read only rounds ``< p`` data (their round-``p``
   reads stop at slot ``pos_i``, and read alignment maps those to the
   *effective* previous round), so the round replays exactly as:
   stage 1 (non-shifted jobs, effective round ``p``), stage 2 (all N
   slots), stage 3 (footnote-1 jobs, effective round ``p+1``).
   Intra-round feedback — a stage-1 job's interface write or
   transmission toggle reaching its own later slot — is routed by the
   compiled ``send_curr_phys`` flag; an isolation's IGNORE status masks
   only the deliveries after the isolating job (``after_job`` mask).

Bit-identity with the event engine is pinned by the differential fuzz
(`tests/test_backend_equivalence_fuzz.py`): health vectors, p/r
counters, isolation times and metrics snapshots must match exactly,
across fault scenarios × fast/slow bus paths × schedules.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import IsolationMode
from ..spec.model import RunSpec
from .compiler import CompiledSchedule, compile_schedule
from .errors import UnsupportedSpecError
from .inject import LoweredInjection, lower_injection

#: Histogram bounds of diag.matrix_epsilon_rows (mirrors DiagnosticService).
_EPS_BOUNDS = (0, 1, 2, 4, 8, 16, 32)

#: Metrics namespace for the per-run provenance counters (mirrors
#: repro.spec.build.PROVENANCE_PREFIX without importing it — build
#: imports this module lazily, keeping the layering acyclic).
_PROVENANCE_PREFIX = "spec.run."

#: Semantic counters the kernel accumulates per replicate.  These are
#: exactly the protocol-level counters an event-engine run with metrics
#: enabled produces; the event engine's additional *strategy* counters
#: (fast-path/cache/popcount tallies) describe how it computes, not
#: what, and have no vectorized equivalent.
_ACC_COUNTERS = (
    "bus.slots_silent",
    "diag.analysis_rounds",
    "diag.uniform_shortcut_rounds",
    "diag.hv_transitions",
    "diag.isolations",
    "diag.reintegrations",
    "vote.hmaj_calls",
    "vote.hmaj_majority",
    "vote.hmaj_bottom",
    "vote.hmaj_default_healthy",
    "pr.penalty_increments",
    "pr.reward_increments",
    "pr.forget_resets",
    "pr.isolation_verdicts",
)


def validate_spec(spec: RunSpec) -> None:
    """Reject specs using features the kernel does not model."""
    v = spec.variant
    if v.service != "diagnostic":
        raise UnsupportedSpecError(
            f"vectorized backend supports service='diagnostic' only, "
            f"got {v.service!r}")
    if v.byzantine_nodes:
        raise UnsupportedSpecError(
            "vectorized backend does not model byzantine nodes")
    if spec.cluster.n_channels != 1:
        raise UnsupportedSpecError(
            "vectorized backend models a single-channel bus "
            f"(n_channels={spec.cluster.n_channels})")
    if spec.schedule.kind == "dynamic":
        raise UnsupportedSpecError(
            "vectorized backend requires a static schedule")


class _Kernel:
    """State and per-round transition of one replicate batch."""

    def __init__(self, spec: RunSpec, compiled: CompiledSchedule,
                 lowered: LoweredInjection, n_rep: int,
                 reintegration: bool) -> None:
        cfg = spec.protocol.to_config()
        self.config = cfg
        n = compiled.n
        self.n = n
        self.R = n_rep
        self.n_rounds = spec.n_rounds
        self.trace_level = spec.cluster.trace_level
        self.compiled = compiled
        self.low = lowered
        self.pipe = cfg.detection_pipeline_rounds()
        self.startup = cfg.startup_rounds
        self.cfg_all_sc = cfg.all_send_curr_round
        self.P = cfg.penalty_threshold
        self.RT = cfg.reward_threshold
        self.crit = np.asarray(cfg.criticalities, dtype=np.int64)
        self.ignore_mode = cfg.isolation_mode is IsolationMode.IGNORE
        self.halt = cfg.effective_halt_on_self_isolation
        if reintegration and cfg.reintegration_reward_threshold is None:
            raise ValueError(
                "reintegration requested but the config sets no "
                "reintegration_reward_threshold")
        self.reint_th = (cfg.reintegration_reward_threshold
                         if reintegration else None)
        self.T = compiled.timebase.round_length
        self.send_curr = compiled.send_curr
        self.scp = compiled.send_curr_phys
        self.offset = compiled.offset
        # after_job[i, s-1]: slot s of the round is delivered after node
        # i's job (so a status change taken in the job masks it).
        self.after_job = (np.arange(1, n + 1)[None, :]
                          > compiled.pos[:, None])

        R = n_rep
        # Per-observer protocol state: [replicate, observer, subject].
        self.ACTIVE = np.ones((R, n, n), dtype=bool)
        self.PEN = np.zeros((R, n, n), dtype=np.int64)
        self.REW = np.zeros((R, n, n), dtype=np.int64)
        self.PREV_AL = np.zeros((R, n, n), dtype=bool)
        self.PREV_HV = np.zeros((R, n, n), dtype=bool)
        self.HAS_PREV = np.zeros((R, n), dtype=bool)
        # Interface-state OUT buffers: [replicate, sender, bit].
        self.OUT_bits = np.zeros((R, n, n), dtype=bool)
        self.OUT_set = np.zeros((R, n), dtype=bool)
        # IGNORE-mode reception masks (committed / pending within-round).
        self.IGN = np.zeros((R, n, n), dtype=bool)
        self.ign_pend = np.zeros((R, n, n), dtype=bool)
        # Transmission enables and within-round toggles.
        self.TX_EN = np.ones((R, n), dtype=bool)
        self.tx_off_pend = np.zeros((R, n), dtype=bool)
        self.tx_on_pend = np.zeros((R, n), dtype=bool)
        self.RCNT = (np.zeros((R, n, n), dtype=np.int64)
                     if self.reint_th is not None else None)
        self.first_iso = np.full((R, n), np.inf)
        #: (replicate, observer, isolated, round, time, penalty) tuples.
        self.iso_records: List[Tuple[int, int, int, int, float, int]] = []
        # Rolling per-round buffers.
        self.OWN: Dict[int, np.ndarray] = {}
        self.COLL: Dict[int, np.ndarray] = {}
        self.HVD: Dict[int, np.ndarray] = {}
        self.HVD_nodes: Dict[int, np.ndarray] = {}
        # Previous round's reception state (round -1: nothing received).
        self.V_prev = np.zeros((R, n, n), dtype=bool)
        self.S_bits_prev = np.zeros((R, n, n), dtype=bool)
        self.S_synd_prev = np.zeros((R, n), dtype=bool)
        self.MAL_prev = np.zeros((R, n, n), dtype=bool)
        self.fid_prev: Optional[np.ndarray] = None
        self._zero_mal = np.zeros((R, n, n), dtype=bool)
        # Per-replicate metric accumulators.
        self.acc = {name: np.zeros(R, dtype=np.int64)
                    for name in _ACC_COUNTERS}
        self.eps_bounds = np.asarray(_EPS_BOUNDS, dtype=np.int64)
        self.eps_hist = np.zeros((R, len(_EPS_BOUNDS) + 1), dtype=np.int64)
        self.eps_count = np.zeros(R, dtype=np.int64)
        self._noise_cursor = [np.zeros(R, dtype=np.int64)
                              for _ in lowered.noise]
        self._rep_idx = np.arange(R)

    # ------------------------------------------------------------------
    def run(self) -> None:
        stage1, stage3 = self.compiled.stage1, self.compiled.stage3
        for p in range(self.n_rounds):
            self._out_old_bits = self.OUT_bits.copy()
            self._out_old_set = self.OUT_set.copy()
            self._jobs(stage1, p, p, self.V_prev, self.S_bits_prev,
                       self.S_synd_prev, self.MAL_prev, self.fid_prev,
                       stage3=False)
            V, Sb, Ss, MAL, fid = self._slots(p)
            self._jobs(stage3, p + 1, p, V, Sb, Ss, MAL, fid, stage3=True)
            self.V_prev, self.S_bits_prev, self.S_synd_prev = V, Sb, Ss
            self.MAL_prev, self.fid_prev = MAL, fid
            self._prune(p)

    def _prune(self, p: int) -> None:
        horizon = p - (self.pipe + 4)
        for store in (self.OWN, self.COLL):
            for key in [r for r in store if r < horizon]:
                del store[key]

    # ------------------------------------------------------------------
    # Stage 2: the N slots of physical round p
    # ------------------------------------------------------------------
    def _slots(self, p: int):
        R, n = self.R, self.n
        scp = self.scp
        eff_tx = self.TX_EN.copy()
        if self.tx_off_pend.any():
            eff_tx &= ~(self.tx_off_pend & scp[None, :])
        if self.tx_on_pend.any():
            eff_tx |= self.tx_on_pend & scp[None, :]
        self.acc["bus.slots_silent"] += (~eff_tx).sum(1)

        low = self.low
        hit: Optional[np.ndarray] = None
        if low.stoch_hit is not None:
            hit = low.stoch_hit[:, p, :].copy()
        for i, plan in enumerate(low.noise):
            if hit is None:
                hit = np.zeros((R, n), dtype=bool)
            cur = self._noise_cursor[i]
            # One draw per *queried* (non-silent) slot, in slot order —
            # the event engine's exact consumption pattern.
            for s0 in range(n):
                q = eff_tx[:, s0]
                if not q.any():
                    continue
                v = plan.draws[self._rep_idx, cur]
                hit[:, s0] |= q & (v < plan.probability)
                cur += q

        V_pre = np.broadcast_to(eff_tx[:, None, :], (R, n, n)).copy()
        if low.invalid is not None:
            V_pre &= ~low.invalid[p].T[None, :, :]
        if hit is not None:
            V_pre &= ~hit[:, None, :]
        if low.stoch_invalid is not None:
            # Per-replicate receiver-side invalidations (correlated
            # EMI), already in [replicate, receiver, sender] layout.
            V_pre &= ~low.stoch_invalid[:, p]
        # Local collision detector: the sender's own reception validity,
        # recorded before any IGNORE status masking (as the controller
        # does).  A silent own slot yields no record, i.e. False.
        diag_idx = np.arange(n)
        self.COLL[p] = V_pre[:, diag_idx, diag_idx]

        if self.ignore_mode and (self.IGN.any() or self.ign_pend.any()):
            mask = self.IGN
            if self.ign_pend.any():
                mask = mask | (self.ign_pend & self.after_job[None, :, :])
            V = V_pre & ~mask
        else:
            V = V_pre
        if self.ignore_mode:
            self.IGN |= self.ign_pend
            self.ign_pend[:] = False

        MAL: Optional[np.ndarray] = None
        fid: Optional[np.ndarray] = None
        if low.mal is not None and low.mal[p].any():
            m = np.broadcast_to(low.mal[p].T[None, :, :], (R, n, n)).copy()
            if hit is not None:
                m &= ~hit[:, None, :]
            MAL = m & V
            fid = low.fid[p]
        if MAL is None:
            MAL = self._zero_mal

        # Latched payloads: a job physically preceding its own slot
        # transmits this round's fresh interface write; everyone else's
        # slot carries the buffer as of the round start.
        Sb = np.where(scp[None, :, None], self.OUT_bits, self._out_old_bits)
        Ss = np.where(scp[None, :], self.OUT_set, self._out_old_set)

        if self.tx_off_pend.any():
            self.TX_EN &= ~self.tx_off_pend
            self.tx_off_pend[:] = False
        if self.tx_on_pend.any():
            self.TX_EN |= self.tx_on_pend
            self.tx_on_pend[:] = False
        return V, Sb, Ss, MAL, fid

    # ------------------------------------------------------------------
    # Stages 1/3: one batch of diagnostic jobs at effective round k
    # ------------------------------------------------------------------
    def _jobs(self, obs: np.ndarray, k: int, p: int, V_in, Sb_in, Ss_in,
              MAL_in, fid_in, stage3: bool) -> None:
        if obs.size == 0:
            return
        R, n = self.R, self.n
        al = V_in[:, obs, :]
        # Dissemination (send alignment, Alg. 1 lines 7-10).
        if self.cfg_all_sc:
            out = al
        else:
            sc = self.send_curr[obs]
            out = (np.where(sc[None, :, None], self.PREV_AL[:, obs, :], al)
                   if sc.any() else al)
        self.OUT_bits[:, obs, :] = out
        self.OUT_set[:, obs] = True

        d = k - self.pipe
        if d >= self.startup:
            self._analyse(obs, k, p, d, al, Sb_in, Ss_in, MAL_in, fid_in,
                          stage3)

        # Buffering for the next round (Alg. 1 lines 16-17).
        self.PREV_AL[:, obs, :] = al
        own = self.OWN.get(k - 1)
        if own is None:
            own = self.OWN[k - 1] = np.zeros((R, n, n), dtype=bool)
        own[:, obs, :] = al

    def _analyse(self, obs: np.ndarray, k: int, p: int, d: int, al,
                 Sb, Ss, MAL_in, fid_in, stage3: bool) -> None:
        R, n = self.R, self.n
        I = obs.size
        act = self.ACTIVE[:, obs, :]
        mal = MAL_in[:, obs, :]
        mal_any = bool(mal.any())
        # A row is non-ε iff the reception was valid, the sender is not
        # isolated, and the latched payload is a well-formed syndrome.
        if mal_any:
            pv = np.where(mal, self.low.payload_valid[fid_in][None, None, :],
                          Ss[:, None, :])
        else:
            pv = Ss[:, None, :]
        present = al & act & pv
        pc = present.sum(-1)

        # Uniform fast path, content form: every reception valid, every
        # sender active, every payload a set syndrome, none forged, all
        # senders' payloads identical.  Syndrome interning makes this
        # equivalent to the event engine's pointer-identity check.
        rows_eq = (Sb == Sb[:, :1, :]).all(axis=(1, 2))
        uni = al.all(-1) & act.all(-1) & (Ss.all(-1) & rows_eq)[:, None]
        if mal_any:
            uni &= ~mal.any(-1)

        self.acc["diag.analysis_rounds"] += I
        n_uni = uni.sum(1)
        self.acc["diag.uniform_shortcut_rounds"] += n_uni
        self.acc["vote.hmaj_calls"] += (I - n_uni) * n
        self.eps_hist[:, 0] += n_uni
        self.eps_count += I

        nonuni = ~uni
        uni_row = Sb[:, 0, :]
        if nonuni.any():
            ridx, iidx = np.nonzero(nonuni)
            eps_vals = (n - pc)[ridx, iidx]
            np.add.at(self.eps_hist,
                      (ridx, np.searchsorted(self.eps_bounds, eps_vals,
                                             side="left")), 1)
            pres = present.astype(np.int64)
            if mal_any:
                fb_bits = self.low.payload_bits[fid_in].astype(bool)
                B = np.where(mal[..., None], fb_bits[None, None, :, :],
                             Sb[:, None, :, :]).astype(np.int64)
                ones = np.matmul(pres[:, :, None, :], B)[:, :, 0, :]
                diagB = np.diagonal(B, axis1=2, axis2=3)
            else:
                ones = np.matmul(pres, Sb.astype(np.int64))
                diagB = np.diagonal(Sb, axis1=1,
                                    axis2=2).astype(np.int64)[:, None, :]
            # H-maj column vote: the accused's own row never votes.
            col_ones = ones - pres * diagB
            total = pc[..., None] - pres
            col_zeros = total - col_ones
            maj1 = col_ones > col_zeros
            maj0 = col_zeros > col_ones
            bottom = total == 0
            nu3 = nonuni[..., None]
            self.acc["vote.hmaj_majority"] += ((maj1 | maj0) & nu3).sum((1, 2))
            self.acc["vote.hmaj_bottom"] += (bottom & nu3).sum((1, 2))
            self.acc["vote.hmaj_default_healthy"] += (
                (~(maj1 | maj0 | bottom)) & nu3).sum((1, 2))
            if bottom.any():
                # Lemma 3 fallback: own buffered syndrome of the
                # diagnosed round (optimistic 1 on cold start), the
                # local collision detector for oneself.
                own_d = self.OWN.get(d)
                fb = (own_d[:, obs, :].copy() if own_d is not None
                      else np.ones((R, I, n), dtype=bool))
                coll_d = self.COLL.get(d)
                co = (coll_d[:, obs] if coll_d is not None
                      else np.zeros((R, I), dtype=bool))
                fb[:, np.arange(I), obs] = co
                hv = np.where(bottom, fb, ~maj0)
            else:
                hv = ~maj0
            cons = np.where(uni[..., None], uni_row[:, None, :], hv)
        else:
            cons = np.broadcast_to(uni_row[:, None, :], (R, I, n)).copy()

        # Health-vector transition metering + trace-equivalent storage.
        prev = self.PREV_HV[:, obs, :]
        has = self.HAS_PREV[:, obs]
        self.acc["diag.hv_transitions"] += (has
                                            & (prev != cons).any(-1)).sum(1)
        self.PREV_HV[:, obs, :] = cons
        self.HAS_PREV[:, obs] = True
        if self.trace_level >= 1:
            arr = self.HVD.get(d)
            if arr is None:
                arr = self.HVD[d] = np.zeros((R, n, n), dtype=bool)
                self.HVD_nodes[d] = np.zeros(n, dtype=bool)
            arr[:, obs, :] = cons
            self.HVD_nodes[d][obs] = True

        # Penalty/reward update, exact branch order of
        # PenaltyRewardState.update.
        faulty = ~cons
        pen = self.PEN[:, obs, :] + faulty * self.crit[None, None, :]
        self.acc["pr.penalty_increments"] += faulty.sum((1, 2))
        rew = np.where(faulty, 0, self.REW[:, obs, :])
        iso_v = faulty & (pen > self.P)
        self.acc["pr.isolation_verdicts"] += iso_v.sum((1, 2))
        hg = (~faulty) & (pen > 0)
        rew = rew + hg
        self.acc["pr.reward_increments"] += hg.sum((1, 2))
        forget = hg & (rew >= self.RT)
        if forget.any():
            pen = np.where(forget, 0, pen)
            rew = np.where(forget, 0, rew)
        self.acc["pr.forget_resets"] += forget.sum((1, 2))

        newly = act & iso_v
        act_new = act & ~iso_v
        self.acc["diag.isolations"] += newly.sum((1, 2))
        idxI = np.arange(I)
        if newly.any():
            if self.ignore_mode:
                tgt = self.IGN if stage3 else self.ign_pend
                tgt[:, obs, :] |= newly
            self_new = newly[:, idxI, obs]
            if self.halt and self_new.any():
                if stage3:
                    self.TX_EN[:, obs] &= ~self_new
                else:
                    self.tx_off_pend[:, obs] |= self_new
            t = p * self.T + self.offset[obs]
            cand = np.where(newly, t[None, :, None], np.inf).min(axis=1)
            self.first_iso = np.minimum(self.first_iso, cand)
            for r, ii, j in zip(*np.nonzero(newly)):
                self.iso_records.append(
                    (int(r), int(obs[ii]) + 1, int(j) + 1, int(k),
                     float(t[ii]), int(pen[r, ii, j])))

        if self.reint_th is not None:
            cnt = np.where(act_new, 0,
                           np.where(faulty, 0, self.RCNT[:, obs, :] + 1))
            reint = (~act_new) & (~faulty) & (cnt >= self.reint_th)
            if reint.any():
                cnt = np.where(reint, 0, cnt)
                act_new = act_new | reint
                pen = np.where(reint, 0, pen)
                rew = np.where(reint, 0, rew)
                self_r = reint[:, idxI, obs]
                if stage3:
                    self.TX_EN[:, obs] |= self_r
                else:
                    self.tx_on_pend[:, obs] |= self_r
            self.acc["diag.reintegrations"] += reint.sum((1, 2))
            self.RCNT[:, obs, :] = cnt

        self.PEN[:, obs, :] = pen
        self.REW[:, obs, :] = rew
        self.ACTIVE[:, obs, :] = act_new

    # ------------------------------------------------------------------
    def snapshot(self, rep: int) -> dict:
        """Metrics snapshot for one replicate, in registry format."""
        counters = {name: int(self.acc[name][rep]) for name in self.acc}
        counters["bus.slots_total"] = self.n * self.n_rounds
        counters["cluster.rounds_driven"] = self.n_rounds
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": {},
            "histograms": {
                "diag.matrix_epsilon_rows": {
                    "bounds": [int(b) for b in _EPS_BOUNDS],
                    "buckets": [int(v) for v in self.eps_hist[rep]],
                    "count": int(self.eps_count[rep]),
                },
            },
        }


class VectorizedRun:
    """Per-replicate facade mirroring :class:`DiagnosedCluster` queries."""

    def __init__(self, batch: "VectorizedBatch", rep: int) -> None:
        self._batch = batch
        self._rep = rep

    @property
    def config(self):
        return self._batch.config

    @property
    def seed(self) -> int:
        return self._batch.seeds[self._rep]

    @property
    def rounds_completed(self) -> int:
        return self._batch.spec.n_rounds

    def obedient_node_ids(self) -> Tuple[int, ...]:
        """All nodes — the vectorized backend models no byzantine nodes."""
        return tuple(range(1, self._batch.compiled.n + 1))

    def health_vectors(self, node_id: int) -> Dict[int, Tuple[int, ...]]:
        """Diagnosed round -> consistent health vector (trace-filtered)."""
        k = self._batch._kernel
        out: Dict[int, Tuple[int, ...]] = {}
        if k.trace_level < 1:
            return out
        i = node_id - 1
        for d in sorted(k.HVD):
            if not k.HVD_nodes[d][i]:
                continue
            hv = k.HVD[d][self._rep, i]
            if k.trace_level >= 2 or not hv.all():
                out[d] = tuple(int(b) for b in hv)
        return out

    def consistent_health_history(self, obedient_only: bool = True) -> bool:
        """Theorem 1 consistency over the stored health vectors."""
        reference: Dict[int, Tuple[int, ...]] = {}
        for node_id in self.obedient_node_ids():
            for d_round, hv in self.health_vectors(node_id).items():
                if d_round in reference:
                    if reference[d_round] != hv:
                        return False
                else:
                    reference[d_round] = hv
        return True

    def isolation_records(self, isolated: Optional[int] = None) -> List[dict]:
        """Isolation decisions of this replicate, oldest first."""
        out = []
        for rec in self._batch._kernel.iso_records:
            r, observer, target, round_k, time, penalty = rec
            if r != self._rep:
                continue
            if isolated is not None and target != isolated:
                continue
            out.append({"node": observer, "isolated": target,
                        "round_index": round_k, "time": time,
                        "penalty": penalty})
        return out

    def first_isolation_time(self, isolated: int) -> Optional[float]:
        """Earliest time any node isolated ``isolated`` (None if never)."""
        t = self._batch._kernel.first_iso[self._rep, isolated - 1]
        return None if np.isinf(t) else float(t)

    def active_matrix(self) -> Dict[int, Tuple[int, ...]]:
        """Each node's final activity vector (1 = considered active)."""
        k = self._batch._kernel
        return {i + 1: tuple(int(b) for b in k.ACTIVE[self._rep, i])
                for i in range(k.n)}

    def agreed_active_vector(self) -> Tuple[int, ...]:
        """The one activity vector all nodes agree on (asserts agreement)."""
        vectors = set(self.active_matrix().values())
        if len(vectors) != 1:
            raise AssertionError(
                f"obedient nodes disagree on activity: {sorted(vectors)}")
        return next(iter(vectors))

    def pr_snapshot(self, node_id: int) -> Dict[str, List[int]]:
        """Observer ``node_id``'s penalty/reward counters."""
        k = self._batch._kernel
        i = node_id - 1
        return {"penalties": [int(v) for v in k.PEN[self._rep, i]],
                "rewards": [int(v) for v in k.REW[self._rep, i]]}

    def metrics_snapshot(self) -> dict:
        """This replicate's semantic metrics, in registry snapshot format."""
        return self._batch._kernel.snapshot(self._rep)


class VectorizedBatch:
    """One kernel execution over a batch of replicate seeds."""

    def __init__(self, spec: RunSpec, seeds: Sequence[int],
                 reintegration: bool = False) -> None:
        validate_spec(spec)
        if not seeds:
            raise ValueError("need at least one replicate seed")
        self.spec = spec
        self.seeds = [int(s) for s in seeds]
        self.config = spec.protocol.to_config()
        self.compiled = compile_schedule(spec)
        lowered = lower_injection(spec, self.compiled, spec.n_rounds,
                                  self.seeds)
        self._kernel = _Kernel(spec, self.compiled, lowered,
                               len(self.seeds), reintegration)
        self._kernel.run()

    def __len__(self) -> int:
        return len(self.seeds)

    def view(self, rep: int) -> VectorizedRun:
        """The facade of one replicate (by batch index)."""
        return VectorizedRun(self, rep)

    def views(self) -> List[VectorizedRun]:
        """One facade per replicate, in seed order."""
        return [self.view(i) for i in range(len(self.seeds))]


def run_batch(spec: RunSpec, seeds: Optional[Sequence[int]] = None,
              replicates: Optional[int] = None,
              reintegration: bool = False) -> VectorizedBatch:
    """Run one spec over a batch of replicate seeds, in lockstep.

    ``seeds`` gives the replicates explicitly; ``replicates=K`` derives
    ``spec.cluster.seed + 0..K-1``.  With neither, the batch is the
    single replicate the spec itself describes.
    """
    if seeds is not None and replicates is not None:
        raise ValueError("pass seeds or replicates, not both")
    if seeds is None:
        count = 1 if replicates is None else int(replicates)
        seeds = [spec.cluster.seed + i for i in range(count)]
    return VectorizedBatch(spec, seeds, reintegration=reintegration)


def _replicate_spec(spec: RunSpec, seed: int) -> RunSpec:
    return spec.with_updates(cluster=replace(spec.cluster, seed=seed))


def _check_reducer(resolved: Any) -> None:
    if getattr(resolved, "prepare", None) is not None:
        raise UnsupportedSpecError(
            f"reducer {getattr(resolved, 'name', resolved)!r} installs "
            "probes on the event-engine cluster; run it with "
            "backend='event'")


def execute_vectorized(spec: RunSpec, reducer: Any = None,
                       metrics: Optional[Any] = None) -> Any:
    """Vectorized equivalent of :func:`repro.spec.build.execute`.

    Runs the spec as a one-replicate batch and reduces the replicate
    view.  With a metrics registry, the kernel's per-replicate snapshot
    is replayed into it (plus the provenance counter), so downstream
    snapshot consumers see the registry format they expect.
    """
    from ..spec.reducers import resolve_reducer

    resolved = resolve_reducer(reducer if reducer is not None
                               else spec.reducer)
    _check_reducer(resolved)
    batch = run_batch(spec)
    view = batch.view(0)
    if metrics is not None and metrics.enabled:
        replay_snapshot(view.metrics_snapshot(), metrics)
        metrics.counter(_PROVENANCE_PREFIX + spec.digest()).inc()
    return resolved.reduce(view, spec, None)


def execute_batch(spec: RunSpec, replicates: Optional[int] = None,
                  seeds: Optional[Sequence[int]] = None,
                  reducer: Any = None,
                  collect_metrics: bool = False) -> List[Any]:
    """Run + reduce a whole replicate batch in one kernel execution.

    Returns one result per replicate, each exactly what
    ``run_spec_dict(replicate_spec.to_dict())`` would have produced for
    the seed-shifted spec — including, with ``collect_metrics``, the
    ``(result, snapshot)`` pair with the replicate's provenance counter.
    This is the batched dispatch path of the campaign engine: one cache
    miss per replicate, one kernel execution for all of them.
    """
    from ..spec.reducers import resolve_reducer

    resolved = resolve_reducer(reducer if reducer is not None
                               else spec.reducer)
    _check_reducer(resolved)
    batch = run_batch(spec, seeds=seeds, replicates=replicates)
    results: List[Any] = []
    for i, seed in enumerate(batch.seeds):
        spec_r = _replicate_spec(spec, seed)
        view = batch.view(i)
        result = resolved.reduce(view, spec_r, None)
        if collect_metrics:
            snap = view.metrics_snapshot()
            counters = dict(snap["counters"])
            counters[_PROVENANCE_PREFIX + spec_r.digest()] = 1
            results.append((result, {
                "counters": dict(sorted(counters.items())),
                "gauges": snap["gauges"],
                "histograms": snap["histograms"],
            }))
        else:
            results.append(result)
    return results


def replay_snapshot(snapshot: dict, registry: Any) -> None:
    """Replay a kernel snapshot into a live MetricsRegistry.

    Counters are incremented by value; histogram buckets are refilled
    through representative observations (each bucket's smallest member
    under the registry's bisect_left bucketing), reconstructing the
    exact snapshot the kernel produced.
    """
    for name, value in snapshot.get("counters", {}).items():
        registry.counter(name).inc(int(value))
    for name, h in snapshot.get("histograms", {}).items():
        bounds = list(h["bounds"])
        hist = registry.histogram(name, tuple(bounds))
        for b, count in enumerate(h["buckets"]):
            if not count:
                continue
            if b == 0:
                value = bounds[0]
            elif b == len(bounds):
                value = bounds[-1] + 1
            else:
                value = bounds[b]
            for _ in range(count):
                hist.observe(value)


__all__ = [
    "VectorizedBatch",
    "VectorizedRun",
    "execute_batch",
    "execute_vectorized",
    "replay_snapshot",
    "run_batch",
    "validate_spec",
]
