"""Beam search for self-sustaining cascading failures (Algorithm 1).

Starting from every causal edge as a length-1 chain, each level appends one
edge to each surviving chain (guarded by the local compatibility check) and
reports a cycle whenever a chain closes back onto its first edge.  At each
level only the best ``B`` chains survive, ranked by the mean intra-cluster
interference similarity score of the injected faults in the chain — chains
built from faults with *conditional* consequences (low SimScore) are kept,
as they most resemble the error-handling tangles developers overlook.

:class:`BeamSearch` interns the edge set once into integer arrays with ids
assigned in sorted-``key()`` order, so integer comparisons reproduce the
lexicographic edge-key tie-breaks of a chain-at-a-time search bit for bit
(see DESIGN.md, "The interned beam kernel").  The pairwise
``CompatChecker.match`` relation depends only on the ordered edge pair, so
it is precomputed into a CSR adjacency (+ a sorted pair-code array for
closure membership), chain scores and delay counts are carried
incrementally, and per-level ranking is an ``argpartition``-based
top-``B`` selection instead of a full sort.  Each beam level is a handful
of numpy array operations over the whole frontier.  The chain-at-a-time
form survives as the differential-testing oracle
(``tests/beam_oracle.py``), which the kernel matches cycle for cycle and
counter for counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import CSnakeConfig
from ..types import CausalEdge, FaultKey, InjKind, states_compatible
from .compat import CompatChecker
from .cycles import INJECTION_EDGE_TYPES, Cycle


@dataclass
class BeamSearchResult:
    cycles: List[Cycle] = field(default_factory=list)
    chains_explored: int = 0
    levels: int = 0
    compat: Optional[CompatChecker] = None


class BeamSearch:
    """Cycle detector over a causal-edge set (vectorized kernel).

    Edge ``key()``s must be unique, as :class:`~repro.core.edges.EdgeDB`
    guarantees: the kernel's id order stands for key order.
    """

    def __init__(
        self,
        config: Optional[CSnakeConfig] = None,
        sim_scores: Optional[Dict[FaultKey, float]] = None,
    ) -> None:
        self.config = config or CSnakeConfig()
        self.sim_scores = sim_scores or {}
        self.compat = CompatChecker(enabled=self.config.compat_check)

    def search(self, edges: Sequence[CausalEdge]) -> BeamSearchResult:
        edge_list = list(edges)
        keys = [e.key() for e in edge_list]
        seen = set()
        for key in keys:
            if key in seen:
                raise ValueError("duplicate causal edge key %r" % (key,))
            seen.add(key)
        return _VectorizedKernel(
            self.config, self.sim_scores, self.compat, edge_list, keys
        ).run()


class _VectorizedKernel:
    """One search over one interned edge set.

    Bit-identity with the reference rests on five invariants (argued in
    DESIGN.md): edge ids are assigned by stable sort of unique ``key()``s,
    so comparing id sequences ≡ comparing key lists; CSR rows preserve the
    reference's insertion-order buckets, so flat candidate order ≡ the
    reference's (chain, bucket-position) generation order, which is what
    picks each dedup class's surviving representative; incremental score
    sums add the same IEEE terms in the same left-to-right order; the
    argpartition top-``B`` keeps exactly the stable-sort prefix; and cycle
    identity and canonical rotation are computed over id/rank rows, whose
    order is the order of the edge keys and ``(src, dst, etype)`` triples
    they stand for.
    """

    def __init__(
        self,
        config: CSnakeConfig,
        sim_scores: Dict[FaultKey, float],
        compat: CompatChecker,
        edge_list: List[CausalEdge],
        keys: List[Tuple],
    ) -> None:
        self.config = config
        self.compat = compat
        self.n = n = len(edge_list)
        self._checks = 0
        self._rej_fault = 0
        self._rej_state = 0
        if n == 0:
            return
        order = sorted(range(n), key=keys.__getitem__)
        #: Edge objects by interned id (ascending key order).
        self.edges: List[CausalEdge] = [edge_list[i] for i in order]
        #: Edge id at each original input position (the level-0 queue).
        self.input_ids = np.empty(n, dtype=np.int64)
        for eid, pos in enumerate(order):
            self.input_ids[pos] = eid

        fault_ids: Dict[FaultKey, int] = {}
        last_triple: Optional[Tuple[int, int, str]] = None
        rank = -1
        src = np.empty(n, dtype=np.int64)
        dst = np.empty(n, dtype=np.int64)
        triple = np.empty(n, dtype=np.int64)
        inj = np.zeros(n, dtype=np.int64)
        delay = np.zeros(n, dtype=np.int64)
        score_term = np.zeros(n, dtype=np.float64)
        for eid, e in enumerate(self.edges):
            s = fault_ids.setdefault(e.src, len(fault_ids))
            d = fault_ids.setdefault(e.dst, len(fault_ids))
            src[eid] = s
            dst[eid] = d
            if e.etype in INJECTION_EDGE_TYPES:
                inj[eid] = 1
                if e.src.kind is InjKind.DELAY:
                    delay[eid] = 1
                score_term[eid] = sim_scores.get(e.src, 1.0)
            # triple[eid]: rank of the edge's (src, dst, etype) among the
            # distinct triples.  Ids ascend in key order, which starts with
            # the triple, so equal triples are adjacent and a running count
            # of changes ranks them in ``Cycle.key()`` order.
            this_triple = (s, d, e.etype.value)
            if this_triple != last_triple:
                rank += 1
                last_triple = this_triple
            triple[eid] = rank
        self.src, self.dst, self.triple = src, dst, triple
        self.inj, self.delay, self.score_term = inj, delay, score_term

        # Source-fault buckets in *input* order — the reference builds
        # ``_by_src`` by appending over the input list, and bucket order
        # decides which interior-test representative survives dedup.
        buckets: Dict[int, List[int]] = {}
        for pos in range(n):
            eid = int(self.input_ids[pos])
            buckets.setdefault(int(src[eid]), []).append(eid)
        empty = np.empty(0, dtype=np.int64)
        by_src = {f: np.asarray(ids, dtype=np.int64) for f, ids in buckets.items()}
        rows = [by_src.get(int(dst[eid]), empty) for eid in range(n)]
        counts = np.array([row.shape[0] for row in rows], dtype=np.int64)
        self.adj_counts = counts
        self.adj_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.adj_indptr[1:])
        self.adj = np.concatenate(rows) if rows else empty

        # Precompute match(l, j) over the CSR entries, which enumerate
        # exactly the fault-compatible ordered pairs (dst[l] == src[j]).
        # State compatibility is memoized per distinct state-set pair.
        total = int(self.adj.shape[0])
        heads = np.repeat(np.arange(n, dtype=np.int64), counts)
        ok = np.ones(total, dtype=bool)
        if self.compat.enabled:
            set_ids: Dict[frozenset, int] = {}
            sets: List[frozenset] = []

            def _sid(states: frozenset) -> int:
                sid = set_ids.get(states)
                if sid is None:
                    sid = set_ids[states] = len(sets)
                    sets.append(states)
                return sid

            d_sid = [_sid(e.dst_states) for e in self.edges]
            s_sid = [_sid(e.src_states) for e in self.edges]
            pair_ok: Dict[Tuple[int, int], bool] = {}
            adj = self.adj
            for pos in range(total):
                pair = (d_sid[int(heads[pos])], s_sid[int(adj[pos])])
                verdict = pair_ok.get(pair)
                if verdict is None:
                    verdict = pair_ok[pair] = states_compatible(
                        sets[pair[0]], sets[pair[1]]
                    )
                ok[pos] = verdict
        self.adj_ok = ok
        #: Sorted ``l*n + j`` codes of every matching ordered pair — closure
        #: membership (does candidate c match first edge f?) is a
        #: ``searchsorted`` against this array.
        self.match_codes = np.sort((heads * n + self.adj)[ok])

    # ------------------------------------------------------------- plumbing

    def _is_match(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Vectorized ``CompatChecker.match`` verdict for ordered id pairs
        (fault-compatible *and* state-compatible), without counters."""
        codes = left * self.n + right
        if self.match_codes.shape[0] == 0:
            return np.zeros(codes.shape, dtype=bool)
        idx = np.searchsorted(self.match_codes, codes)
        # Out-of-range probes point past the array; slot 0 holds the
        # minimum code, which such probes can never equal.
        idx[idx == self.match_codes.shape[0]] = 0
        return self.match_codes[idx] == codes

    def _report(self, closed: np.ndarray, seen: Dict[Tuple[int, ...], Cycle]) -> None:
        """Report one level's closed chains (rows of edge ids, generation
        order) — the batch form of the reference's per-chain
        ``seen.setdefault(cycle.key(), cycle.canonical())``."""
        if closed.shape[0] == 0:
            return
        # ``Cycle.key()``: the least rotation of the triple sequence, here
        # over triple ranks, whose order is the triples' order.  Equal keys
        # keep their first chain in generation order, as setdefault does.
        keys = _least_rotations(self.triple[closed])
        firsts = _first_occurrences(keys)
        # ``Cycle.canonical()``: the rotation with the least edge-key list,
        # i.e. the least id rotation (unique: a chain never repeats an edge).
        canon = _least_rotations(closed[firsts])
        # Keys of other levels differ in length, so none of these is in
        # ``seen`` yet: one Cycle per new key.
        for key, row in zip(map(tuple, keys[firsts].tolist()), canon.tolist()):
            seen[key] = Cycle(tuple(self.edges[i] for i in row))

    # ---------------------------------------------------------------- levels

    def run(self) -> BeamSearchResult:
        result = BeamSearchResult(compat=self.compat)
        if self.n == 0:
            return result
        # Cycles by their key in rank space; ranks order like the
        # ``Cycle.key()`` triples, so sorting these keys orders the result.
        seen: Dict[Tuple[int, ...], Cycle] = {}

        # Level 0: every edge is a length-1 chain, in input order (the
        # reference leaves the initial queue unsorted).
        ids = self.input_ids
        cap = self.config.max_delay_faults
        if cap is not None:
            ids = ids[self.delay[ids] <= cap]
        kept = int(ids.shape[0])
        result.chains_explored += kept
        # Self-match (f causes f closes a length-1 cycle): one counted
        # check per surviving edge.
        self._checks += kept
        fault_ok = self.src[ids] == self.dst[ids]
        self._rej_fault += kept - int(fault_ok.sum())
        self_ok = self._is_match(ids, ids)
        self._rej_state += int((fault_ok & ~self_ok).sum())
        self._report(ids[self_ok][:, None], seen)

        queue = ids[:, None]
        sums = self.score_term[ids].copy()
        cnts = self.inj[ids].copy()
        delays = self.delay[ids].copy()

        while queue.shape[0] and result.levels < self.config.max_chain_len - 1:
            result.levels += 1
            queue, sums, cnts, delays = self._extend_level(
                queue, sums, cnts, delays, seen, result
            )

        self.compat.checks += self._checks
        self.compat.rejected_fault += self._rej_fault
        self.compat.rejected_state += self._rej_state
        result.cycles = [seen[k] for k in sorted(seen)]
        return result

    def _extend_level(
        self,
        queue: np.ndarray,
        sums: np.ndarray,
        cnts: np.ndarray,
        delays: np.ndarray,
        seen: Dict[Tuple[int, ...], Cycle],
        result: BeamSearchResult,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        length = queue.shape[1]

        def _empty_level() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
            return (
                np.empty((0, length + 1), dtype=np.int64),
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )

        # Flat candidate table: one row per (chain, adjacent edge), in
        # (queue order, bucket order) — the reference's generation order.
        last = queue[:, -1]
        deg = self.adj_counts[last]
        total = int(deg.sum())
        if total == 0:
            return _empty_level()
        parent = np.repeat(np.arange(queue.shape[0], dtype=np.int64), deg)
        gpos = np.repeat(self.adj_indptr[last], deg) + (
            np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(deg) - deg, deg)
        )
        cand = self.adj[gpos]

        # match(chain.last, edge): candidates come from last.dst's bucket,
        # so the fault leg always holds; only state rejection can fire.
        # Chains never reuse an edge — membership is id equality because
        # keys (hence edges) are unique.
        alive = ~(queue[parent] == cand[:, None]).any(axis=1)
        self._checks += int(alive.sum())
        state_ok = self.adj_ok[gpos]
        self._rej_state += int((alive & ~state_ok).sum())
        alive &= state_ok

        new_delays = delays[parent] + self.delay[cand]
        cap = self.config.max_delay_faults
        if cap is not None:
            alive &= new_delays <= cap

        # match(edge, chain.first): closure check on what survived the cap.
        first = queue[parent, 0]
        self._checks += int(alive.sum())
        fault_ok = self.dst[cand] == self.src[first]
        self._rej_fault += int((alive & ~fault_ok).sum())
        closes = self._is_match(cand, first)
        self._rej_state += int((alive & fault_ok & ~closes).sum())
        cpos = np.flatnonzero(alive & closes)
        self._report(np.concatenate([queue[parent[cpos]], cand[cpos, None]], axis=1), seen)

        epos = np.flatnonzero(alive & ~closes)
        result.chains_explored += int(epos.shape[0])
        if epos.shape[0] == 0:
            return _empty_level()
        eparent = parent[epos]
        ecand = cand[epos]
        new_q = np.concatenate([queue[eparent], ecand[:, None]], axis=1)
        new_sums = sums[eparent] + self.score_term[ecand]
        new_cnts = cnts[eparent] + self.inj[ecand]
        new_del = new_delays[epos]

        # Dedup by (triple sequence, first key, last key), keeping the first
        # occurrence in generation order.
        sig = np.empty((epos.shape[0], length + 3), dtype=np.int64)
        sig[:, : length + 1] = self.triple[new_q]
        sig[:, length + 1] = new_q[:, 0]
        sig[:, length + 2] = new_q[:, -1]
        keep = _first_occurrences(sig)
        new_q, new_sums, new_cnts, new_del = (
            new_q[keep],
            new_sums[keep],
            new_cnts[keep],
            new_del[keep],
        )

        # Rank by (score, id sequence) and keep the stable top B.  Scores
        # divide once at compare time, exactly like the reference's
        # total/len; id-sequence comparison ≡ the reference's key-list
        # comparison because ids were assigned in sorted-key order.
        scores = np.where(new_cnts > 0, new_sums / np.maximum(new_cnts, 1), 1.0)
        width = self.config.beam_width
        count = scores.shape[0]
        if count > width:
            # Everything strictly above the B-th smallest score sorts after
            # at least B chains, so restricting the sort to ``scores <=
            # kth`` provably reproduces full-sort[:B].
            kth = np.partition(scores, width - 1)[width - 1]
            pool = np.flatnonzero(scores <= kth)
        else:
            pool = np.arange(count)
        keys = [new_q[pool, col] for col in range(length, -1, -1)]
        keys.append(scores[pool])
        top = pool[np.lexsort(keys)][:width]
        return new_q[top], new_sums[top], new_cnts[top], new_del[top]


def _first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each distinct row.

    ``lexsort`` is stable, so within each group of equal rows the original
    positions stay ascending and the group head is the earliest one.
    """
    order = np.lexsort(rows.T[::-1])
    srows = rows[order]
    head = np.empty(order.shape[0], dtype=bool)
    head[0] = True
    head[1:] = (srows[1:] != srows[:-1]).any(axis=1)
    return np.sort(order[head])


def _least_rotations(rows: np.ndarray) -> np.ndarray:
    """Each row replaced by its lexicographically least rotation."""
    count, length = rows.shape
    spin = (np.arange(length)[:, None] + np.arange(length)) % length
    # Rotation r of row i sits at flat row i*length + r; sorting by (i, rotation)
    # puts each row's least rotation first in its block of ``length``.
    flat = rows[:, spin].reshape(count * length, length)
    owner = np.repeat(np.arange(count), length)
    return flat[np.lexsort((*flat.T[::-1], owner))[::length]]
