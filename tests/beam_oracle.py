"""Chain-at-a-time beam search: the oracle the vectorized kernel is held to.

:class:`ReferenceBeamSearch` is Algorithm 1 written the direct way — one
Python object per chain, one ``CompatChecker.match`` call per candidate —
and :class:`repro.core.beam.BeamSearch` must reproduce its
:class:`~repro.core.beam.BeamSearchResult` bit for bit: the same cycles in
the same order (including which interior test combination represents each
deduplicated chain class), the same ``chains_explored`` and ``levels``, and
the same :class:`~repro.core.compat.CompatChecker` counters.  Inputs must
have unique edge ``key()``s, as the kernel requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearchResult
from repro.core.compat import CompatChecker
from repro.core.cycles import INJECTION_EDGE_TYPES, Cycle
from repro.types import CausalEdge, FaultKey, InjKind


@dataclass(frozen=True)
class _Chain:
    edges: Tuple[CausalEdge, ...]
    score: float

    @property
    def last(self) -> CausalEdge:
        return self.edges[-1]

    @property
    def first(self) -> CausalEdge:
        return self.edges[0]


class ReferenceBeamSearch:
    """Chain-at-a-time cycle detector with the kernel's interface."""

    def __init__(
        self,
        config: Optional[CSnakeConfig] = None,
        sim_scores: Optional[Dict[FaultKey, float]] = None,
    ) -> None:
        self.config = config or CSnakeConfig()
        #: SimScore of each fault's cluster; unknown faults default to 1.0
        #: (maximally unconditional, hence ranked last).
        self.sim_scores = sim_scores or {}
        self.compat = CompatChecker(enabled=self.config.compat_check)

    # -------------------------------------------------------------- scoring

    def _chain_score(self, edges: Tuple[CausalEdge, ...]) -> float:
        injected = [e.src for e in edges if e.etype in INJECTION_EDGE_TYPES]
        if not injected:
            return 1.0
        total = sum(self.sim_scores.get(f, 1.0) for f in injected)
        return total / len(injected)

    def _exceeds_delay_cap(self, edges: Tuple[CausalEdge, ...]) -> bool:
        cap = self.config.max_delay_faults
        delays = sum(
            1
            for e in edges
            if e.etype in INJECTION_EDGE_TYPES and e.src.kind is InjKind.DELAY
        )
        return cap is not None and delays > cap

    # --------------------------------------------------------------- search

    def search(self, edges: Sequence[CausalEdge]) -> BeamSearchResult:
        result = BeamSearchResult(compat=self.compat)
        edge_list = list(edges)
        # Index edges by source fault: a chain ending in fault f can only be
        # extended by edges injecting f.
        self._by_src: Dict[FaultKey, List[CausalEdge]] = {}
        for edge in edge_list:
            self._by_src.setdefault(edge.src, []).append(edge)
        seen_cycles: Dict[Tuple, Cycle] = {}
        queue: List[_Chain] = []
        for edge in edge_list:
            chain = _Chain((edge,), self._chain_score((edge,)))
            if self._exceeds_delay_cap(chain.edges):
                continue
            result.chains_explored += 1
            # A self-edge (f causes f) is already a cycle of length one.
            if self.compat.match(edge, edge):
                self._report(chain.edges, seen_cycles)
            queue.append(chain)

        while queue and result.levels < self.config.max_chain_len - 1:
            result.levels += 1
            extensions = self._extend_level(queue, seen_cycles)
            result.chains_explored += len(extensions)
            # Exact chain deduplication: future extension depends only on the
            # last edge, closure only on the first, and ranking only on the
            # fault-level signature — interior test combinations are
            # interchangeable, so keep one representative per class.
            unique: Dict[Tuple, _Chain] = {}
            for chain in extensions:
                sig = (
                    tuple((e.src, e.dst, e.etype.value) for e in chain.edges),
                    chain.first.key(),
                    chain.last.key(),
                )
                unique.setdefault(sig, chain)
            extensions = list(unique.values())
            extensions.sort(key=lambda c: (c.score, [e.key() for e in c.edges]))
            queue = extensions[: self.config.beam_width]

        result.cycles = [seen_cycles[k] for k in sorted(seen_cycles)]
        return result

    def _extend_level(
        self, queue: List[_Chain], seen_cycles: Dict[Tuple, Cycle]
    ) -> List[_Chain]:
        extensions: List[_Chain] = []
        for chain in queue:
            for edge in self._by_src.get(chain.last.dst, ()):
                if edge in chain.edges:
                    continue  # chains never reuse an edge
                if not self.compat.match(chain.last, edge):
                    continue
                new_edges = chain.edges + (edge,)
                if self._exceeds_delay_cap(new_edges):
                    continue
                if self.compat.match(edge, chain.first):
                    self._report(new_edges, seen_cycles)
                else:
                    extensions.append(_Chain(new_edges, self._chain_score(new_edges)))
        return extensions

    def _report(self, edges: Tuple[CausalEdge, ...], seen: Dict[Tuple, Cycle]) -> None:
        cycle = Cycle(edges).canonical()
        seen.setdefault(cycle.key(), cycle)


def unique_by_key(edge_list: Sequence[CausalEdge]) -> List[CausalEdge]:
    """First occurrence per ``key()``, preserving input order (EdgeDB-like)."""
    seen: Dict[Tuple, CausalEdge] = {}
    for e in edge_list:
        seen.setdefault(e.key(), e)
    return list(seen.values())
