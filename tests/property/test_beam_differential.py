"""Differential tests: the vectorized beam kernel vs the reference oracle.

The vectorized :class:`BeamSearch` must be *bit-identical* to the
chain-at-a-time :class:`~tests.beam_oracle.ReferenceBeamSearch` — same cycles in the same order (down to
which interior-test representative survives chain dedup, which decides
the ``tests`` column of the final report), same ``chains_explored`` and
``levels``, and same :class:`CompatChecker` counters.  Edge sets are
drawn with unique ``key()``s (the kernel's precondition, guaranteed by
``EdgeDB`` in production).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CSnakeConfig
from repro.core.beam import BeamSearch
from repro.types import CausalEdge, EdgeType, FaultKey, InjKind, LocalState

from tests.beam_oracle import ReferenceBeamSearch, unique_by_key

sites = st.sampled_from(["a", "b", "c", "d"])
kinds = st.sampled_from([InjKind.DELAY, InjKind.EXCEPTION, InjKind.NEGATION])
faults = st.builds(FaultKey, site_id=sites, kind=kinds)
states = st.frozensets(
    st.builds(
        LocalState,
        call_stack=st.tuples(st.sampled_from(["f", "g"]), st.just("h")),
        branch_trace=st.just(()),
    ),
    min_size=0,
    max_size=2,
)
edges = st.builds(
    CausalEdge,
    src=faults,
    dst=faults,  # src == dst draws produce self-edge (length-1) cycles
    etype=st.sampled_from(list(EdgeType)),
    test_id=st.sampled_from(["t1", "t2", "t3"]),
    src_states=states,
    dst_states=states,
)
# A small score palette on purpose: repeated values force score ties, so the
# lexicographic edge-key tie-break (the subtlest part of the interning
# argument) actually decides beam survival.
sim_scores = st.dictionaries(faults, st.sampled_from([0.0, 0.25, 0.5, 1.0]), max_size=6)
configs = st.builds(
    CSnakeConfig,
    beam_width=st.sampled_from([1, 2, 3, 500]),
    max_chain_len=st.sampled_from([3, 5]),
    max_delay_faults=st.sampled_from([None, 0, 1]),
    compat_check=st.booleans(),
)


def assert_identical(edge_list, config, scores=None):
    ref = ReferenceBeamSearch(config, scores)
    vec = BeamSearch(config, scores)
    expected = ref.search(edge_list)
    got = vec.search(edge_list)
    # Cycles: same edge tuples, same canonical order — dataclass equality
    # covers edges, states, and test ids (the report's ``tests`` column).
    assert got.cycles == expected.cycles
    assert [c.key() for c in got.cycles] == [c.key() for c in expected.cycles]
    assert got.chains_explored == expected.chains_explored
    assert got.levels == expected.levels
    assert vec.compat.checks == ref.compat.checks
    assert vec.compat.rejected_fault == ref.compat.rejected_fault
    assert vec.compat.rejected_state == ref.compat.rejected_state


@given(st.lists(edges, max_size=14), configs, sim_scores)
@settings(max_examples=120, deadline=None)
def test_kernel_matches_reference(edge_list, config, scores):
    assert_identical(unique_by_key(edge_list), config, scores)


@given(st.lists(edges, max_size=12), sim_scores)
@settings(max_examples=40, deadline=None)
def test_narrow_beam_tie_breaks(edge_list, scores):
    # beam_width=1 makes every level a pure tie-break decision: any
    # divergence between integer-id ordering and key-list ordering would
    # change which single chain survives.
    config = CSnakeConfig(beam_width=1, max_chain_len=5)
    assert_identical(unique_by_key(edge_list), config, scores)

