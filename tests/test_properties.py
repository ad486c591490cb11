"""Property tests on random small DAGs: a shared Kostant memo, vector
partitions, the lattice-point forms and the reversed graph against
independent counts, and the degree of the volume."""
from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from flowpoly import graphs as G
from flowpoly import lidskii as L
from flowpoly.combinat import multichoose
from flowpoly.kostant import KostantEvaluator, integral_flows, kostant, vector_partitions

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def small_dags(draw) -> G.DirectedMultigraph:
    """A valid graph on at most 7 vertices: one drawn out-edge per non-sink
    and one drawn in-edge per non-source (so every vertex reaches the sink
    and the graph is connected), plus up to four extra edges, parallel
    copies allowed."""
    nv = draw(st.integers(2, 7))
    edges = [(v, draw(st.integers(v + 1, nv))) for v in range(1, nv)]
    edges += [(draw(st.integers(1, v - 1)), v) for v in range(2, nv + 1)]
    pair = st.integers(1, nv - 1).flatmap(lambda i: st.tuples(st.just(i), st.integers(i + 1, nv)))
    edges += draw(st.lists(pair, max_size=4))
    return G.from_edge_list(nv, edges)


def netflows(g: G.DirectedMultigraph, low: int) -> st.SearchStrategy:
    entries = st.lists(st.integers(low, 2), min_size=g.n, max_size=g.n)
    return entries.map(lambda a: tuple(a) + (-sum(a),))


@SETTINGS
@given(st.data())
def test_shared_evaluator_matches_fresh_evaluations(data):
    g = data.draw(small_dags())
    vectors = data.draw(st.lists(netflows(g, -1), min_size=1, max_size=8))
    vectors += [G.v_out(g), G.v_in(g)] * 2
    evaluate = KostantEvaluator(g)
    for v in data.draw(st.permutations(vectors)):
        got = evaluate(v)
        assert got == kostant(g, v), v
        assert got == sum(1 for _ in integral_flows(g, v)), v


@SETTINGS
@given(st.data())
def test_lattice_point_forms_agree(data):
    g = data.draw(small_dags())
    a = data.draw(netflows(g, 0))
    want = kostant(g, a)
    assert L.lattice_points_binomial(g, a) == want
    assert L.lattice_points_multiset(g, a) == want


@SETTINGS
@given(st.data())
def test_volume_is_homogeneous_of_degree_m_minus_n(data):
    g = data.draw(small_dags())
    a = data.draw(netflows(g, 0))
    base = L.volume(g, a)
    for c in (2, 3):
        assert L.volume(g, tuple(c * x for x in a)) == c ** (g.num_edges - g.n) * base


@SETTINGS
@given(st.data())
def test_vector_partitions_are_the_flows_up_to_parallel_copies(data):
    """Each partition is distinct and sums to v; weighted by the ways to
    spread each count over an edge's parallel copies, they number the
    integral flows."""
    g = data.draw(small_dags())
    v = data.draw(netflows(g, -1))
    parts = list(vector_partitions(g, v))
    assert len(set(parts)) == len(parts)
    for part in parts:
        net = [0] * g.num_vertices
        for (i, j), c in part:
            net[i - 1] += c
            net[j - 1] -= c
        assert tuple(net) == v, part
    copies = dict(g.distinct_edges())
    weighted = sum(math.prod(multichoose(copies[e], c) for e, c in part) for part in parts)
    assert weighted == sum(1 for _ in integral_flows(g, v))


def flip(v: tuple[int, ...]) -> tuple[int, ...]:
    """A net flow on g as a net flow on G.reverse(g)."""
    return tuple(-x for x in reversed(v))


@SETTINGS
@given(st.data())
def test_reversed_graph_counts_the_same_flows(data):
    """reverse(g) is a valid graph and reverse(reverse(g)) is g;
    K_G(v) = K_{G^r}(v^r) on whichever side of kostant()'s choice v lies;
    and K(v_out) = K(v_in), which kostant() evaluates in opposite
    orientations when v_out is nonzero."""
    g = data.draw(small_dags())
    r = G.reverse(g)
    assert G.from_edge_list(r.num_vertices, r.edges) == r
    assert G.reverse(r) == g
    v = data.draw(netflows(g, -1))
    want = sum(1 for _ in integral_flows(g, v))
    assert KostantEvaluator(g)(v) == KostantEvaluator(r)(flip(v)) == want
    assert kostant(g, v) == want
    assert kostant(g, G.v_out(g)) == kostant(g, G.v_in(g))
