"""Property tests on random small DAGs: a shared Kostant memo, the listed
integral flows, the lattice-point forms, the Lidskii sweep, the reversed graph and restricted
(unvalidated) graphs against independent counts, and the degree of the
volume."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from flowpoly import graphs as G
from flowpoly import lidskii as L
from flowpoly.kostant import KostantEvaluator, integral_flows, kostant
from oracles import at_netflow, integral_flows_brute_force, restrict

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


def top(v: tuple[int, ...]) -> int:
    """The largest alpha coordinate of v: the least top of an evaluator
    that is asked v."""
    return max(G.alpha_coordinates(v))


@SETTINGS
@given(st.data())
def test_shared_evaluator_matches_fresh_evaluations(data):
    g = data.draw(small_dags())
    vectors = data.draw(st.lists(netflows(g, -1), min_size=1, max_size=8))
    vectors += [G.v_out(g), G.v_in(g)] * 2
    evaluate = KostantEvaluator(g, max(map(top, vectors)))
    for v in data.draw(st.permutations(vectors)):
        got = at_netflow(evaluate, g, v)
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
def test_sweep_equals_term_sum(data):
    """The backward sweep and the term-by-term Kostant sum agree on all
    three forms, at net flows with zero entries (so volume weights vanish)."""
    g = data.draw(small_dags())
    a = data.draw(netflows(g, 0))
    sweeps = (L.volume(g, a), L.lattice_points_binomial(g, a), L.lattice_points_multiset(g, a))
    assert (sweeps,) == L.term_sum(g, [a])


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
def test_integral_flows_are_distinct_and_conserve_the_net_flow(data):
    """Each listed flow is distinct, has one nonnegative value per edge
    copy, parallel copies included, and has net flow v at every vertex."""
    g = data.draw(small_dags())
    v = data.draw(netflows(g, -1))
    flows = list(integral_flows(g, v))
    assert len(set(flows)) == len(flows)
    for flow in flows:
        assert len(flow) == g.num_edges and min(flow, default=0) >= 0, flow
        net = [0] * g.num_vertices
        for (i, j), f in zip(g.edges, flow):
            net[i - 1] += f
            net[j - 1] -= f
        assert tuple(net) == v, flow


@SETTINGS
@given(st.data())
def test_integral_flows_match_the_brute_force_listing(data):
    """The same flows in the same order (lex decreasing) as trying every
    assignment, at net flows whose interior entries may be negative.  At
    most 8 edges and a total supply of at most 2 keep the brute force to
    3^8 assignments."""
    g = data.draw(small_dags().filter(lambda g: g.num_edges <= 8))
    v = data.draw(netflows(g, -1).filter(lambda v: sum(x for x in v if x > 0) <= 2))
    assert list(integral_flows(g, v)) == integral_flows_brute_force(g, v)


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
    forward, backward = KostantEvaluator(g, top(v)), KostantEvaluator(r, top(flip(v)))
    assert at_netflow(forward, g, v) == at_netflow(backward, r, flip(v)) == want
    assert kostant(g, v) == want
    assert kostant(g, G.v_out(g)) == kostant(g, G.v_in(g))


@SETTINGS
@given(st.data())
def test_restricted_graphs_count_their_flows(data):
    """On a restriction of a valid graph, a vertex may have no out-edge, so
    its column has no root of its own and the DFS must find it zero when
    it drops it; the evaluator and kostant() each count the integral
    flows."""
    g = data.draw(small_dags())
    lo = data.draw(st.integers(1, g.n))
    r = restrict(g, lo, data.draw(st.integers(lo + 1, g.num_vertices)))
    v = data.draw(netflows(r, -1))
    want = sum(1 for _ in integral_flows(r, v))
    assert at_netflow(KostantEvaluator(r, top(v)), r, v) == want
    assert kostant(r, v) == want
