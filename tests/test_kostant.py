"""Kostant partition function against direct flow enumeration."""
from __future__ import annotations

import gc
import itertools
import sys
import tracemalloc
import weakref

import pytest

from flowpoly import InputError
from flowpoly import graphs as G
from flowpoly import kostant as K
from flowpoly import lidskii as L
from flowpoly.kostant import KostantEvaluator, integral_flows, kostant
from oracles import at_netflow, integral_flows_brute_force, restrict


def small_zoo():
    zoo = [G.caracol_k(n, k) for n in range(2, 6) for k in range(1, n)]
    zoo += [G.pitman_stanley(n) for n in range(2, 6)]
    zoo += [G.complete_graph(n) for n in range(1, 5)]
    zoo += [G.multicaracol(a, k) for a in range(1, 4) for k in range(1, 4)]
    return [g for g in zoo if g.num_edges <= 16]


def test_zero_vector():
    for g in small_zoo():
        zero = (0,) * g.num_vertices
        assert kostant(g, zero) == 1
        assert list(integral_flows(g, zero)) == [(0,) * g.num_edges]


def test_figure_counts():
    c61 = G.caracol_k(5, 1)
    c62 = G.caracol_k(5, 2)
    assert kostant(c61, G.v_out(c61)) == 5
    assert kostant(c62, G.v_out(c62)) == 7
    assert kostant(c61, G.v_in(c61)) == 5
    assert kostant(c62, G.v_in(c62)) == 7


def test_flow_counts_match_kostant():
    for g in small_zoo():
        n = g.n
        flows = [
            G.unit_flow(g),
            G.ones_flow(g),
            (2,) + (0,) * (n - 1) + (-2,),
            (1, 2) + (0,) * (n - 2) + (-3,) if n >= 2 else G.unit_flow(g),
        ]
        for a in flows:
            count = sum(1 for _ in integral_flows(g, a))
            assert count == kostant(g, a), (g, a)


@pytest.mark.parametrize(
    "g, a",
    [
        (G.multicaracol(2, 2), (1, 1, 1, -3)),
        (G.multicaracol(2, 2), (2, 0, 1, -3)),
        (G.pitman_stanley(4), (1, 2, 0, -3)),
        (G.DirectedMultigraph(4, ((1, 2), (1, 3), (3, 4))), (1, 0, 0, -1)),
        (G.DirectedMultigraph(4, ((1, 2), (1, 3), (3, 4))), (1, 1, -1, -1)),
    ],
)
def test_flows_match_the_brute_force_listing(g, a):
    """The same flows in the same order, each one once and conserving the
    net flow, parallel edges (multicaracol) and a vertex with no out-edge
    (the graph of the column test below) included."""
    assert list(integral_flows(g, a)) == integral_flows_brute_force(g, a)


def test_parallel_edges_weighting():
    # two parallel edges: a_1 + 1 flows
    g = G.from_edge_list(2, [(1, 2), (1, 2)])
    for a1 in range(5):
        assert kostant(g, (a1, -a1)) == a1 + 1


def test_unit_volume_two_vectors_agree():
    for n in range(2, 7):
        for k in range(1, n):
            g = G.caracol_k(n, k)
            assert kostant(g, G.v_out(g)) == kostant(g, G.v_in(g))


@pytest.mark.parametrize("a, k", [(a, k) for a in range(1, 4) for k in range(1, 4)])
def test_multicaracol_in_and_out_degree_flows_are_equinumerous(a, k):
    """On multicaracol(a, k), with k parallel copies of each source edge,
    the integral flows at v_in and at v_out, one value per edge copy,
    number K(v_out) = count_gravity(a+k, k): 2 on (2,2), 7 on (3,2) and
    15 on (3,3)."""
    from flowpoly.gravity import count_gravity

    g = G.multicaracol(a, k)
    want = kostant(g, G.v_out(g))
    assert want == count_gravity(a + k, k)
    for v in (G.v_in(g), G.v_out(g)):
        assert sum(1 for _ in integral_flows(g, v)) == want, v


def test_representation_independence():
    edges = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 4), (2, 4)]
    g1 = G.from_edge_list(4, edges)
    g2 = G.from_edge_list(4, list(reversed(edges)))
    assert g1 == g2
    for a in [(1, 0, 0, -1), (1, 1, 1, -3), (2, 0, 1, -3)]:
        assert kostant(g1, a) == kostant(g2, a)


def test_sum_nonzero():
    g = G.caracol_k(4, 1)
    with pytest.raises(InputError, match="does not sum to zero"):
        kostant(g, (1, 0, 0, 0, 0))
    with pytest.raises(InputError, match="does not sum to zero"):
        list(integral_flows(g, (1, 0, 0, 0, 0)))


def test_infeasible_vector_is_zero():
    g = G.caracol_k(4, 1)
    assert kostant(g, (-1, 1, 0, 0, 0)) == 0
    h = G.from_edge_list(4, [(1, 3), (1, 2), (2, 4), (3, 4)])
    # no root covers alpha_2 alone
    assert kostant(h, (0, 1, -1, 0)) == 0


def test_stretch_targets():
    """K(v_out) on caracol(13,3) is Cat(10, 29); CRY on complete(9) is the
    Catalan product 1*2*5*14*42*132*429 (Zeilberger 1999)."""
    from flowpoly.combinat import rational_catalan

    g = G.caracol_k(13, 3)
    assert kostant(g, G.v_out(g)) == rational_catalan(10, 29) == 16301164
    g = G.complete_graph(9)
    assert kostant(g, G.v_out(g)) == kostant(g, G.v_in(g)) == 332972640


@pytest.fixture
def recording(monkeypatch):
    """(graph, evaluator) for each KostantEvaluator that kostant() makes,
    kept with its memos past the call."""
    made = []

    class Recording(KostantEvaluator):
        def __init__(self, graph, top):
            super().__init__(graph, top)
            made.append((graph, self))

    monkeypatch.setattr(K, "KostantEvaluator", Recording)
    return made


def test_one_shot_evaluation_runs_from_the_lighter_end(recording):
    """K(v_out) starts at the source with its whole outflow to split and
    ends in a zero at the sink, so kostant() evaluates it on the reversed
    graph: 298 memo entries on caracol(10,2), against 14,747 forward.  The
    unit flow is a tie, and ties run forward."""
    from flowpoly.combinat import rational_catalan

    g = G.caracol_k(10, 2)
    assert kostant(g, G.v_out(g)) == rational_catalan(8, 15)
    [(graph, evaluator)] = recording
    assert graph == G.reverse(g)
    assert sum(map(len, evaluator.memos)) <= 1000
    unit = G.unit_flow(g)
    assert kostant(g, unit) == sum(1 for _ in integral_flows(g, unit))
    assert recording[1][0] == g


@pytest.mark.parametrize(
    "g, vector, value, states",
    [
        (G.caracol_k(10, 2), G.v_out, 21_318, 298),
        (G.caracol_k(15, 3), G.v_out, 1_111_731_933, 4_747),
        (G.complete_graph(9), G.v_out, 332_972_640, 6_238),
        (G.caracol_k(16, 4), G.v_out, 18_974_357_220, 19_126),
        (G.complete_graph(10), G.v_out, 476_150_875_200, 28_962),
    ],
)
def test_one_shot_state_counts(recording, g, vector, value, states):
    """The DFS states one kostant() call enters, with each column's last
    root forced and its roots longest first: the memo total of its one
    evaluator."""
    assert kostant(g, vector(g)) == value
    [(_, evaluator)] = recording
    assert sum(map(len, evaluator.memos)) == states


@pytest.mark.parametrize("g", [G.complete_graph(4), G.caracol_k(6, 2)])
def test_each_state_is_entered_once(g):
    """The DFS looks each next state up before it enters it, so it enters
    every state once: one memo store per memo entry, and no state stored
    twice.  Asked the ones flow and then three times it, a shared evaluator
    meets next states of the first walk in the second one, after next
    states it has to enter."""
    ones = G.ones_flow(g)
    vectors = [ones, tuple(3 * x for x in ones)]
    want = [kostant(g, v) for v in vectors]
    stores = []

    class Storing(dict):
        def __init__(self, root):
            super().__init__()
            self.root = root

        def __setitem__(self, state, value):
            stores.append((self.root, state))
            super().__setitem__(state, value)

    evaluate = KostantEvaluator(g, max(G.alpha_coordinates(vectors[1])))
    evaluate.memos = [Storing(idx) for idx in range(len(evaluate.memos))]
    evaluate.counted = evaluate.memos + evaluate.counted[-1:]
    assert [at_netflow(evaluate, g, v) for v in vectors] == want
    assert len(stores) == len(set(stores)) == sum(map(len, evaluate.memos)) > 0


@pytest.mark.parametrize(
    "g",
    [
        G.from_edge_list(3, [(1, 2), (2, 3)]),
        G.from_edge_list(4, [(1, 2)] * 2 + [(1, 3)] * 3 + [(2, 3), (2, 4), (3, 4)]),
    ],
)
def test_every_edge_shape_counts_the_integral_flows(g):
    """Every vector of a small box, infeasible ones included, on a graph
    whose first root is forced, and on one whose first column has a free
    root of multiplicity 3, (1,3), and a forced one of multiplicity 2,
    (1,2): a shared evaluator and kostant() each count the integral
    flows."""
    box = [
        head + (-sum(head),)
        for head in itertools.product(range(-1, 4), repeat=g.num_vertices - 1)
    ]
    evaluate = KostantEvaluator(g, max(max(G.alpha_coordinates(v)) for v in box))
    for v in box:
        want = sum(1 for _ in integral_flows(g, v))
        assert at_netflow(evaluate, g, v) == kostant(g, v) == want, v


def test_restricted_graph_carries_the_in_degree_count():
    """The in-degree vector is supported past vertex k, so evaluating on the
    restriction to the tail vertices gives the same count."""
    from flowpoly.combinat import rational_catalan

    for n, k in [(5, 2), (6, 2), (6, 3), (7, 3)]:
        g = G.caracol_k(n, k)
        sub = restrict(g, k + 1, n + 1)
        a = n - k
        vec = (k - 1,) + (k,) * (a - 1) + (-(k * a - 1),)
        assert kostant(sub, vec) == rational_catalan(a, k * a - 1)
        assert kostant(sub, vec) == kostant(g, G.v_in(g))


def test_a_column_with_no_root_must_be_zero():
    """Vertex 2 of this unvalidated graph has no out-edge, so no root
    starts in column 2: the DFS drops it after column 1 and counts only
    states where it is zero.  At (1, 1, -1, -1) vertex 2 keeps a unit it
    cannot send on, so there is no flow at all."""
    g = G.DirectedMultigraph(4, ((1, 2), (1, 3), (3, 4)))
    for v, want in [((1, 0, 0, -1), 1), ((1, 1, -1, -1), 0), ((0, 1, 0, -1), 0)]:
        assert sum(1 for _ in integral_flows(g, v)) == want
        evaluate = KostantEvaluator(g, max(G.alpha_coordinates(v)))
        assert at_netflow(evaluate, g, v) == kostant(g, v) == want


def test_the_dfs_leaves_the_recursion_limit_alone(monkeypatch):
    """The evaluator keeps its own stack: on complete(46), with 1,081
    roots, it runs with the recursion limit 50 frames above the caller's
    depth and never sets it."""
    g = G.complete_graph(46)
    unit = G.unit_flow(g)
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back

    def refuse(limit):
        raise AssertionError(f"the recursion limit was set to {limit}")

    limit, set_limit = sys.getrecursionlimit(), sys.setrecursionlimit
    set_limit(depth + 50)
    try:
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        value = kostant(g, unit)
    finally:
        set_limit(limit)
    assert value == 2**45


@pytest.mark.parametrize(
    "g, times, widths, states, shared",
    [(G.caracol_k(6, 2), 3, (4, 6), 1_845, 9), (G.multicaracol(2, 2), 40, (3, 8), 2_678, 0)],
)
def test_a_shared_evaluator_serves_every_vector_up_to_its_top(g, times, widths, states, shared):
    """An evaluator built at the larger vector's top, 18 on caracol(6,2)
    and 120 on multicaracol(2,2), holds every state of both in fields of
    one bit more than that top's bit length.  Either order gives the
    values of fresh evaluations and the same memo total, one entry per
    state in the union: the two vectors share `shared` states near the
    sink."""
    small = G.ones_flow(g)
    large = tuple(times * x for x in small)
    top = max(G.alpha_coordinates(large))
    alone = []
    for v in (small, large):
        evaluate = KostantEvaluator(g, max(G.alpha_coordinates(v)))
        assert at_netflow(evaluate, g, v) == kostant(g, v)
        alone.append((evaluate.bits, sum(map(len, evaluate.memos))))
    assert tuple(bits for bits, _ in alone) == widths
    totals = set()
    for order in [(small, large), (large, small)]:
        evaluate = KostantEvaluator(g, top)
        for v in order:
            assert at_netflow(evaluate, g, v) == kostant(g, v), v
        assert evaluate.bits == widths[1]
        totals.add(sum(map(len, evaluate.memos)))
    assert totals == {states}
    assert sum(n for _, n in alone) - states == shared


def test_a_vector_above_top_is_rejected():
    """The fields are fixed when the evaluator is built, so a vector with
    an alpha coordinate above its top raises before any state is entered;
    one at the top is evaluated."""
    g = G.caracol_k(6, 2)
    ones = G.ones_flow(g)
    top = max(G.alpha_coordinates(ones))
    evaluate = KostantEvaluator(g, top - 1)
    with pytest.raises(InputError, match=f"alpha coordinate above {top - 1}"):
        at_netflow(evaluate, g, ones)
    assert not any(evaluate.memos)
    assert at_netflow(KostantEvaluator(g, top), g, ones) == kostant(g, ones)


@pytest.mark.parametrize("call", ["kostant", "volume"])
def test_one_shot_evaluation_frees_its_memo(monkeypatch, call):
    """kostant() and the Lidskii term sum free their evaluator, memos and
    all, as they return, with the cyclic garbage collector off: the
    evaluator is dead afterwards and no large block (a hash table) is still
    allocated.  Small blocks are not counted, since the interpreter's tuple
    free lists keep thousands."""
    made = []

    class Recording(KostantEvaluator):
        def __init__(self, graph, top):
            super().__init__(graph, top)
            made.append(weakref.ref(self))

    monkeypatch.setattr(K, "KostantEvaluator", Recording)
    monkeypatch.setattr(L, "KostantEvaluator", Recording)
    if call == "kostant":
        g = G.caracol_k(8, 2)
        # evaluated forward, with 3,005 memo entries (K(v_out) runs on
        # the reversed graph and fills only 134)
        run = lambda: kostant(g, tuple(2 * x for x in G.ones_flow(g)))
    else:
        g = G.caracol_k(7, 3)
        run = lambda: L.term_sum(g, [G.ones_flow(g)])
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        run()
        alive = [ref() is not None for ref in made]  # before gc.enable() can collect
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert alive == [False]
    assert sum(t.size for t in snapshot.traces if t.size >= 1024) < 100_000
