"""Kostant partition function against direct flow enumeration."""
from __future__ import annotations

import gc
import tracemalloc

import pytest

from flowpoly import graphs as G
from flowpoly import kostant as K
from flowpoly import lidskii as L
from flowpoly.kostant import (
    KostantEvaluator,
    SumNonzero,
    integral_flows,
    kostant,
    vector_partitions,
)
from oracles import restrict


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
        assert list(vector_partitions(g, zero)) == [()]


def test_figure_counts():
    c61 = G.caracol_k(5, 1)
    c62 = G.caracol_k(5, 2)
    assert kostant(c61, G.v_out(c61)) == 5
    assert kostant(c62, G.v_out(c62)) == 7
    assert kostant(c61, G.v_in(c61)) == 5
    assert kostant(c62, G.v_in(c62)) == 7
    assert sum(1 for _ in vector_partitions(c62, G.v_out(c62))) == 7
    assert sum(1 for _ in vector_partitions(c61, G.v_in(c61))) == 5


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


def test_flows_are_distinct_and_conserve():
    g = G.multicaracol(2, 2)
    a = G.ones_flow(g)
    seen = set()
    for flow in integral_flows(g, a):
        assert flow not in seen
        seen.add(flow)
        for v in range(1, g.n + 1):
            out = sum(f for f, (i, _) in zip(flow, g.edges) if i == v)
            into = sum(f for f, (_, j) in zip(flow, g.edges) if j == v)
            assert out - into == a[v - 1]


def test_parallel_edges_weighting():
    # two parallel edges: a_1 + 1 flows
    g = G.from_edge_list(2, [(1, 2), (1, 2)])
    for a1 in range(5):
        assert kostant(g, (a1, -a1)) == a1 + 1
        # vector partitions do not distinguish the parallel copies
        assert sum(1 for _ in vector_partitions(g, (a1, -a1))) == 1


def test_unit_volume_two_vectors_agree():
    for n in range(2, 7):
        for k in range(1, n):
            g = G.caracol_k(n, k)
            assert kostant(g, G.v_out(g)) == kostant(g, G.v_in(g))


def test_representation_independence():
    edges = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 4), (2, 4)]
    g1 = G.from_edge_list(4, edges)
    g2 = G.from_edge_list(4, list(reversed(edges)))
    assert g1 == g2
    for a in [(1, 0, 0, -1), (1, 1, 1, -3), (2, 0, 1, -3)]:
        assert kostant(g1, a) == kostant(g2, a)


def test_sum_nonzero():
    g = G.caracol_k(4, 1)
    with pytest.raises(SumNonzero):
        kostant(g, (1, 0, 0, 0, 0))
    with pytest.raises(SumNonzero):
        list(integral_flows(g, (1, 0, 0, 0, 0)))
    with pytest.raises(SumNonzero):
        list(vector_partitions(g, (1, 0, 0, 0, 0)))


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


def test_one_shot_evaluation_runs_from_the_lighter_end(monkeypatch):
    """K(v_out) starts at the source with its whole outflow to split and
    ends in a zero at the sink, so kostant() evaluates it on the reversed
    graph: 523 memo entries on caracol(10,2), against 45,217 forward."""
    from flowpoly.combinat import rational_catalan

    made = []

    class Recording(KostantEvaluator):
        def __init__(self, graph):
            super().__init__(graph)
            made.append((graph, self))  # keeps the memo past the call

    monkeypatch.setattr(K, "KostantEvaluator", Recording)
    g = G.caracol_k(10, 2)
    assert kostant(g, G.v_out(g)) == rational_catalan(8, 15)
    [(graph, evaluator)] = made
    assert graph == G.reverse(g)
    assert len(evaluator.memo) <= 1000


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


@pytest.mark.parametrize("call", ["kostant", "volume"])
def test_one_shot_evaluation_frees_its_memo(monkeypatch, call):
    """kostant() and lidskii.volume free their memo as they return, with the
    cyclic garbage collector off: the memo is empty afterwards and no large
    block (its hash table) is still allocated.  Small blocks are not
    counted, since the interpreter's tuple free lists keep thousands."""
    memos = []

    class Recording(KostantEvaluator):
        def __init__(self, graph):
            super().__init__(graph)
            memos.append(self.memo)

    monkeypatch.setattr(K, "KostantEvaluator", Recording)
    monkeypatch.setattr(L, "KostantEvaluator", Recording)
    if call == "kostant":
        g = G.caracol_k(8, 2)
        # evaluated forward, with 3,541 memo entries (K(v_out) runs on
        # the reversed graph and fills only 190)
        run = lambda: kostant(g, tuple(2 * x for x in G.ones_flow(g)))
    else:
        g = G.caracol_k(7, 3)
        run = lambda: L.volume(g, G.ones_flow(g))
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        run()
        held = [len(memo) for memo in memos]  # before gc.enable() can collect
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held == [0]
    assert sum(t.size for t in snapshot.traces if t.size >= 1024) < 100_000
