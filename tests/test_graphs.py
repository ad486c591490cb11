"""Graph constructors, degree vectors, and net-flow vectors."""
from __future__ import annotations

from itertools import combinations

import pytest

from flowpoly import InputError
from flowpoly import graphs as G
from oracles import restrict


def from_alpha_coordinates(coords):
    """Inverse of G.alpha_coordinates."""
    v = []
    prev = 0
    for c in coords:
        v.append(c - prev)
        prev = c
    v.append(-prev)
    return tuple(v)


def test_caracol_edge_counts():
    assert G.caracol_k(5, 1).num_edges == 2 * 4 + 3
    assert G.caracol_k(7, 3).num_edges == 4 * 4 + 5
    for n in range(2, 10):
        for k in range(1, n):
            g = G.caracol_k(n, k)
            assert g.num_edges == (k + 1) * (n - k) + n - 2
            assert len(set(g.edges)) == g.num_edges  # simple graph


def test_caracol_k_equals_ps_plus_edge():
    for n in range(2, 10):
        g = G.caracol_k(n, n - 1)
        ps = G.pitman_stanley(n)
        assert set(g.edges) == set(ps.edges) | {(n, n + 1)}


def test_caracol_1_is_classical_caracol():
    for n in range(2, 10):
        g = G.caracol_k(n, 1)
        expect = {(1, j) for j in range(2, n + 1)}
        expect |= {(i, i + 1) for i in range(2, n + 1)}
        expect |= {(i, n + 1) for i in range(2, n)}
        assert set(g.edges) == expect


def test_pitman_stanley_no_repeat():
    ps = G.pitman_stanley(4)
    assert ps.edges.count((3, 4)) == 1
    assert ps.num_edges == 5


def test_multicaracol():
    mc = G.multicaracol(3, 2)
    assert mc.num_edges == 4 * 3 - 1
    assert G.shifted_outdegree(mc) == (3 * 2 - 1, 1, 1, 0)
    assert G.shifted_indegree(mc) == (2 - 1, 2, 2, 3 - 1)
    assert mc.edges.count((1, 2)) == 2  # parallel source edges
    for a in range(1, 6):
        for k in range(1, 4):
            mc = G.multicaracol(a, k)
            assert mc.num_edges == (k + 2) * a - 1
            t, u = G.shifted_outdegree(mc), G.shifted_indegree(mc)
            assert t == (a * k - 1,) + (1,) * (a - 1) + (0,)
            assert u == (k - 1,) + (k,) * (a - 1) + (a - 1,)


@pytest.mark.parametrize("k", range(1, 6))
def test_multicaracol_with_one_column(k):
    """mcar(1, k) is PS_2 = (1, 2) shifted up to (2, 3), below k source edges."""
    assert G.multicaracol(1, k).edges == ((1, 2),) * k + ((2, 3),)


def test_valid_graphs_are_connected():
    """Conditions (a)-(c) imply connectivity, so _validate runs no search:
    every valid simple graph on at most 5 vertices is connected."""
    valid = 0
    for num_vertices in range(2, 6):
        pairs = list(combinations(range(1, num_vertices + 1), 2))
        for size in range(len(pairs) + 1):
            for edges in combinations(pairs, size):
                try:
                    G.from_edge_list(num_vertices, edges)
                except InputError:
                    continue
                valid += 1
                seen, stack = {1}, [1]
                while stack:
                    v = stack.pop()
                    for w in {j for i, j in edges if i == v} | {i for i, j in edges if j == v}:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                assert len(seen) == num_vertices, edges
    assert valid == 135


def test_complete_graph():
    k4 = G.complete_graph(3)
    assert k4.num_edges == 6
    assert k4.num_vertices == 4


def test_from_edge_list_validation():
    with pytest.raises(InputError, match="condition \\(c\\)"):
        G.from_edge_list(3, [(1, 2), (3, 2)])
    with pytest.raises(InputError, match="condition \\(a\\)"):
        G.from_edge_list(4, [(1, 4), (3, 4)])
    with pytest.raises(InputError, match="condition \\(b\\)"):
        G.from_edge_list(4, [(1, 2), (3, 4), (2, 4), (3, 4)])
    # conditions (a)-(c) force connectivity: the least vertex of any other
    # component would need an in-edge from something smaller


def test_validation_reports_one_violation_in_a_fixed_order():
    """With several conditions broken at once, (c) wins at the first bad
    edge in sorted order, then (a) at the lowest vertex without an
    out-edge, then (b) at the lowest vertex without an in-edge."""
    # (a) at 2 and 3, (b) at 3 and 4, (c) at (4, 2) and (5, 1)
    with pytest.raises(InputError, match=r"^edge \(4,2\) violates condition \(c\)"):
        G.from_edge_list(5, [(5, 1), (1, 2), (4, 2), (1, 5)])
    # (a) at 2 and 3, (b) at 3 and 4
    with pytest.raises(InputError, match=r"^vertex 2 violates condition \(a\): out-degree 0$"):
        G.from_edge_list(5, [(1, 2), (1, 5), (4, 5)])
    # a loop breaks (c) too
    with pytest.raises(InputError, match=r"^edge \(2,2\) violates condition \(c\)"):
        G.from_edge_list(3, [(1, 2), (2, 2), (2, 3)])
    # (a) at the source wins over the (b) it forces at vertex 2
    with pytest.raises(InputError, match=r"^vertex 1 violates condition \(a\): out-degree 0$"):
        G.from_edge_list(3, [(2, 3)])
    # (b) at 3 and 4 only
    with pytest.raises(InputError, match=r"^vertex 3 violates condition \(b\): in-degree 0$"):
        G.from_edge_list(5, [(1, 2), (2, 5), (3, 5), (4, 5)])


def test_bad_parameters():
    with pytest.raises(InputError, match="needs n > k >= 1"):
        G.caracol_k(3, 3)
    with pytest.raises(InputError, match="needs n > k >= 1"):
        G.caracol_k(4, 0)
    with pytest.raises(InputError, match="needs a, k >= 1"):
        G.multicaracol(0, 2)


def test_degree_vectors_caracol():
    for n in range(2, 10):
        for k in range(1, n):
            g = G.caracol_k(n, k)
            t = G.shifted_outdegree(g)
            u = G.shifted_indegree(g)
            assert t == (n - k,) * (k - 1) + (n - k - 1,) + (1,) * (n - k - 1) + (0,)
            assert u == (0,) * (k - 1) + (k - 1,) + (k,) * (n - k - 1) + (n - k - 1,)
            m = g.num_edges
            assert sum(t) == sum(u) == m - n


def test_degree_sums_all_constructors():
    zoo = [G.pitman_stanley(n) for n in range(2, 10)]
    zoo += [G.complete_graph(n) for n in range(1, 7)]
    zoo += [G.multicaracol(a, k) for a in range(1, 5) for k in range(1, 4)]
    for g in zoo:
        assert sum(G.shifted_outdegree(g)) == sum(G.shifted_indegree(g)) == g.num_edges - g.n


def test_v_out_v_in():
    for n in range(2, 9):
        for k in range(1, n):
            g = G.caracol_k(n, k)
            vo, vi = G.v_out(g), G.v_in(g)
            assert sum(vo) == sum(vi) == 0
            co = G.alpha_coordinates(vo)
            ci = G.alpha_coordinates(vi)
            for j in range(1, k):
                assert co[j - 1] == (k + 1 - j) * (n - k) - 2
            for j in range(k, n - 1):
                assert co[j - 1] == n - j - 1
            for j in range(k + 1, n + 1):
                assert ci[j - 1] == (j - k) * k - 1
            assert from_alpha_coordinates(co) == vo
            assert from_alpha_coordinates(ci) == vi


def test_v_in_multicaracol():
    for a in range(1, 6):
        for k in range(1, 4):
            mc = G.multicaracol(a, k)
            ci = G.alpha_coordinates(G.v_in(mc))
            # the source is internally vertex 1, so the 0-based labels shift by one
            assert ci == (0,) + tuple(j * k - 1 for j in range(1, a + 1))


def test_restrict():
    g = G.caracol_k(6, 2)
    sub = restrict(g, 3, 7)
    ps = G.pitman_stanley(5)
    assert set(sub.edges) == set(ps.edges)
    # restriction keeps only the tail roots alpha_j and alpha_j + ... + alpha_n
    full = restrict(g, 1, 7)
    assert full.edges == g.edges
    g73 = G.caracol_k(7, 3)
    sub73 = restrict(g73, 4, 8)
    spans = {(i, j - 1) for i, j in sub73.edges}
    n_loc = sub73.n
    assert spans == {(j, j) for j in range(1, n_loc + 1)} | {
        (j, n_loc) for j in range(1, n_loc)
    }


def test_alpha_round_trip():
    vecs = [(1, 0, 0, -1), (2, -1, 3, -4), (0, 0, 0, 0)]
    for v in vecs:
        assert from_alpha_coordinates(G.alpha_coordinates(v)) == v
