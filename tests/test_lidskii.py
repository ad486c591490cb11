"""The three Lidskii sums and the unit-flow identity."""
from __future__ import annotations

import pytest

from flowpoly import combinat as C
from flowpoly import graphs as G
from flowpoly import lidskii as L
from flowpoly.kostant import KostantEvaluator, integral_flows, kostant
from flowpoly.unified import volume_closed_form
from oracles import volume_unit_flow


def test_volume_examples():
    c61 = G.caracol_k(5, 1)
    assert L.volume(c61, (1, 0, 0, 0, 0, -1)) == 5 == C.rational_catalan(4, 3)
    c62 = G.caracol_k(5, 2)
    assert L.volume(c62, (1, 1, 1, 1, 1, -5)) == 2800
    assert 2800 == C.rational_catalan(3, 5) * 2**4 * 5**2
    ps4 = G.pitman_stanley(4)
    assert L.volume(ps4, (1, 1, 1, -3)) == 3


def test_cry_values():
    values = {3: 1, 4: 2, 5: 10}
    for n, want in values.items():
        g = G.complete_graph(n)
        assert volume_unit_flow(g) == want
        # product of the first n-2 Catalan numbers
        prod = 1
        for i in range(1, n - 1):
            prod *= C.catalan(i)
        assert want == prod


def test_lattice_points_zero_flow():
    for g in [G.caracol_k(4, 2), G.pitman_stanley(3), G.complete_graph(3)]:
        zero = (0,) * g.num_vertices
        assert L.lattice_points_binomial(g, zero) == 1
        assert L.lattice_points_multiset(g, zero) == 1


@pytest.mark.parametrize(
    "g, a",
    [
        (G.pitman_stanley(4), (1, 1, 1, -3)),
        (G.caracol_k(6, 2), (1, 0, 0, 0, 0, 0, -1)),
        (G.caracol_k(4, 1), (2, 1, 0, 1, -4)),
        (G.multicaracol(2, 2), (2, 1, 1, -4)),
        (G.complete_graph(3), (1, 2, 0, -3)),
    ],
)
def test_lattice_point_forms(g, a):
    want = kostant(g, a)
    assert L.lattice_points_binomial(g, a) == want
    assert L.lattice_points_multiset(g, a) == want
    assert sum(1 for _ in integral_flows(g, a)) == want


def test_unit_flow_caracol_family():
    for n in range(2, 8):
        for k in range(1, n):
            g = G.caracol_k(n, k)
            want = (
                C.rational_catalan(n - k, k * (n - k) - 1)
                if k * (n - k) - 1 >= 1
                else 1
            )
            assert volume_unit_flow(g) == want


def test_unit_flow_multicaracol():
    assert volume_unit_flow(G.multicaracol(3, 2)) == C.rational_catalan(3, 5) == 7
    for a in range(1, 5):
        for k in range(1, 4):
            want = C.rational_catalan(a, k * a - 1) if k * a - 1 >= 1 else 1
            assert volume_unit_flow(G.multicaracol(a, k)) == want


def test_t2_row4_entry():
    # Cat(5, 9) = 143 is both the unit volume of the 8-vertex k=2 caracol
    # graph and the top-left entry of row 4 of the 2-parking triangle
    g = G.caracol_k(7, 2)
    assert volume_unit_flow(g) == 143 == C.k_parking_number(2, 4, 0)


def test_volume_homogeneity():
    for g in [G.caracol_k(4, 1), G.caracol_k(5, 2), G.pitman_stanley(4)]:
        d = g.num_edges - g.n
        base = G.ones_flow(g)
        v1 = L.volume(g, base)
        for c in (2, 3):
            scaled = tuple(c * x for x in base)
            assert L.volume(g, scaled) == c**d * v1


def test_volume_rejects_bad_flows():
    g = G.caracol_k(4, 1)
    with pytest.raises(ValueError):
        L.volume(g, (1, 1, -2))
    with pytest.raises(ValueError):
        L.volume(g, (1, -1, 1, 0, -1))
    with pytest.raises(ValueError):
        L.volume(g, (1, 0, 0, 0, 0))


def test_lattice_point_forms_larger_graphs():
    cases = [
        (G.caracol_k(6, 3), G.ones_flow(G.caracol_k(6, 3))),
        (G.caracol_k(7, 2), G.unit_flow(G.caracol_k(7, 2))),
        (G.pitman_stanley(6), (2, 1, 0, 1, 2, -6)),
        (G.complete_graph(5), (1, 2, 0, 1, 0, -4)),
    ]
    for g, a in cases:
        want = kostant(g, a)
        assert L.lattice_points_binomial(g, a) == want
        assert L.lattice_points_multiset(g, a) == want


def test_ones_flow_volume_caracol_8_3():
    g = G.caracol_k(8, 3)
    assert L.volume(g, G.ones_flow(g)) == volume_closed_form(8, 3, 1, 1)


def test_memo_cap_keeps_every_value_exact(monkeypatch):
    """With the memo cap shrunk to a handful of entries, a full Lidskii sum
    takes the uncached path for most states and must still be exact."""
    g = G.caracol_k(6, 2)
    a = tuple(range(1, g.n + 1)) + (-sum(range(1, g.n + 1)),)
    want = L.volume(g, a)
    evaluators, values = [], []

    class TinyMemo(KostantEvaluator):
        memo_cap = 8

        def __init__(self, graph):
            super().__init__(graph)
            evaluators.append(self)

        def __call__(self, v):
            values.append((tuple(v), super().__call__(v)))
            return values[-1][1]

    monkeypatch.setattr(L, "KostantEvaluator", TinyMemo)
    assert L.volume(g, a) == want
    (ev,) = evaluators
    assert len(ev.memo) == 8 and ev.uncached > 0
    # every term of the sum was evaluated, since a has no zero entry
    assert len(values) == sum(1 for _ in C.dominating_compositions(G.shifted_outdegree(g)))
    for v, got in values:
        assert got == kostant(g, v), v
