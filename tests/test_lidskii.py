"""The three Lidskii sums and the unit-flow identity."""
from __future__ import annotations

import math
import random
import time

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
    # the sweep against the term sum, for all three forms
    sweeps = (L.volume(g, a), want, want)
    assert (sweeps,) == L.term_sum(g, [a])


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
    # the last entry checked is the one just before the sink
    with pytest.raises(C.InputError, match="negative entry before the sink"):
        L.volume(G.caracol_k(4, 2), (1, 1, 1, -1, -2))


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


@pytest.mark.parametrize(
    "n, k, states", [(5, 2, 98), (7, 3, 2_903), (8, 3, 15_213)]
)
def test_memo_stores_every_state_once(monkeypatch, n, k, states):
    """The ones-flow term sum shares one evaluator among its terms and its
    forms.  Its per-root memos hold exactly one entry per distinct DFS
    state it entered, as many for all three forms as for the volume alone,
    and it is asked once per term, by its alpha coordinates: no weight
    vanishes at the ones flow."""
    g = G.caracol_k(n, k)
    a = G.ones_flow(g)
    want = {"volume": volume_closed_form(n, k, 1, 1), "binomial": kostant(g, a)}
    want["multiset"] = want["binomial"]
    for forms in [("volume",), L.FORMS]:
        evaluators, calls = [], []

        class Recording(KostantEvaluator):
            def __init__(self, graph, top):
                super().__init__(graph, top)
                evaluators.append(self)  # keeps the memos past the call

            def at(self, coords):
                calls.append(tuple(coords))
                return super().at(coords)

        monkeypatch.setattr(L, "KostantEvaluator", Recording)
        assert L.term_sum(g, [a], forms) == (tuple(want[form] for form in forms),)
        (ev,) = evaluators
        assert sum(map(len, ev.memos)) == states
        assert len(calls) == len(set(calls)) == C.count_dominating(G.shifted_outdegree(g))


def test_sweep_builds_no_evaluator(monkeypatch):
    """The three sweeps compute no Kostant value."""

    def refuse(graph, top):
        raise AssertionError("the sweep built a KostantEvaluator")

    monkeypatch.setattr(L, "KostantEvaluator", refuse)
    g = G.caracol_k(6, 2)
    a = G.ones_flow(g)
    assert L.volume(g, a) == volume_closed_form(6, 2, 1, 1)
    assert L.lattice_points_binomial(g, a) == L.lattice_points_multiset(g, a) == kostant(g, a)


def test_ones_flow_volume_caracol_11_3_within_budget():
    """The sweep on caracol(11,3): the term sum took about 13 s here."""
    g = G.caracol_k(11, 3)
    start = time.perf_counter()
    got = L.volume(g, G.ones_flow(g))
    elapsed = time.perf_counter() - start
    assert got == volume_closed_form(11, 3, 1, 1)
    assert elapsed < 2.0, f"took {elapsed:.2f}s, budget 2s"


def test_term_sum_rejects_unknown_form():
    g = G.pitman_stanley(4)
    with pytest.raises(C.InputError, match="unknown Lidskii form 'area'"):
        L.term_sum(g, [G.ones_flow(g)], ("volume", "area"))


# Graphs whose m-n sits at the edges of a field width (0, 2^b - 1 and 2^b).
# Each source has out-degree one, so at the term s = (m-n, 0, ..., 0) the
# source's send, and the sum of all sends, reach m-n.
EDGE_GRAPHS = {
    0: [(1, 2), (2, 3), (3, 4)],
    3: [(1, 2), (2, 3), (3, 4), (3, 4), (3, 4), (3, 4)],
    4: [(1, 2), (2, 3), (2, 4), (3, 4), (3, 4), (3, 5), (4, 5), (4, 5)],
    7: [(1, 2), (2, 3), (2, 3), (2, 4), (3, 4), (3, 4), (3, 5), (4, 5), (4, 5),
        (4, 5), (4, 5)],
    8: [(1, 2), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6),
        (5, 6), (5, 6), (5, 6), (5, 6)],
}


def _flows(g, seed):
    """Zero, unit, ones and two seeded net flows on g."""
    rng = random.Random(seed)
    flows = [(0,) * g.num_vertices, G.unit_flow(g), G.ones_flow(g)]
    for _ in range(2):
        head = [rng.randint(0, 3) for _ in range(g.n)]
        flows.append(tuple(head) + (-sum(head),))
    return flows


def _check_sweep(g, flows):
    """At each net flow in `flows`, the three sweeps equal the term sum,
    which takes all the flows in one pass, and both lattice forms K(a)."""
    sweeps = tuple(
        (L.volume(g, a), L.lattice_points_binomial(g, a), L.lattice_points_multiset(g, a))
        for a in flows
    )
    assert sweeps == L.term_sum(g, flows)
    for a, (_, binomial, multiset) in zip(flows, sweeps):
        assert binomial == multiset == kostant(g, a), a


@pytest.mark.parametrize("m_n", sorted(EDGE_GRAPHS))
def test_sweep_at_field_width_edges(m_n):
    g = G.from_edge_list(max(j for _, j in EDGE_GRAPHS[m_n]), EDGE_GRAPHS[m_n])
    assert sum(G.shifted_outdegree(g)) == m_n
    _check_sweep(g, _flows(g, m_n))


@pytest.mark.parametrize(
    "g",
    [
        G.multicaracol(3, 3),
        # a triple edge into a vertex that also has a simple in-edge, and a
        # quadruple edge as the last root of its head
        G.from_edge_list(5, [(1, 2), (1, 3), (1, 3), (1, 3), (2, 3), (2, 4),
                             (2, 4), (2, 4), (2, 4), (3, 4), (3, 5), (4, 5), (4, 5)]),
    ],
)
def test_sweep_with_roots_of_multiplicity_three_or_more(g):
    assert max(mult for _, mult in g.distinct_edges()) >= 3
    _check_sweep(g, _flows(g, g.num_edges))


def test_ones_flow_volume_caracol_16_4():
    g = G.caracol_k(16, 4)
    assert L.volume(g, G.ones_flow(g)) == volume_closed_form(16, 4, 1, 1)


def test_unit_flow_volume_complete_10_is_the_cry_product():
    """The Chan-Robbins-Yuen product Cat(1) Cat(2) ... Cat(8) for K_11."""
    g = G.complete_graph(10)
    assert L.volume(g, G.unit_flow(g)) == math.prod(C.catalan(i) for i in range(1, 9))
