"""Gravity diagrams and the three bijections onto rational Dyck paths."""
from __future__ import annotations

import pytest

from flowpoly import combinat as C
from flowpoly import gravity as GR
from flowpoly import graphs as G
from flowpoly import paths as P
from flowpoly.kostant import kostant
from oracles import psi_out_subpartition

FAMILIES = [(5, 1), (5, 2), (6, 2), (7, 3)]


def test_counts_match_kostant_and_catalan():
    for n in range(2, 8):
        for k in range(1, n):
            g = G.caracol_k(n, k)
            want = kostant(g, G.v_out(g))
            assert want == kostant(g, G.v_in(g))
            assert sum(1 for _ in GR.enumerate_in_gravity(n, k)) == want
            assert sum(1 for _ in GR.enumerate_out_gravity(n, k)) == want
            assert GR.count_gravity(n, k) == want


def test_figure_counts():
    assert sum(1 for _ in GR.enumerate_in_gravity(5, 1)) == 5
    assert sum(1 for _ in GR.enumerate_out_gravity(5, 1)) == 5
    assert sum(1 for _ in GR.enumerate_in_gravity(5, 2)) == 7
    assert sum(1 for _ in GR.enumerate_out_gravity(5, 2)) == 7
    # one-column family: a = 1 leaves the empty diagram only
    for k in range(2, 6):
        assert sum(1 for _ in GR.enumerate_in_gravity(k + 1, k)) == 1


def test_out_car62_segment_sets():
    got = {
        frozenset((l, r) for _, l, r in d.segments)
        for d in GR.enumerate_out_gravity(5, 2)
    }
    want = {
        frozenset(),
        frozenset({(1, 2)}),
        frozenset({(2, 3)}),
        frozenset({(1, 3)}),
        frozenset({(1, 2), (2, 3)}),
        frozenset({(1, 2), (1, 3)}),
    }
    # the seventh diagram repeats (1,2) in two rows, so compare multisets
    multisets = {
        tuple(sorted((l, r) for _, l, r in d.segments))
        for d in GR.enumerate_out_gravity(5, 2)
    }
    assert ((1, 2), (1, 2)) in multisets
    assert got == want | {frozenset({(1, 2)})}
    assert len(multisets) == 7


@pytest.mark.parametrize("n,k", FAMILIES)
def test_psi_round_trips(n, k):
    for d in GR.enumerate_in_gravity(n, k):
        assert GR.psi_in_inverse(GR.psi_in(d), n, k) == d
    for d in GR.enumerate_out_gravity(n, k):
        assert GR.psi_out_inverse(GR.psi_out(d), n, k) == d


@pytest.mark.parametrize("n,k", FAMILIES)
def test_psi_images_are_rational_dyck_paths(n, k):
    a, b = n - k, k * (n - k) - 1
    universe = set(C.dominating_compositions(P.rational_shape(a, b)))
    assert {GR.psi_in(d).shape for d in GR.enumerate_in_gravity(n, k)} == universe
    assert {GR.psi_out(d).shape for d in GR.enumerate_out_gravity(n, k)} == universe


@pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (7, 3)])
def test_line_properties(n, k):
    """Embedded endpoint bounds: lp on a multiple of k-1, rp at most ik-1."""
    for d in GR.enumerate_out_gravity(n, k):
        for i, (l, r) in enumerate(GR.out_segments_by_row(d), start=1):
            assert 1 <= l <= k <= r <= k + i - 1
            lp = (r - k) * (k - 1)
            rp = lp + (r - l)
            assert lp % (k - 1) == 0 and lp <= (i - 1) * (k - 1)
            assert rp <= i * k - 1
        rps = [
            (r - k) * (k - 1) + (r - l) for l, r in GR.out_segments_by_row(d)
        ]
        assert rps == sorted(rps)


def test_empty_diagram_maps_to_top_path():
    # no segments means nothing northwest of the path: N^a E^b
    for n, k in FAMILIES:
        a, b = n - k, k * (n - k) - 1
        top = (a,) + (0,) * (b - 1)
        assert GR.psi_in(GR.GravityDiagram("in", n, k, ())).shape == top
        assert GR.psi_out(GR.GravityDiagram("out", n, k, ())).shape == top


def test_pair_of_dycks_example():
    segs = ((2, 2, 3), (3, 2, 4), (4, 1, 4), (5, 3, 7), (6, 3, 7), (7, 1, 7))
    d = GR.GravityDiagram("out", 11, 3, segs)
    assert psi_out_subpartition(d) == (14, 12, 12, 5, 4, 1)
    path = GR.psi_out(d)
    din = GR.psi_in_inverse(path, 11, 3)
    # figure pair: the in-degree diagram with column stacks 7,6,6,6,5,4x7,2,2
    lefts = [l for _, l, _ in din.segments]
    assert lefts == [5, 6, 6, 6, 7] + [8] * 7 + [10, 10]
    assert GR.psi_in(din).shape == path.shape


@pytest.mark.parametrize("n,k", FAMILIES)
def test_in_out_correspondence(n, k):
    pairs = GR.in_out_correspondence(n, k)
    assert len(pairs) == GR.count_gravity(n, k)
    outs = {d for d, _ in pairs}
    ins = {d for _, d in pairs}
    assert len(outs) == len(ins) == len(pairs)
    for dout, din in pairs:
        assert GR.psi_out(dout).shape == GR.psi_in(din).shape


def test_k1_correspondence_is_conjugation():
    for n in range(4, 9):
        for dout, din in GR.in_out_correspondence(n, 1):
            lam = sorted((r - l for _, l, r in dout.segments), reverse=True)
            lam_in = sorted((n - l for _, l, _ in din.segments), reverse=True)
            width = lam[0] if lam else 0
            conj = [sum(1 for x in lam if x >= j) for j in range(1, width + 1)]
            assert conj == lam_in


def test_car81_instance():
    # out-degree segment lengths (3,2,2,1) pair with in-degree lengths (4,3,1)
    n = 7
    target = [3, 2, 2, 1]
    for dout, din in GR.in_out_correspondence(n, 1):
        lam = sorted((r - l for _, l, r in dout.segments), reverse=True)
        if lam == target:
            lam_in = sorted((n - l for _, l, _ in din.segments), reverse=True)
            assert lam_in == [4, 3, 1]
            break
    else:
        pytest.fail("segment lengths (3,2,2,1) not found")


@pytest.mark.parametrize("a,k", [(3, 2), (4, 2), (5, 3), (4, 1)])
def test_xi_bijection(a, k):
    mcar = set(GR.enumerate_out_gravity_mcar(a, k))
    assert len(mcar) == GR.count_gravity(a + k, k)
    images = set()
    for d in GR.enumerate_out_gravity(a + k, k):
        m = GR.xi(d)
        assert GR.xi_inverse(m) == d
        images.add(m)
        # projection keeps the tail configuration: right ends shift by k
        assert sorted(c for _, _, c in m.segments) == sorted(
            r - k for l, r in GR.out_segments_by_row(d)
        )
    assert images == mcar


def test_mcar_count_example():
    assert sum(1 for _ in GR.enumerate_out_gravity_mcar(3, 2)) == 7


def test_json_round_trip():
    for d in GR.enumerate_in_gravity(5, 2):
        assert GR.GravityDiagram.from_json(d.to_json()) == d
    for d in GR.enumerate_out_gravity(5, 2):
        assert GR.GravityDiagram.from_json(d.to_json()) == d
    for d in GR.enumerate_out_gravity_mcar(3, 2):
        assert GR.GravityDiagram.from_json(d.to_json()) == d


def test_render_text_golden():
    d = GR.GravityDiagram("out", 5, 2, ((1, 1, 2), (2, 2, 3)))
    assert GR.render_text(d) == "\n".join(
        [
            "a1  a2  a3",
            "o   *---*",
            "*---*",
        ]
    )
    empty = GR.GravityDiagram("in", 5, 2, ())
    assert GR.render_text(empty) == "\n".join(
        [
            "a3  a4  a5",
            "o   o   o",
            "    o   o",
            "    o   o",
            "        o",
            "        o",
        ]
    )


def test_malformed_diagram_errors():
    d_in = GR.GravityDiagram("in", 5, 2, ())
    with pytest.raises(GR.MalformedDiagram):
        GR.psi_out(d_in)
    d_out = GR.GravityDiagram("out", 5, 2, ())
    with pytest.raises(GR.MalformedDiagram):
        GR.psi_in(d_out)
    bad_path = P.TDyckPath((3,) + (0,) * 4, P.rational_shape(3, 5))
    with pytest.raises(GR.MalformedDiagram):
        GR.psi_in_inverse(bad_path, 7, 2)  # wrong family size
    with pytest.raises(GR.MalformedDiagram):
        GR.xi(d_in)
    with pytest.raises(GR.MalformedDiagram):
        GR.xi_inverse(d_out)


def test_enumeration_order_is_stable():
    first = [d.segments for d in GR.enumerate_out_gravity(5, 2)]
    assert first == [
        (),
        ((2, 1, 2),),
        ((2, 2, 3),),
        ((2, 1, 3),),
        ((1, 1, 2), (2, 1, 2)),
        ((1, 1, 2), (2, 2, 3)),
        ((1, 1, 2), (2, 1, 3)),
    ]
    assert first == [d.segments for d in GR.enumerate_out_gravity(5, 2)]


def test_xi_figure_instance():
    """The 11-vertex k=3 out-degree diagram of the paired-figures example
    projects to the displayed 3-coloured multicaracol diagram."""
    segs = ((2, 2, 3), (3, 2, 4), (4, 1, 4), (5, 3, 7), (6, 3, 7), (7, 1, 7))
    d = GR.GravityDiagram("out", 11, 3, segs)
    m = GR.xi(d)
    assert m.n == 8 and m.k == 3
    rows = [(c, col) for (_, _, c), col in zip(m.segments, m.colors)]
    assert rows == [(4, 1), (4, 3), (4, 3), (1, 1), (1, 2), (0, 2), (0, 3)]
