"""Gravity diagrams and the three bijections onto rational Dyck paths."""
from __future__ import annotations

import hashlib
import re
import tracemalloc
from itertools import combinations_with_replacement, product

import pytest

from flowpoly import combinat as C
from flowpoly import gravity as GR
from flowpoly import graphs as G
from flowpoly import paths as P
from flowpoly.kostant import kostant
from oracles import (
    monotone_sequences, out_segments_by_row, psi_out_inverse_by_embedding, psi_out_subpartition,
    record_from_json, weak_compositions,
)

FAMILIES = [(5, 1), (5, 2), (6, 2), (7, 3)]


def correspondence(n, k):
    """in_out_correspondence over the whole (n, k) caracol families, each
    diagram given with its psi path."""
    return GR.in_out_correspondence(
        [(d, GR.psi_in(d)) for d in GR.enumerate_in_gravity(n, k)],
        [(d, GR.psi_out(d)) for d in GR.enumerate_out_gravity(n, k)],
    )


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
        for i, (l, r) in enumerate(out_segments_by_row(d), start=1):
            assert 1 <= l <= k <= r <= k + i - 1
            lp = (r - k) * (k - 1)
            rp = lp + (r - l)
            assert lp % (k - 1) == 0 and lp <= (i - 1) * (k - 1)
            assert rp <= i * k - 1
        rps = [
            (r - k) * (k - 1) + (r - l) for l, r in out_segments_by_row(d)
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
    pairs, unmatched = correspondence(n, k)
    assert unmatched == []
    assert len(pairs) == GR.count_gravity(n, k)
    outs = {d for d, _ in pairs}
    ins = {d for _, d in pairs}
    assert len(outs) == len(ins) == len(pairs)
    for dout, din in pairs:
        assert GR.psi_out(dout).shape == GR.psi_in(din).shape


def test_k1_correspondence_is_conjugation():
    for n in range(4, 9):
        pairs, unmatched = correspondence(n, 1)
        assert unmatched == []
        for dout, din in pairs:
            lam = sorted((r - l for _, l, r in dout.segments), reverse=True)
            lam_in = sorted((n - l for _, l, _ in din.segments), reverse=True)
            width = lam[0] if lam else 0
            conj = [sum(1 for x in lam if x >= j) for j in range(1, width + 1)]
            assert conj == lam_in


def test_car81_instance():
    # out-degree segment lengths (3,2,2,1) pair with in-degree lengths (4,3,1)
    n = 7
    target = [3, 2, 2, 1]
    pairs, unmatched = correspondence(n, 1)
    assert unmatched == []
    for dout, din in pairs:
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
            r - k for l, r in out_segments_by_row(d)
        )
    assert images == mcar


def test_mcar_count_example():
    assert sum(1 for _ in GR.enumerate_out_gravity_mcar(3, 2)) == 7


def test_json_round_trip():
    for d in GR.enumerate_in_gravity(5, 2):
        assert record_from_json(GR.GravityDiagram, d.to_json()) == d
    for d in GR.enumerate_out_gravity(5, 2):
        assert record_from_json(GR.GravityDiagram, d.to_json()) == d
    for d in GR.enumerate_out_gravity_mcar(3, 2):
        assert record_from_json(GR.GravityDiagram, d.to_json()) == d


def test_render_text_golden():
    """Two pictures of the text route: an out-degree diagram with its two
    rows nontrivial, and the in-degree diagram with no segments, the
    first of its listing."""
    outs = [d.segments for d in GR.enumerate_out_gravity(5, 2)]
    picture = dict(zip(outs, GR.text_lines("out", 5, 2)))
    assert picture[((1, 1, 2), (2, 2, 3))] == "\n".join(
        [
            "a1  a2  a3",
            "o   *---*",
            "*---*",
        ]
    )
    assert next(GR.text_lines("in", 5, 2)) == "\n".join(
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
    d_out = GR.GravityDiagram("out", 5, 2, ())
    # a built diagram was checked then, so each map checks its kind alone
    with pytest.raises(C.InputError, match=r"expected a diagram of kind 'out', got 'in'"):
        GR.psi_out(d_in)
    with pytest.raises(C.InputError, match=r"expected a diagram of kind 'in', got 'out'"):
        GR.psi_in(d_out)
    bad_path = P.TDyckPath((3,) + (0,) * 4, P.rational_shape(3, 5))
    with pytest.raises(C.InputError, match=r"not an \(5,9\)-Dyck path"):
        GR.psi_in_inverse(bad_path, 7, 2)  # wrong family size
    with pytest.raises(C.InputError, match=r"expected a diagram of kind 'out', got 'in'"):
        GR.xi(d_in)
    with pytest.raises(C.InputError, match=r"expected a diagram of kind 'mcar-out', got 'out'"):
        GR.xi_inverse(d_out)
    # (4, 2) has a (2, 3)-Dyck grid: three columns, so four segments overflow it
    with pytest.raises(C.InputError, match=r"code \[4\] is no caracol code at n=4, k=2"):
        GR.GravityDiagram("in", 4, 2, tuple((row, 3, 4) for row in range(1, 5)))
    # longer segments sit in higher rows, so row 1 holds the longest
    with pytest.raises(C.InputError, match=r"not the canonical in diagram of its code \[1, 2\]"):
        GR.GravityDiagram("in", 5, 2, ((1, 4, 5), (2, 3, 5)))
    # row 1's code 1 above row 2's trivial code 0
    with pytest.raises(C.InputError, match=r"code \[1, 0\] is no caracol code at n=5, k=2"):
        GR.GravityDiagram("out", 5, 2, ((1, 1, 2),))
    with pytest.raises(C.InputError, match=r"not an \(5,9\)-Dyck path"):
        GR.psi_out_inverse(bad_path, 7, 2)
    # (4, 2) has a (2, 3)-Dyck grid; each shape is its own reference here
    with pytest.raises(C.InputError, match=r"path is not an \(2,3\)-Dyck path"):
        GR.psi_out_inverse(P.TDyckPath((0, 1, 1), (0, 1, 1)), 4, 2)
    with pytest.raises(C.InputError, match=r"path is not an \(2,3\)-Dyck path"):
        GR.psi_out_inverse(P.TDyckPath((1, 0, 1), (1, 0, 1)), 4, 2)


# d is a diagram's fields, built inside the rejection check, or a path
@pytest.mark.parametrize("psi, d, message", [
    # r = 9 is past the (2, 3) grid, whose row 1 holds codes 0..1 only
    (GR.psi_out, ("out", 4, 2, ((1, 1, 9),)),
     r"code \[15\] is no caracol code at n=4, k=2"),
    (GR.psi_out, ("out", 5, 2, ((3, 1, 2),)),
     r"not the canonical out diagram of its code \[0, 0\]"),
    (GR.xi, ("out", 5, 2, ((0, 1, 2),)),
     r"not the canonical out diagram of its code \[0, 0\]"),
    (GR.psi_in, ("in", 5, 2, ((1, 3, 4),)),
     r"not the canonical in diagram of its code \[1, 1\]"),
    # a segment from column k or n would sit at height 0 or a
    (GR.psi_in, ("in", 5, 2, ((1, 2, 5),)),
     r"not the canonical in diagram of its code \[1, 1\]"),
    (GR.psi_in, ("in", 5, 2, ((1, 5, 5),)),
     r"not the canonical in diagram of its code \[0, 0\]"),
    # a lone segment sits in row 1
    (GR.psi_in, ("in", 5, 2, ((7, 3, 5),)),
     r"not the canonical in diagram of its code \[1, 1\]"),
    # the canonical drawing lists its rows top down
    (GR.psi_in, ("in", 5, 2, ((2, 4, 5), (1, 3, 5))),
     r"not the canonical in diagram of its code \[1, 2\]"),
    (GR.psi_out, ("out", 5, 2, ((2, 1, 2), (2, 2, 3))),
     r"not the canonical out diagram of its code \[0, 2\]"),
    # the canonical drawing lists its nontrivial rows bottom up, and no trivial one
    (GR.psi_out, ("out", 5, 2, ((2, 1, 3), (1, 1, 2))),
     r"not the canonical out diagram of its code \[1, 3\]"),
    (GR.psi_out, ("out", 5, 2, ((1, 2, 2),)),
     r"not the canonical out diagram of its code \[0, 0\]"),
    (GR.xi_inverse, ("mcar-out", 3, 2, ((1, 0, 1), (2, 0, 0)), (1,)),
     r"code \[3\] is no caracol code at n=5, k=2"),
    (GR.xi_inverse, ("mcar-out", 3, 2, ((1, 0, 1), (2, 0, 0)), (3, 1)),
     r"not the canonical mcar-out diagram of its code \[1, 1\]"),
    # row 1 of a = 3 reaches column 1 only
    (GR.xi_inverse, ("mcar-out", 3, 2, ((1, 0, 2), (2, 0, 0)), (1, 1)),
     r"code \[1, 5\] is no caracol code at n=5, k=2"),
    (GR.xi_inverse, ("mcar-out", 3, 2, ((2, 0, 0), (1, 0, 1)), (1, 1)),
     r"code \[3, 1\] is no caracol code at n=5, k=2"),
    # lengths must descend down the rows
    (GR.xi_inverse, ("mcar-out", 3, 2, ((1, 0, 0), (2, 0, 0)), (2, 1)),
     r"code \[1, 0\] is no caracol code at n=5, k=2"),
    # the check takes ints only: True and 1.0 equal 1, so the writer alone would give them back
    (GR.psi_in, ("in", 5, 2, (3,)), r"int triples, colours ints, got \(3,\)"),
    (GR.psi_out, ("out", 5, 2, ((1, "1", 3),)), "int triples, colours ints"),
    (GR.psi_out, ("out", 5, 2, ((2, True, 3),)), "int triples, colours ints"),
    (GR.psi_out, ("out", 5, 2, ((2, 1.0, 3),)), "int triples, colours ints"),
    (GR.xi_inverse, ("mcar-out", 3, 2, ((1, 0, 0), (2, 0, 0)), ("1", 1)),
     r"int triples, colours ints, got .*, \('1', 1\)"),
    # the constructor rejects these paths; one built unchecked still meets the map's reader
    (lambda p: GR.psi_in_inverse(p, 3, 1), P.TDyckPath.unchecked(("1",), ("1",)), r"path is not an \(2,1\)-Dyck path"),
    (lambda p: GR.psi_out_inverse(p, 3, 1), P.TDyckPath.unchecked((True,), (1,)), r"path is not an \(2,1\)-Dyck path"),
    # the path readers check (n, k) before they read the path
    (lambda p: GR.psi_in_inverse(p, 2, 0), P.TDyckPath((1,), (1,)), "needs n > k >= 1, got n=2, k=0"),
    (lambda p: GR.psi_out_inverse(p, 3, 3), P.TDyckPath((1,), (1,)), "needs n > k >= 1, got n=3, k=3"),
    # a scalar field that is no int is read by the family check, before any code
    (GR.psi_in, ("in", "5", 2, ()), "needs n > k >= 1, got n='5', k=2"),
    (GR.psi_in, ("in", 5.0, 2, ()), "needs n > k >= 1, got n=5.0, k=2"),
    (GR.psi_out, ("out", 5, "2", ()), "needs n > k >= 1, got n=5, k='2'"),
    (GR.xi, ("out", 5, 2.0, ()), "needs n > k >= 1, got n=5, k=2.0"),
    (GR.xi_inverse, ("mcar-out", True, 2, (), ()), "needs a, k >= 1, got a=True, k=2"),
    # a tuple field that is no iterable, or a kind that is not hashable
    (GR.psi_in, ("in", 5, 2, 5), r"segments and colours are tuples, .*, got 5, None"),
    (GR.psi_out, ("out", 5, 2, None), r"segments and colours are tuples, .*, got None, None"),
    (GR.xi_inverse, ("mcar-out", 3, 2, ((1, 0, 0), (2, 0, 0)), 5),
     r"segments and colours are tuples, .*, got \(\(1, 0, 0\), \(2, 0, 0\)\), 5"),
    (GR.psi_in, (["in"], 5, 2, ()), r"unknown gravity kind \['in'\]"),
], ids=["psi_out segment past its row", "psi_out row above the top", "xi row 0",
        "psi_in segment short of n", "psi_in segment from k", "psi_in segment from n",
        "psi_in row past its column", "psi_in rows out of order", "out row with two segments",
        "psi_out rows out of order", "psi_out trivial row listed",
        "xi_inverse colours and segments differ in number", "xi_inverse colour past k",
        "xi_inverse length past its row", "xi_inverse rows out of order",
        "xi_inverse colours falling on a tie", "psi_in segment an int", "psi_out entry a string",
        "psi_out entry True", "psi_out entry a float", "xi_inverse colour a string",
        "psi_in_inverse step a string", "psi_out_inverse step True", "psi_in_inverse k = 0",
        "psi_out_inverse n = k", "psi_in n a string", "psi_in n a float", "psi_out k a string",
        "xi k a float", "xi_inverse a True", "psi_in segments an int", "psi_out segments None",
        "xi_inverse colours an int", "psi_in kind a list"])
def test_psi_maps_reject_a_malformed_diagram(psi, d, message):
    """A malformed diagram is rejected when it is built, so it never reaches the map."""
    with pytest.raises(C.InputError, match=message):
        psi(GR.GravityDiagram(*d) if type(d) is tuple else d)


@pytest.mark.parametrize("shape, reference", [(("1",), ("1",)), ((True,), (1,))], ids=["str", "bool"])
def test_a_path_of_no_int_steps_is_not_built(shape, reference):
    """The rows above reach the path readers only through TDyckPath.unchecked."""
    with pytest.raises(C.InputError, match="composition parts must be ints"):
        P.TDyckPath(shape, reference)


def test_a_path_with_a_negative_step_reaches_no_diagram():
    """(3, -1, 0) has the sum and prefix sums of a (2,3)-Dyck path; it would map to the
    diagram of (2, 0, 0), so the inverse would not be injective."""
    path = P.TDyckPath.unchecked((3, -1, 0), (1, 1, 0))
    for inverse in GR.psi_in_inverse, GR.psi_out_inverse:
        with pytest.raises(C.InputError, match="must be nonnegative"):
            inverse(path, 4, 2)


@pytest.mark.parametrize("n,k,segments", [
    (5, 2, ((1, 1, 2),)),  # row 1's code 1 above row 2's trivial code 0
    (4, 2, ((1, 1, 9),)),
    (5, 2, ((1, 0, 2),)),
    (5, 2, ((3, 1, 2),)),
    (5, 2, ((2, 1, 2), (2, 2, 3))),
    (5, 2, ((2, 1, 3), (1, 1, 2))),
    (5, 2, ((1, 2, 2),)),
], ids=["codes falling", "segment past its row", "left end 0", "row above the top",
        "two segments in a row", "rows out of order", "trivial row listed"])
def test_xi_rejects_what_psi_out_rejects(n, k, segments):
    """psi_out and xi read the same out-degree records, so a diagram either
    would reject is not built for both."""
    with pytest.raises(C.InputError):
        GR.GravityDiagram("out", n, k, segments)


def _crossings(path):
    """x-coordinates of north steps 2, 3, ... of a path."""
    return tuple(x for x, sj in enumerate(path.shape) for _ in range(sj))[1:]


def _mcar_code(m):
    return tuple((m.n - 2 - c) * m.k + col - 1 for (_, _, c), col in zip(m.segments, m.colors))


@pytest.mark.parametrize("n,k", FAMILIES)
def test_one_code_behind_every_map(n, k):
    """Both enumerators list the code x_1 <= ... <= x_{a-1}, x_i <= ki - 1,
    in the same order, as the crossings of their psi paths; so the pairs
    are the two listings side by side, and xi complements and reverses."""
    a = n - k
    ins, outs = list(GR.enumerate_in_gravity(n, k)), list(GR.enumerate_out_gravity(n, k))
    codes = list(monotone_sequences([0] * (a - 1), [k * i - 1 for i in range(1, a)]))
    assert [_crossings(GR.psi_in(d)) for d in ins] == codes
    assert [_crossings(GR.psi_out(d)) for d in outs] == codes
    assert correspondence(n, k) == (list(zip(outs, ins)), [])
    top = k * (a - 1) - 1
    for d, x in zip(outs, codes):
        assert _mcar_code(GR.xi(d)) == tuple(top - xj for xj in reversed(x))


def _outcome(f, *args):
    try:
        return f(*args)
    except C.InputError as e:
        return str(e)


def test_psi_out_inverse_is_the_embedding_formula():
    """On every composition of a into b parts for n <= 6, k <= 3, each its
    own reference so that non-Dyck shapes reach every rejection, the row
    decoder gives the diagram of the embedding's arithmetic, and rejects
    with its one path message each shape that the embedding rejects."""
    kinds = set()
    for n in range(2, 7):
        for k in range(1, min(n, 4)):
            a, b = n - k, k * (n - k) - 1
            for s in weak_compositions(a, b):
                path = P.TDyckPath(s, s)
                got = _outcome(GR.psi_out_inverse, path, n, k)
                want = _outcome(psi_out_inverse_by_embedding, path, n, k)
                assert got == want or isinstance(got, str) and isinstance(want, str), (n, k, s)
                kinds.add(re.sub(r"\d+", "#", got) if isinstance(got, str) else "diagram")
    assert kinds == {"diagram", "path is not an (#,#)-Dyck path"}


def test_count_gravity_checks_the_caracol_parameters():
    with pytest.raises(C.InputError, match="needs n > k >= 1, got n=3, k=5"):
        GR.count_gravity(3, 5)
    assert GR.count_gravity(2, 1) == 1  # the (1, 0) grid has one empty diagram


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


ORDER_FAMILIES = [(2, 1), (5, 1), (7, 1), (5, 2), (6, 2), (8, 2), (7, 3), (6, 4)]


# sha256 of repr((segments, colors)) of every diagram, family by family in
# the grid order of _LISTING_GRIDS, recorded before the enumerators were
# rebuilt on combinat.monotone_concat: (diagram count, digest)
LISTING_DIGESTS = {
    "in": (13034, "dd5a4e629b4fd82b410edb26a03a3371ae6e6e93a91d274ef5ae07da3a13421f"),
    "out": (13034, "60f848728734c45da9fffafc22f535ce8b96f3af054c379c749fe5d99ae45fe7"),
    "mcar-out": (24473, "ffa001416635ca952918b60a2c00c02b8ca758663844a05f439799aaff58a354"),
}
_CARACOL_GRID = [(n, k) for n in range(2, 10) for k in range(1, n)]
_LISTING_GRIDS = {
    "in": (GR.enumerate_in_gravity, _CARACOL_GRID),
    "out": (GR.enumerate_out_gravity, _CARACOL_GRID),
    "mcar-out": (GR.enumerate_out_gravity_mcar, [(a, k) for a in range(1, 7) for k in range(1, 5)]),
}


@pytest.mark.parametrize("kind", sorted(LISTING_DIGESTS))
def test_full_listings_are_pinned_by_digest(kind):
    """Every in- and out-degree diagram with 1 <= k < n <= 9 and every
    multicaracol diagram with a <= 6, k <= 4, segments, colours and order."""
    enumerate_kind, grid = _LISTING_GRIDS[kind]
    digest = hashlib.sha256()
    count = 0
    for params in grid:
        for d in enumerate_kind(*params):
            digest.update(repr((d.segments, d.colors)).encode())
            count += 1
    assert (count, digest.hexdigest()) == LISTING_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(LISTING_DIGESTS))
def test_json_lines_are_the_records_lines(kind):
    """Over the digest grids, the JSON route writes each record's own line,
    in the same order, also on the edges with no rows (out at (3, 2)) and
    no columns (multicaracol at a = 1)."""
    enumerate_kind, grid = _LISTING_GRIDS[kind]
    count = 0
    for params in grid:
        lines = list(GR.json_lines(kind, *params))
        assert lines == [d.to_json() for d in enumerate_kind(*params)]
        count += len(lines)
    assert count == LISTING_DIGESTS[kind][0]
    assert list(GR.json_lines("out", 3, 2)) == ['{"kind": "out", "n": 3, "k": 2, "segments": []}']


@pytest.mark.parametrize("kind,n,k", [
    ("in", 2, 2), ("out", 0, 1), ("out", 3, 0), ("mcar-out", 0, 2), ("mcar-out", 3, -1),
])
def test_json_lines_reject_what_the_enumerators_reject(kind, n, k):
    enumerate_kind = _LISTING_GRIDS[kind][0]
    with pytest.raises(C.InputError) as records:
        list(enumerate_kind(n, k))
    with pytest.raises(C.InputError) as lines:
        list(GR.json_lines(kind, n, k))
    assert str(lines.value) == str(records.value)


def test_json_lines_reject_an_unknown_kind():
    with pytest.raises(C.InputError, match="unknown gravity kind"):
        next(GR.json_lines("sideways", 5, 2))


@pytest.mark.parametrize("kind,n,k", [("in", 40, 2), ("out", 40, 3), ("mcar-out", 40, 3)])
@pytest.mark.parametrize("route", ["records", "json_lines", "text_lines"])
def test_first_diagram_of_a_large_family_is_cheap(route, kind, n, k):
    """The enumerators' per-call tables grow with positions times values,
    not with pairs of values, so the first diagram of a family with about
    40 positions costs well under 1 MB.  A multicaracol row builds its
    pairs from its lowest code only, about half the table (200 KB here).
    The line routes' tables hold each element's text in place of the
    element, under the same bounds: a picture row is about 150 characters
    here, and the k colours of a multicaracol segment share one, which
    keeps its first picture near 350 KB (one row text per code: 660 KB)."""
    tracemalloc.start()
    try:
        if route == "records":
            next(_LISTING_GRIDS[kind][0](n, k))
        else:
            next(getattr(GR, route)(kind, n, k))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (400_000 if kind == "mcar-out" else 1_000_000)


@pytest.mark.parametrize("n,k", ORDER_FAMILIES)
def test_in_gravity_order(n, k):
    """Every multiset of left ends whose i-th longest segment fits under the
    capacity (j-k)k - 1 of its column, listed by its per-column counts
    ascending."""
    cols = range(k + 1, n)
    most = (n - 1 - k) * k - 1 if cols else 0
    lefts = [
        ls
        for size in range(most + 1)
        for ls in combinations_with_replacement(cols, size)
        if all(row <= (j - k) * k - 1 for row, j in enumerate(ls, start=1))
    ]
    lefts.sort(key=lambda ls: tuple(ls.count(j) for j in cols))
    want = [tuple((row, j, n) for row, j in enumerate(ls, start=1)) for ls in lefts]
    assert [d.segments for d in GR.enumerate_in_gravity(n, k)] == want


@pytest.mark.parametrize("n,k", ORDER_FAMILIES)
def test_out_gravity_order(n, k):
    """Every choice of [l, r] per row with (r, r-l) weakly increasing up the
    rows, listed by the per-row (r, r-l) ascending."""
    rows = range(1, n - k)
    choices = [
        [(r, r - l) for r in range(k, k + i) for l in range(1, k + 1)] for i in rows
    ]
    keys = sorted(ks for ks in product(*choices) if list(ks) == sorted(ks))
    want = [
        tuple((i, r - d, r) for i, (r, d) in zip(rows, ks) if (r, d) != (k, 0))
        for ks in keys
    ]
    assert [d.segments for d in GR.enumerate_out_gravity(n, k)] == want


@pytest.mark.parametrize("a,k", [(1, 2), (2, 1), (4, 1), (3, 2), (5, 2), (4, 3)])
def test_mcar_gravity_order(a, k):
    """Every choice of (length c, colour) per row with c <= a-1-i and the
    per-row (-c, colour) weakly increasing, listed by them ascending."""
    rows = range(1, a)
    choices = [
        [(-c, col) for c in range(a - i) for col in range(1, k + 1)] for i in rows
    ]
    keys = sorted(ks for ks in product(*choices) if list(ks) == sorted(ks))
    got = [
        tuple((-c, col) for (_, _, c), col in zip(d.segments, d.colors))
        for d in GR.enumerate_out_gravity_mcar(a, k)
    ]
    assert got == keys
    for d in GR.enumerate_out_gravity_mcar(a, k):
        assert [(row, left) for row, left, _ in d.segments] == [(i, 0) for i in rows]


def test_xi_figure_instance():
    """The 11-vertex k=3 out-degree diagram of the paired-figures example
    projects to the displayed 3-coloured multicaracol diagram."""
    segs = ((2, 2, 3), (3, 2, 4), (4, 1, 4), (5, 3, 7), (6, 3, 7), (7, 1, 7))
    d = GR.GravityDiagram("out", 11, 3, segs)
    m = GR.xi(d)
    assert m.n == 8 and m.k == 3
    rows = [(c, col) for (_, _, c), col in zip(m.segments, m.colors)]
    assert rows == [(4, 1), (4, 3), (4, 3), (1, 1), (1, 2), (0, 2), (0, 3)]
