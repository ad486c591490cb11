"""Unified diagrams: truncation, completions, the cyclic action, and the
closed-form volumes."""
from __future__ import annotations

import hashlib
from itertools import combinations_with_replacement

import pytest

from flowpoly import combinat as C
from flowpoly import graphs as G
from flowpoly import lidskii as L
from flowpoly import paths as P
from flowpoly import unified as U
from oracles import (
    completions_by_enumeration,
    is_log_concave,
    parking_preferences,
    record_from_json,
    segment_multisets_by_codes,
    simplex_partition_by_dominance,
    standardized_count_enumerated,
    standardized_count_listed,
    weak_compositions,
)


def column_level(shape, col: int) -> int:
    """Height below the top at which the col-th east step sits."""
    return sum(shape) - sum(shape[:col])


def test_column_level():
    shape = (5, 4, 0, 1, 0, 0)
    assert column_level(shape, 1) == 5
    assert column_level(shape, 3) == 1
    assert column_level(shape, 6) == 0
    assert column_level((3, 0), 1) == 0


def test_truncated_counts():
    for n in range(2, 8):
        for k in range(1, n):
            r = n - k - 1
            for i in range(r + 1):
                got = sum(1 for _ in U.enumerate_truncated(n, k, i))
                assert got == C.k_parking_number(k, r, i), (n, k, i)
    assert sum(1 for _ in U.enumerate_truncated(5, 2, 0)) == 7
    assert sum(1 for _ in U.enumerate_truncated(6, 5, 0)) == 1


@pytest.mark.parametrize("n,k", [(5, 1), (5, 2), (6, 2), (7, 3)])
def test_theta_bijection(n, k):
    r = n - k - 1
    for i in range(r + 1):
        targets = {
            (m.shape, m.labels) for m in P.enumerate_multilabeled(k, r, i)
        }
        images = set()
        for u in U.enumerate_truncated(n, k, i):
            m = U.theta(u)
            assert U.theta_inverse(m, n, k) == u
            images.add((m.shape, m.labels))
        assert images == targets


def test_theta_round_trip_everywhere():
    for n in range(2, 8):
        for k in range(1, n):
            for i in range(n - k):
                for u in U.enumerate_truncated(n, k, i):
                    assert U.theta_inverse(U.theta(u), n, k) == u


def theta_inverse_5_2(m):
    return U.theta_inverse(m, 5, 2)


def theta_of(fields):
    """theta of the record with these fields, built when the row runs."""
    return U.theta(U.TruncatedDiagram(*fields))


# a truncated record is accepted when it is built, only if theta_inverse gives
# it back from its theta image, so most malformed records fail on
# theta_inverse's reading of that image
@pytest.mark.parametrize("apply, arg, message", [
    # caracol(6, 2) has r = 3 grid columns, so h runs over 0..2 only: (3, 1)
    # slides to no column, and the image keeps one barred label fewer
    (theta_of, (6, 2, 1, (1, 0, 0), ((1,), (), ()), ((0, 1), (3, 1))),
     r"\(2, 0, 0\) does not dominate \(1\^3\): it is no Dyck path"),
    (theta_of, (5, 2, 0, (0, 0), ((), ()), ((-1, 1), (1, 1))),
     r"\(0, 1\) does not dominate \(1\^2\): it is no Dyck path"),
    # l = 3 > k slides to the car label 1
    (theta_of, (5, 2, 0, (0, 0), ((), ()), ((0, 3), (1, 1))),
     r"not the canonical level-0 record of its image \(\(1,\), \(-1,\)\)"),
    # the car label sits in column 2, where the tail has no step
    (theta_of, (5, 2, 1, (1, 0), ((), (1,)), ((0, 1),)),
     r"not the canonical level-1 record of its image \(\(-1,\), \(1,\)\)"),
    (theta_of, (5, 2, 0, (1, 0), ((1,), ()), ((0, 1),)),
     r"not the canonical level-0 record of its image \(\(-1, 1\), \(\)\)"),
    (theta_of, (5, 2, 1, (1, 0), ((1,),), ((0, 1),)),
     "a path at r=2 has 2 columns, each with one label per north step"),
    (theta_of, (5, 2, 0, (0, 0), ((), ()), ((1, 1), (0, 1))),
     r"not the canonical level-0 record of its image \(\(-1,\), \(-1,\)\)"),
    (theta_of, (5, 2, 0, (0, 0), ((), ()), ((0, 1), (0, 1, 2))),
     r"tail labels tuples and segments \(h, l\) int pairs"),
    (theta_of, (5, 2, 0, (0, 0), ((), ()), ((1, 1), (1, 2))),
     r"\(0, 2\) does not dominate \(1\^2\): it is no Dyck path"),
    (theta_of, (5, 2, 2, (2, 0), ((2, 1), ()), ()),
     r"column 1 needs ascending labels above -2, got \(2, 1\)"),
    # a tail column that is no tuple, and segment entries that are no ints
    (theta_of, (5, 2, 1, (1, 0), (1, ()), ((0, 1),)),
     "tail parts are ints, tail labels tuples and segments"),
    (theta_of, (5, 2, 1, (1, 0), ((1,), ()), ((0, True),)),
     "tail parts are ints, tail labels tuples and segments"),
    (theta_of, (5, 2, 1, (1, 0), ((1,), ()), ((0.0, 1),)),
     "tail parts are ints, tail labels tuples and segments"),
    # theta reads no tail part, and theta_inverse gives back a tail equal to this one
    (theta_of, (5, 1, 1, (0, 1.0, 0), ((), (1,), ()), ((0, 1), (1, 1))),
     "tail parts are ints, tail labels tuples and segments"),
    (theta_inverse_5_2, P.MultiLabeledDyckPath((0, 2), ((), (1, 0))),
     r"\(0, 2\) does not dominate \(1\^2\): it is no Dyck path"),
    (theta_inverse_5_2, P.MultiLabeledDyckPath((2, 0), ((1,), ())),
     "a path at r=2 has 2 columns, each with one label per north step"),
    (theta_inverse_5_2, P.MultiLabeledDyckPath((2, 0), ((1, 0), ())),
     r"column 1 needs ascending labels above -2, got \(1, 0\)"),
    (theta_inverse_5_2, P.MultiLabeledDyckPath((1, 1), ((0,),)),
     "a path at r=2 has 2 columns, each with one label per north step"),
    (theta_inverse_5_2, P.MultiLabeledDyckPath((2, 1), ((0, 1), (0,))),
     r"\(2, 1\) does not dominate \(1\^2\): it is no Dyck path"),
    # bar(k-1) = 1-k is the lowest barred label
    (theta_inverse_5_2, P.MultiLabeledDyckPath((1, 1), ((-2,), (1,))),
     r"column 1 needs ascending labels above -2, got \(-2,\)"),
    (lambda m: U.theta_inverse(m, 4, 1), P.MultiLabeledDyckPath((1, 1), (1, (0,))),
     "one label per north step, all ints"),
    (theta_inverse_5_2, P.MultiLabeledDyckPath((1, 1), ((True,), (0,))), "all ints"),
    (theta_inverse_5_2, P.MultiLabeledDyckPath((1.0, 1), ((0,), (1,))), "all ints"),
    # (n, k) is checked before the path is read
    (lambda m: U.theta_inverse(m, 2, 0), P.MultiLabeledDyckPath((1,), ((1,),)),
     "the k-caracol graph needs n > k >= 1, got n=2, k=0"),
    # scalars that are no ints, though 5.0 and 0.0 equal the ints theta_inverse gives back
    (lambda m: U.theta_inverse(m, "5", 2), P.MultiLabeledDyckPath((1, 1), ((0,), (0,))),
     "the k-caracol graph needs n > k >= 1, got n='5', k=2"),
    (theta_of, (5.0, 2, 0, (0, 0), ((), ()), ((0, 1), (0, 1))),
     "the k-caracol graph needs n > k >= 1, got n=5.0, k=2"),
    (theta_of, (5, 2, 0.0, (0, 0), ((), ()), ((0, 1), (0, 1))),
     r"the k-parking triangle needs 0 <= i <= r, got i=0.0, r=2"),
], ids=["theta segment past the last column", "theta segment before the first column",
        "theta segment from past column k",
        "theta label off the tail", "theta level below its labels",
        "theta labels shorter than the tail", "theta segments unsorted", "theta segment not a pair",
        "theta image not Dyck", "theta labels not ascending",
        "theta tail column an int", "theta segment entry True", "theta segment entry a float",
        "theta tail part a float",
        "theta_inverse shape not Dyck", "theta_inverse fewer labels than steps",
        "theta_inverse labels not ascending", "theta_inverse label columns missing",
        "theta_inverse more steps than columns", "theta_inverse barred label past k",
        "theta_inverse label column an int", "theta_inverse label True", "theta_inverse step a float",
        "theta_inverse k = 0", "theta_inverse n a string", "theta n a float", "theta level a float"])
def test_theta_maps_reject_malformed_input(apply, arg, message):
    with pytest.raises(C.InputError, match=message):
        apply(arg)


@pytest.mark.parametrize("n,k", [(4, 1), (7, 1), (5, 2), (7, 2), (7, 3), (6, 4)])
def test_segment_multisets_match_filter(n, k):
    """Every tail and level: the multisets of r-i segments (h, l) whose
    count at heights >= j stays within column k+j's dots, as sorted tuples
    in lex order."""
    r = n - k - 1
    pool = [(h, l) for h in range(r) for l in range(1, k + 1)]
    for i in range(r + 1):
        for tail in C.dominating_compositions((0,) * (r - i) + (1,) * i):
            caps = [r - i + sum(tail[:j]) - j for j in range(1, r)]
            want = [
                combo
                for combo in combinations_with_replacement(pool, r - i)
                if all(
                    sum(1 for h, _ in combo if h >= j) <= caps[j - 1]
                    for j in range(1, r)
                )
            ]
            got = list(U._segment_multisets(k, r, i, tail))
            assert got == sorted(want), (n, k, i, tail)


def test_theta_figure_example():
    u = U.TruncatedDiagram(
        9, 3, 2, (1, 0, 0, 1, 0), ((2,), (), (), (1,), ()), ((0, 1), (0, 3), (2, 3))
    )
    m = U.theta(u)
    assert m.shape == (3, 0, 1, 1, 0)
    assert m.labels == ((-2, 0, 2), (), (0,), (1,), ())
    assert parking_preferences(m, 3) == (((1,), (), (1, 3)), (4, 1))
    assert U.theta_inverse(m, 9, 3) == u


def test_theta_no_barred_at_full_level():
    for u in U.enumerate_truncated(6, 2, 3):
        m = U.theta(u)
        labels = [lab for col in m.labels for lab in col]
        assert sorted(labels) == [1, 2, 3]


def test_k_hull_examples():
    u = U.TruncatedDiagram(
        9, 3, 2, (1, 0, 0, 1, 0), ((2,), (), (), (1,), ()), ((0, 1), (0, 3), (2, 3))
    )
    assert U.k_hull(u) == (7, 6, 7)
    u40 = U.TruncatedDiagram(8, 4, 0, (0, 0, 0), ((), (), ()), ((0, 4), (1, 1), (1, 3)))
    assert U.k_hull(u40) == (5, 4, 5, 4)
    empty = U.TruncatedDiagram(8, 4, 0, (0, 0, 0), ((), (), ()), ((0, 4), (0, 4), (0, 4)))
    assert U.k_hull(empty) == (4, 4, 4, 6)


def test_completions_example_car62():
    values = sorted(U.completions(u) for u in U.enumerate_truncated(5, 2, 0))
    # figure set {99, 64, 29}; the multiset is forced by the orbit sums
    assert set(values) == {29, 64, 99}
    assert values == [29, 29, 64, 64, 64, 99, 99]
    assert sum(values) == 448 == 7 * 2**6


def test_completions_match_enumeration():
    for (n, k) in [(5, 2), (6, 2), (6, 3), (7, 3), (6, 1)]:
        r = n - k - 1
        for i in range(r + 1):
            for u in U.enumerate_truncated(n, k, i):
                assert U.completions(u) == completions_by_enumeration(u)


def test_completions_k1_always_one():
    for n in (4, 5, 6):
        for i in range(n - 1):
            for u in U.enumerate_truncated(n, 1, i):
                assert U.completions(u) == 1


def test_standardized_counts():
    assert U.standardized_count(5, 2, 0) == 448
    assert U.standardized_count(6, 2, 1) == 2**8 * 36 == 9216
    for n in range(2, 9):
        for k in range(1, n):
            for i in range(n - k):
                got = U.standardized_count(n, k, i)
                assert got == U.standardized_count_formula(n, k, i), (n, k, i)
                assert got == standardized_count_listed(n, k, i), (n, k, i)
                if n < 8:  # the brute force alone takes a second at n = 8
                    assert got == standardized_count_enumerated(n, k, i), (n, k, i)
    # Pitman-Stanley endpoint: (n-1)^(n-3) at level 0
    for n in (4, 5, 6):
        assert U.standardized_count(n, n - 1, 0) == (n - 1) ** (n - 3)


def test_stratified_count_lists_no_diagram(monkeypatch):
    """The column DP never lists a truncated diagram, so it reaches sizes
    that listing cannot: caracol(12,4) has 16,806,508 of them over its
    levels."""

    def unlisted(n, k, i):
        raise AssertionError("enumerate_truncated was called")

    monkeypatch.setattr(U, "enumerate_truncated", unlisted)
    for n, k in [(10, 3), (11, 3), (12, 4)]:
        for x, y in [(1, 1), (2, 3)]:
            assert U.count_unified_stratified(n, k, x, y) == U.volume_closed_form(n, k, x, y)


def test_orbits_car62():
    orbits = U.truncated_orbits(5, 2, 0)
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1, 2, 2, 2]
    m_minus_n = 7
    for orbit in orbits:
        total = sum(U.completions(u) for u in orbit)
        assert total * 2 == len(orbit) * 2**m_minus_n
    fixed = [o for o in orbits if len(o) == 1]
    segs = fixed[0][0].segments
    # the fixed diagram pairs one segment of each colour class
    assert sorted(l for _, l in segs) == [1, 2]


def test_cyclic_shift_lowers_each_left_column_by_z():
    """Column l goes to l - z mod k, within 1..k, and the segments stay sorted."""
    u = U.TruncatedDiagram(6, 3, 0, (0, 0), ((), ()), ((0, 1), (1, 3)))
    assert U.cyclic_shift(1, u).segments == ((0, 3), (1, 2))
    assert U.cyclic_shift(2, u).segments == ((0, 2), (1, 1))
    assert U.cyclic_shift(3, u) == u


@pytest.mark.parametrize("fields, message", [
    # unsorted segments, which cyclic_shift(1, .) once sorted into the listed ((0, 2), (1, 2))
    ((5, 2, 0, (0, 0), ((), ()), ((1, 1), (0, 1))),
     r"not the canonical level-0 record of its image \(\(-1,\), \(-1,\)\)"),
    # a segment from column 5 > k, which cyclic_shift wrapped into the grid as (0, 2),
    # and which k_hull and completions counted as (4, 3) and 64
    ((5, 2, 0, (0, 0), ((), ()), ((0, 1), (0, 5))), "car labels must be 1..i, once each"),
    # level 1 with no car label: hull (5, 1) and 7 completions
    ((5, 2, 1, (0, 0), ((), ()), ((0, 1), (0, 1))),
     r"not the canonical level-1 record of its image \(\(-1, -1\), \(\)\)"),
], ids=["segments unsorted", "segment from past column k", "level above its car labels"])
def test_records_the_truncated_maps_once_read_are_rejected_when_built(fields, message):
    """cyclic_shift, k_hull and completions check nothing, so no record
    that theta_inverse does not give back may reach them."""
    with pytest.raises(C.InputError, match=message):
        U.TruncatedDiagram(*fields)


@pytest.mark.parametrize("n,k", [(5, 2), (6, 2), (7, 3)])
def test_orbit_sums(n, k):
    m = (k + 1) * (n - k) + n - 2
    for i in range(n - k):
        for orbit in U.truncated_orbits(n, k, i):
            total = sum(U.completions(u) for u in orbit)
            assert total * k == len(orbit) * k ** (m - n - i)


def test_simplex_partition_trinomial_figure():
    blocks = U.simplex_partition((2, 2, 2))
    points = {cj for cj, _ in blocks}
    assert points == {(2, 2, 2), (1, 2, 3), (2, 1, 3)}
    totals = {cj: sum(C.multinomial(6, d) for d in members) for cj, members in blocks}
    assert sum(totals.values()) == 729
    assert totals[(2, 2, 2)] == 378


def test_simplex_partition_k2():
    for total in range(1, 7):
        for c in range(total + 1):
            blocks = U.simplex_partition((c, total - c))
            as_dict = dict(blocks)
            assert sorted(as_dict[(c, total - c)]) == sorted(
                (d, total - d) for d in range(c, total + 1)
            )
            if c >= 1:
                assert sorted(as_dict[(c - 1, total - c + 1)]) == sorted(
                    (d, total - d) for d in range(0, c)
                )


def test_segment_multisets_match_the_bare_codes():
    """The piece table lists what decoding each bare code sequence lists, in
    the same order, for every tail of every level with n <= 9."""
    tails = 0
    for n in range(2, 10):
        for k in range(1, n):
            r = n - k - 1
            for i in range(r + 1):
                for tail in C.dominating_compositions((0,) * (r - i) + (1,) * i):
                    want = segment_multisets_by_codes(k, r, i, tail)
                    assert list(U._segment_multisets(k, r, i, tail)) == want, (n, k, i, tail)
                    tails += 1
    assert tails == 2974


def test_simplex_partition_corner():
    # every rotated base point dips negative, so the first block is everything
    blocks = U.simplex_partition((0, 0, 6))
    assert len(blocks[0][1]) == len(list(weak_compositions(6, 3)))
    assert all(not members for _, members in blocks[1:])


def test_simplex_partition_exhaustive():
    """Each partition covers the simplex, and the whole list, block order
    and member order included, is pinned by the sha256 of its repr."""
    digest = hashlib.sha256()
    for k in (2, 3, 4):
        for total in range(0, 7):
            for c0 in weak_compositions(total, k):
                blocks = U.simplex_partition(c0)
                combined = sorted(d for _, members in blocks for d in members)
                assert combined == sorted(weak_compositions(total, k))
                digest.update(repr(blocks).encode())
    assert digest.hexdigest() == "7fce499b2ca532167702f8ee3df3f92e2809b3a3ab29a0618adb8f089e48bcdc"


def test_simplex_partition_matches_the_dominance_test():
    """Testing each rotated d's prefix sums against each owner's is asking
    `dominates`: the same blocks, in the same order, for every base point
    with N <= 5 and k <= 4."""
    for k in (2, 3, 4):
        for total in range(6):
            for c0 in weak_compositions(total, k):
                assert U.simplex_partition(c0) == simplex_partition_by_dominance(c0), c0


def test_closed_forms():
    assert U.volume_closed_form(5, 2, 1, 1) == 2800
    assert U.volume_closed_form(5, 1, 1, 1) == 625
    assert U.volume_closed_form(5, 2, 1, 0) == 448
    assert U.volume_closed_form_mcar(3, 2, 1, 1) == 5600
    assert U.volume_closed_form_mcar(3, 2, 1, 1) == 2 * U.volume_closed_form(5, 2, 1, 1)


def test_closed_form_matches_volume():
    for n in range(2, 7):
        for k in range(1, n):
            g = G.caracol_k(n, k)
            for x, y in [(1, 1), (1, 0), (2, 1), (1, 2), (2, 2)]:
                a = G.caracol_xy_flow(n, k, x, y)
                assert (
                    L.volume(g, a)
                    == U.volume_closed_form(n, k, x, y)
                    == U.count_unified_stratified(n, k, x, y)
                )


def test_mcar_closed_form_matches_volume():
    for a_par in range(1, 5):
        for k in range(1, 4):
            g = G.multicaracol(a_par, k)
            for x, y in [(1, 1), (1, 0), (2, 1), (1, 2), (2, 2)]:
                nf = G.mcar_xy_flow(a_par, k, x, y)
                got = L.volume(g, nf)
                assert got == U.volume_closed_form_mcar(a_par, k, x, y)
                assert got == U.count_unified_stratified_mcar(a_par, k, x, y)
                assert got == k * U.volume_closed_form(a_par + k, k, x, y)


def test_level_identity():
    for n in range(2, 7):
        for k in range(1, n):
            g = G.caracol_k(n, k)
            assert L.volume(g, G.ones_flow(g)) == U.count_unified_stratified(
                n, k, 1, 1
            )


def test_count_unified_examples():
    c61 = G.caracol_k(5, 1)
    assert L.volume(c61, (1, 0, 0, 0, 0, -1)) == 5
    assert L.volume(c61, (1, 1, 1, 1, 1, -5)) == 625
    ps4 = G.pitman_stanley(4)
    assert L.volume(ps4, (1, 1, 1, -3)) == 3


def test_stratified_counts_check_the_family_parameters():
    with pytest.raises(C.InputError, match="needs n > k >= 1, got n=3, k=5"):
        U.count_unified_stratified(3, 5, 1, 1)
    with pytest.raises(C.InputError, match="needs a, k >= 1, got a=0, k=2"):
        U.count_unified_stratified_mcar(0, 2, 1, 1)


def test_unified_iterate_matches_count():
    cases = [
        (G.caracol_k(4, 1), (1, 1, 1, 1, -4)),
        (G.caracol_k(4, 2), (1, 1, 1, 1, -4)),
        (G.caracol_k(4, 3), (1, 1, 1, 1, -4)),
        (G.pitman_stanley(4), (1, 1, 1, -3)),
        (G.caracol_k(5, 1), (1, 0, 0, 0, 0, -1)),
        (G.caracol_k(4, 1), (2, 1, 0, 1, -4)),
        (G.multicaracol(2, 2), (2, 1, 1, -4)),
    ]
    for g, nf in cases:
        count = L.volume(g, nf)
        items = list(U.unified_diagrams(g, nf))
        assert len(items) == count
        assert len(set(items)) == count
        for s, sigma, alpha, _ in items:
            for col_labels, aj, sj in zip(alpha, nf, s):
                assert len(col_labels) == sj
                assert all(1 <= v <= aj for v in col_labels)
            word = [x for col in sigma for x in col]
            assert sorted(word) == list(range(1, sum(s) + 1))


def test_parking_row_log_concavity():
    for k in range(1, 5):
        for r in range(0, 7):
            row = [C.k_parking_number(k, r, i) for i in range(r + 1)]
            assert is_log_concave(row)


def test_truncated_json_round_trip():
    for u in U.enumerate_truncated(5, 2, 1):
        assert record_from_json(U.TruncatedDiagram, u.to_json()) == u


def test_truncated_json_lines_are_the_records_lines():
    """At every level of every caracol (n, k) <= (8, 3)."""
    count = 0
    for n in range(2, 9):
        for k in range(1, min(n, 4)):
            for i in range(n - k):
                lines = list(U.truncated_json_lines(n, k, i))
                assert lines == [u.to_json() for u in U.enumerate_truncated(n, k, i)], (n, k, i)
                count += len(lines)
    assert count == sum(C.k_parking_number(k, n - k - 1, i)
                        for n in range(2, 9) for k in range(1, min(n, 4)) for i in range(n - k))


@pytest.mark.parametrize("n,k,i", [(3, 3, 0), (5, 0, 0), (5, 2, 3), (5, 2, -1), (5.0, 2, 0)])
def test_truncated_json_lines_reject_what_the_enumerator_rejects(n, k, i):
    with pytest.raises(C.InputError) as want:
        list(U.enumerate_truncated(n, k, i))
    with pytest.raises(C.InputError) as got:
        list(U.truncated_json_lines(n, k, i))
    assert str(got.value) == str(want.value)


def test_truncated_count_large_instance():
    assert sum(1 for _ in U.enumerate_truncated(9, 3, 2)) == 6840


def test_stratification_against_raw_enumeration():
    """Group the materialized unified diagrams by column level: each level i
    must hold binomial(m-n, i) * standardized_count many."""
    n, k = 5, 2
    g = G.caracol_k(n, k)
    m = g.num_edges
    per_level = {}
    for s, _, _, _ in U.unified_diagrams(g, G.ones_flow(g)):
        i = column_level(s, k)
        per_level[i] = per_level.get(i, 0) + 1
    assert sum(per_level.values()) == 2800
    for i in range(n - k):
        want = C.binomial(m - n, i) * U.standardized_count(n, k, i)
        assert per_level.get(i, 0) == want, i
