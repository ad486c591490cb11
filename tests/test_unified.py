"""Unified diagrams: truncation, completions, the cyclic action, and the
closed-form volumes."""
from __future__ import annotations

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
    standardized_count_enumerated,
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
    for n in range(2, 7):
        for k in range(1, n):
            for i in range(n - k):
                got = U.standardized_count(n, k, i)
                assert got == U.standardized_count_formula(n, k, i), (n, k, i)
                assert got == standardized_count_enumerated(n, k, i)
    # Pitman-Stanley endpoint: (n-1)^(n-3) at level 0
    for n in (4, 5, 6):
        assert U.standardized_count(n, n - 1, 0) == (n - 1) ** (n - 3)


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


def test_simplex_partition_corner():
    # every rotated base point dips negative, so the first block is everything
    blocks = U.simplex_partition((0, 0, 6))
    assert len(blocks[0][1]) == len(list(C.weak_compositions(6, 3)))
    assert all(not members for _, members in blocks[1:])


def test_simplex_partition_exhaustive():
    for k in (2, 3, 4):
        for total in range(0, 7):
            for c0 in C.weak_compositions(total, k):
                blocks = U.simplex_partition(c0)
                combined = sorted(d for _, members in blocks for d in members)
                assert combined == sorted(C.weak_compositions(total, k))


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
        assert U.TruncatedDiagram.from_json(u.to_json()) == u


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
