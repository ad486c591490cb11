"""Dyck paths, labelings, and the circular parking process."""
from __future__ import annotations

import math
import tracemalloc
from itertools import combinations, combinations_with_replacement, product

import pytest

from flowpoly import combinat as C
from flowpoly import paths as P
from oracles import multilabeled_by_filter, parking_preferences, record_from_json, weak_compositions


def rational_row_signature(a: int, b: int) -> tuple[int, ...]:
    """r_i = number of squares in row i of the b x a grid that meet the line
    y = (a/b)x: the transpose route to P.rational_shape."""
    return tuple(-(-b * i // a) - (b * (i - 1) // a) for i in range(1, a + 1))


def transpose_signature(rows) -> tuple[int, ...]:
    """Turn a row signature (r_1, ..., r_a) into the column shape: one north
    step lands at the start of each row's run of columns, with run lengths
    (r_1-1, ..., r_{a-1}-1, r_a).  A zero-length run stacks its step on the
    same column."""
    runs = tuple(r - 1 for r in rows[:-1]) + (rows[-1],)
    t = [0] * sum(runs)
    pos = 0
    for run in runs:
        t[pos] += 1
        pos += run
    return tuple(t)


def labeled_paths(t):
    """Labeled t-Dyck paths (generalized parking functions PF_t): each
    t-Dyck path with the labels 1..|t| split over its columns, ascending
    inside each column, as per-column label tuples."""

    def split(pool, shape):
        if not shape:
            yield ()
            return
        for chosen in combinations(pool, shape[0]):
            rest = tuple(x for x in pool if x not in chosen)
            for tail in split(rest, shape[1:]):
                yield (chosen,) + tail

    for path in P.enumerate_t_dyck(t):
        yield from split(tuple(range(1, sum(t) + 1)), path.shape)


def count_labeled(t) -> int:
    """|PF_t| = sum of multinomial(|t|; s) over t-Dyck paths s."""
    return sum(C.multinomial(sum(t), s) for s in C.dominating_compositions(t))


def circular_park(k: int, r: int, motorcycle_prefs, car_prefs) -> tuple:
    """Park r vehicles on r+1 circular spaces and return the occupancy.

    Groups of identical model-bar(s) motorcycles arrive first (model
    bar(k-1) down to bar(0)), then the cars in order.  A vehicle whose
    preferred space is taken rolls forward cyclically to the next free one.
    Spaces are 1..r+1; the result holds ("m", s) or ("c", j) per space and
    exactly one None.
    """
    assert len(motorcycle_prefs) == k
    assert sum(len(p) for p in motorcycle_prefs) + len(car_prefs) == r
    spaces: list = [None] * (r + 1)

    def park(pref: int, vehicle) -> None:
        pos = pref - 1
        while spaces[pos] is not None:
            pos = (pos + 1) % (r + 1)
        spaces[pos] = vehicle

    for s in range(k - 1, -1, -1):
        for pref in sorted(motorcycle_prefs[k - 1 - s]):
            park(pref, ("m", s))
    for j, pref in enumerate(car_prefs, start=1):
        park(pref, ("c", j))
    return tuple(spaces)


def shift_preferences(z: int, r: int, motorcycle_prefs, car_prefs) -> tuple:
    """The Z/(r+1)Z action: add z to every preference mod r+1 (spaces 1..r+1)."""

    def roll(p: int) -> int:
        return (p - 1 + z) % (r + 1) + 1

    moto = tuple(tuple(sorted(roll(p) for p in prefs)) for prefs in motorcycle_prefs)
    return moto, tuple(roll(p) for p in car_prefs)


def test_rational_shape_examples():
    assert P.rational_shape(3, 5) == (1, 1, 0, 1, 0)
    assert P.rational_shape(1, 4) == (1, 0, 0, 0)
    # the caracol family shape is the transpose of (k-1, k^(a-1))
    for k in range(2, 5):
        for a in range(2, 6):
            b = k * a - 1
            sig = rational_row_signature(a, b)
            assert sig == (k,) + (k + 1,) * (a - 2) + (k,)
            assert (sig[0] - 1,) + tuple(s - 1 for s in sig[1:-1]) + (sig[-1],) == (
                k - 1,
            ) + (k,) * (a - 2) + (k,)
            assert P.rational_shape(a, b) == transpose_signature(sig)


def test_rational_shape_not_coprime():
    with pytest.raises(C.InputError, match="not coprime"):
        P.rational_shape(2, 4)
    with pytest.raises(ValueError):
        P.rational_shape(0, 3)


@pytest.mark.parametrize("a, b", [(2.0, 3), (2, 3.0), (True, 2), ("2", 3)])
def test_rational_shape_reads_ints_only_whatever_is_cached(a, b):
    """The cache is typed: 2.0 and True are not the cached keys 2 and 1."""
    P.rational_shape.cache_clear()
    with pytest.raises(C.InputError, match="rational_shape needs a, b >= 1"):
        P.rational_shape(a, b)
    P.rational_shape(int(a), int(b))
    with pytest.raises(C.InputError, match="rational_shape needs a, b >= 1"):
        P.rational_shape(a, b)


@pytest.mark.parametrize("shape, reference, message", [
    ((0, 1), (1, 0), r"\(0, 1\) does not dominate \(1, 0\)"),
    ((1, 0), (1,), "lengths differ: 2 vs 1"),
    ((1, 0), (0, 2), "sums differ: 1 vs 2"),
    (("1", 0), ("1", 0), r"composition parts must be ints, got \('1', 0\)"),
    # its prefix sums dominate; psi_in_inverse(., 4, 2) would map it to the diagram of (2, 0, 0)
    ((3, -1, 0), (1, 1, 0), r"composition parts must be nonnegative, got \(3, -1, 0\)"),
], ids=["not dominating", "length mismatch", "sum mismatch", "string step", "negative step"])
def test_t_dyck_path_rejects_a_shape_off_its_reference(shape, reference, message):
    with pytest.raises(C.InputError, match=message):
        P.TDyckPath(shape, reference)



def test_listed_t_dyck_paths_skip_the_dominance_check(monkeypatch):
    """enumerate_t_dyck builds each record without asking `dominates`, and
    its records equal the checked ones; a record built anywhere else is
    still checked."""
    t = P.rational_shape(4, 7)
    checked = [P.TDyckPath(s, t) for s in C.dominating_compositions(t)]

    def refuse(s, t):
        raise AssertionError("dominates asked of a listed shape")

    monkeypatch.setattr(P, "dominates", refuse)
    assert list(P.enumerate_t_dyck(t)) == checked
    with pytest.raises(AssertionError, match="dominates asked"):
        P.TDyckPath((4, 0, 0, 0, 0, 0, 0), t)


def test_t_dyck_counts():
    assert sum(1 for _ in P.enumerate_t_dyck((3,))) == 1
    assert sum(1 for _ in P.enumerate_t_dyck(P.rational_shape(3, 5))) == 7
    assert sum(1 for _ in P.enumerate_t_dyck((1, 1, 0))) == 2
    for a in range(1, 6):
        for b in range(1, 14):
            if math.gcd(a, b) == 1 and (a, b) != (1, 1):
                count = sum(1 for _ in P.enumerate_t_dyck(P.rational_shape(a, b)))
                assert count == C.rational_catalan(a, b), (a, b)


def test_labeled_counts():
    assert sum(1 for _ in labeled_paths((1,))) == 1
    got = sum(1 for _ in labeled_paths((1, 1, 0)))
    assert got == C.multinomial(2, (2, 0, 0)) + C.multinomial(2, (1, 1, 0)) == 3
    assert got == count_labeled((1, 1, 0))
    # classical parking functions from the staircase
    for r in range(1, 5):
        t = (1,) * r
        assert count_labeled(t) == (r + 1) ** (r - 1)
        assert sum(1 for _ in labeled_paths(t)) == (r + 1) ** (r - 1)


def test_labels_ascending_in_columns():
    for labels in labeled_paths((2, 1, 0)):
        word = [x for col in labels for x in col]
        assert sorted(word) == [1, 2, 3]
        for col in labels:
            assert list(col) == sorted(col)
            assert len(set(col)) == len(col)


def test_multilabeled_counts_match_triangles():
    for k in range(1, 5):
        for r in range(0, 6):
            for i in range(0, r + 1):
                got = sum(1 for _ in P.enumerate_multilabeled(k, r, i))
                assert got == C.k_parking_number(k, r, i), (k, r, i)


def test_multilabeled_structure():
    for m in P.enumerate_multilabeled(2, 3, 1):
        # Dyck condition
        running = 0
        for j, sj in enumerate(m.shape, start=1):
            running += sj
            assert running >= j
        cars = [lab for col in m.labels for lab in col if lab > 0]
        assert sorted(cars) == [1]
        barred = [lab for col in m.labels for lab in col if lab <= 0]
        assert len(barred) == 2
        assert all(-1 <= lab <= 0 for lab in barred)
        for col in m.labels:
            assert list(col) == sorted(col)


def test_multilabeled_examples():
    assert sum(1 for _ in P.enumerate_multilabeled(3, 0, 0)) == 1
    assert sum(1 for _ in P.enumerate_multilabeled(2, 3, 3)) == 16
    assert sum(1 for _ in P.enumerate_multilabeled(3, 5, 2)) == 6840


def test_circular_park_example():
    occ = circular_park(3, 5, [(1,), (), (1, 3)], (4, 1))
    assert occ == (("m", 2), ("m", 0), ("m", 0), ("c", 1), ("c", 2), None)


def test_circular_park_all_prefer_first():
    occ = circular_park(1, 4, [(1, 1)], (1, 1))
    assert occ == (("m", 0), ("m", 0), ("c", 1), ("c", 2), None)


def all_preferences(k: int, r: int, i: int):
    """Every parking-preference profile with r - i motorcycles and i cars."""
    for sizes in weak_compositions(r - i, k):
        moto_choices = [
            list(combinations_with_replacement(range(1, r + 2), d)) for d in sizes
        ]
        for motos in product(*moto_choices):
            for cars in product(range(1, r + 2), repeat=i):
                yield motos, cars


def canonical(motos, cars):
    return tuple(tuple(sorted(p)) for p in motos), tuple(cars)


def test_shift_moves_occupancy():
    for (k, r, i) in [(2, 3, 1), (3, 4, 2), (1, 4, 2)]:
        count = 0
        for motos, cars in all_preferences(k, r, i):
            occ = circular_park(k, r, motos, cars)
            sm, sc = shift_preferences(1, r, motos, cars)
            shifted = circular_park(k, r, sm, sc)
            assert shifted == occ[-1:] + occ[:-1]
            count += 1
            if count >= 400:
                break


def test_orbit_property():
    """Every preference orbit has size r+1 and exactly one member parks
    nothing in the last space."""
    for k in range(1, 4):
        for r in range(0, 5):
            for i in range(0, r + 1):
                seen = set()
                orbit_count = 0
                for motos, cars in all_preferences(k, r, i):
                    key = canonical(motos, cars)
                    if key in seen:
                        continue
                    orbit = []
                    cur = key
                    while cur not in seen:
                        seen.add(cur)
                        orbit.append(cur)
                        cur = canonical(*shift_preferences(1, r, *cur))
                    assert len(orbit) == r + 1
                    top_free = [
                        pp
                        for pp in orbit
                        if circular_park(k, r, pp[0], pp[1])[r] is None
                    ]
                    assert len(top_free) == 1
                    orbit_count += 1
                assert orbit_count * (r + 1) == len(seen)
                assert orbit_count == C.k_parking_number(k, r, i)


def test_parking_preferences_round():
    for m in P.enumerate_multilabeled(3, 5, 2):
        motos, cars = parking_preferences(m, 3)
        occ = circular_park(3, 5, motos, cars)
        assert occ[5] is None
        break


def test_json_round_trip():
    t = P.rational_shape(3, 5)
    for path in P.enumerate_t_dyck(t):
        assert record_from_json(P.TDyckPath, path.to_json()) == path
    for m in P.enumerate_multilabeled(2, 3, 1):
        assert record_from_json(P.MultiLabeledDyckPath, m.to_json()) == m


def test_every_multilabeled_path_parks_clean():
    """Decoded preferences always leave the last space empty; that is the
    lattice condition in parking terms."""
    for (k, r) in [(2, 3), (3, 4), (1, 4)]:
        for i in range(r + 1):
            for m in P.enumerate_multilabeled(k, r, i):
                motos, cars = parking_preferences(m, k)
                occ = circular_park(k, r, motos, cars)
                assert occ[r] is None
                assert sum(1 for v in occ if v is not None) == r


# rational shapes both ways round, and shapes with zero parts: t = (0, 0)
# has the one path (0, 0), t = () the one empty path
DYCK_SHAPES = [
    *(P.rational_shape(a, b) for a, b in [(1, 1), (3, 5), (5, 3), (5, 7), (8, 9)]),
    (2, 0, 1, 1), (0, 2, 0, 1), (0, 0), (),
]


def test_t_dyck_json_lines_are_the_records_lines():
    for t in DYCK_SHAPES:
        assert list(P.t_dyck_json_lines(t)) == [p.to_json() for p in P.enumerate_t_dyck(t)], t
    assert list(P.t_dyck_json_lines((0, 0))) == ['{"shape": [0, 0], "reference": [0, 0]}']


def test_multilabeled_json_lines_are_the_records_lines():
    """At every level for k <= 3 and r <= 5, r = 0 included."""
    count = 0
    for k in range(1, 4):
        for r in range(6):
            for i in range(r + 1):
                lines = list(P.multilabeled_json_lines(k, r, i))
                assert lines == [m.to_json() for m in P.enumerate_multilabeled(k, r, i)], (k, r, i)
                count += len(lines)
    assert count == sum(C.k_parking_number(k, r, i)
                        for k in range(1, 4) for r in range(6) for i in range(r + 1))



def test_multilabeled_paths_match_the_car_count_filter():
    """The walk over car counts under each path lists what trying every weak
    composition of i lists, in the same order, for k <= 3 and r <= 5."""
    for k in range(1, 4):
        for r in range(6):
            for i in range(r + 1):
                assert list(P.enumerate_multilabeled(k, r, i)) == multilabeled_by_filter(k, r, i), (k, r, i)


@pytest.mark.parametrize("lines", [
    lambda: P.t_dyck_json_lines((1,) * 2000),
    lambda: P.t_dyck_json_lines((0,) * 1999 + (2000,)),
    lambda: P.multilabeled_json_lines(2, 40, 3),
    lambda: P.multilabeled_json_lines(3, 40, 2),
], ids=["dyck 2000 ones", "dyck 2000 at the end", "multilabeled (2, 40, 3)", "multilabeled (3, 40, 2)"])
def test_first_line_of_a_large_listing_is_cheap(lines):
    """The line routes' per-call tables grow with positions, not with their
    squares: a table of zero-suffix texts, one per length, would take about
    6 MB at 2,000 parts.  The multi-labeled walk lists no car count before
    it needs it (all weak compositions of 3 into 40 parts take about 4.6 MB);
    at (3, 40, 2) most of the about 570 KB is the 780 barred labelings of
    the first column's 38 free slots."""
    tracemalloc.start()
    try:
        next(lines())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000



def test_a_multilabeled_listing_at_i_equal_r_keeps_no_splits():
    """At i = r every car count is its path's shape, so no split recurs and
    none is kept: the whole (1, 6, 6) listing peaks at about 600 KB, and at
    about 3.9 MB when each of its 16,807 splits is kept."""
    tracemalloc.start()
    try:
        count = sum(1 for _ in P.multilabeled_json_lines(1, 6, 6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == C.k_parking_number(1, 6, 6)
    assert peak < 1_500_000


@pytest.mark.parametrize("records, lines, args", [
    (P.enumerate_t_dyck, P.t_dyck_json_lines, ((2, -1, 1),)),
    (P.enumerate_multilabeled, P.multilabeled_json_lines, (0, 2, 1)),
    (P.enumerate_multilabeled, P.multilabeled_json_lines, (2, 2, 3)),
    (P.enumerate_multilabeled, P.multilabeled_json_lines, (2, 2, -1)),
    (P.enumerate_multilabeled, P.multilabeled_json_lines, (2, 2.0, 1)),
], ids=["dyck negative part", "multilabeled k = 0", "multilabeled i > r", "multilabeled i < 0",
        "multilabeled r a float"])
def test_json_lines_reject_what_the_enumerators_reject(records, lines, args):
    with pytest.raises(C.InputError) as want:
        list(records(*args))
    with pytest.raises(C.InputError) as got:
        list(lines(*args))
    assert str(got.value) == str(want.value)
