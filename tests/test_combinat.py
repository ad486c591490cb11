"""Exact combinatorics: counting primitives and the dominance order."""
from __future__ import annotations

import math

import pytest

from flowpoly import combinat as C
from flowpoly import paths as P
from oracles import is_log_concave


def pascal_triangle(rows: int) -> list[list[int]]:
    table = [[1]]
    for n in range(1, rows + 1):
        prev = table[-1] + [0]
        table.append([1] + [prev[j - 1] + prev[j] for j in range(1, n + 1)])
    return table


def test_binomial_values():
    assert C.binomial(5, 2) == 10
    assert C.binomial(9, 0) == 1
    assert C.binomial(3, 7) == 0
    table = pascal_triangle(12)
    for n in range(13):
        for k in range(n + 1):
            assert C.binomial(n, k) == table[n][k]
    assert C.binomial(7, 4) == table[7][4] == 35


def test_binomial_rejects_negatives():
    with pytest.raises(ValueError):
        C.binomial(-1, 0)
    with pytest.raises(ValueError):
        C.binomial(3, -2)


def test_multichoose():
    assert C.multichoose(3, 2) == 6
    assert C.multichoose(17, 0) == 1
    assert C.multichoose(0, 0) == 1
    assert C.multichoose(0, 4) == 0
    # brute force: count multisets directly
    from itertools import combinations_with_replacement

    for n in range(1, 6):
        for k in range(5):
            assert C.multichoose(n, k) == sum(
                1 for _ in combinations_with_replacement(range(n), k)
            )
    # the factor inside T_2(4,2) = 275 = 5 * 55
    assert C.multichoose(10, 2) == 55
    assert C.k_parking_number(2, 4, 2) == 5 * C.multichoose(10, 2) == 275


def test_multinomial():
    assert C.multinomial(6, (2, 2, 2)) == 90
    assert C.multinomial(6, (6, 0, 0)) == 1
    assert C.multinomial(6, (2, 1, 3)) == 60
    with pytest.raises(C.SumMismatch):
        C.multinomial(6, (2, 2, 3))
    for n in range(8):
        for parts in C.weak_compositions(n, 3):
            assert C.multinomial(n, parts) == math.factorial(n) // math.prod(
                math.factorial(p) for p in parts
            )


def test_multinomial_theorem():
    for k in range(1, 5):
        for n in range(11):
            total = sum(C.multinomial(n, d) for d in C.weak_compositions(n, k))
            assert total == k**n


def count_rational_dyck_paths(a: int, b: int) -> int:
    """Independent oracle: walk the b x a grid staying above y = (a/b)x."""

    def go(x: int, y: int) -> int:
        if (x, y) == (b, a):
            return 1
        total = 0
        if y < a:
            total += go(x, y + 1)
        if x < b and (y * b > a * (x + 1) or (y == a)):
            total += go(x + 1, y)
        return total

    return go(0, 0)


def test_rational_catalan():
    assert C.rational_catalan(3, 5) == 7
    for b in range(1, 9):
        assert C.rational_catalan(1, b) == 1
    assert C.rational_catalan(4, 3) == 5
    assert C.rational_catalan(4, 3) == count_rational_dyck_paths(3, 4)
    # the three defining expressions agree on coprime pairs
    for a in range(1, 9):
        for b in range(1, 9):
            if math.gcd(a, b) == 1:
                first = C.rational_catalan(a, b)
                assert C.binomial(a + b - 1, a) % b == 0
                assert C.binomial(a + b - 1, b) % a == 0
                assert first == C.binomial(a + b - 1, a) // b
                assert first == C.binomial(a + b - 1, b) // a


def test_rational_catalan_non_integral():
    with pytest.raises(C.NonIntegral):
        C.rational_catalan(2, 2)
    with pytest.raises(ValueError):
        C.rational_catalan(0, 3)


PARKING_TRIANGLES = {
    1: [
        [1],
        [1, 1],
        [2, 3, 3],
        [5, 10, 16, 16],
        [14, 35, 75, 125, 125],
        [42, 126, 336, 756, 1296, 1296],
    ],
    2: [
        [1],
        [2, 1],
        [7, 6, 3],
        [30, 36, 32, 16],
        [143, 220, 275, 250, 125],
        [728, 1365, 2184, 2808, 2592, 1296],
    ],
    3: [
        [1],
        [3, 1],
        [15, 9, 3],
        [91, 78, 48, 16],
        [612, 680, 600, 375, 125],
        [4389, 5985, 6840, 6156, 3888, 1296],
    ],
    4: [
        [1],
        [4, 1],
        [26, 12, 3],
        [204, 136, 64, 16],
        [1771, 1540, 1050, 500, 125],
        [16380, 17550, 15600, 10800, 5184, 1296],
    ],
}


def test_parking_triangles():
    for k, triangle in PARKING_TRIANGLES.items():
        for r, row in enumerate(triangle):
            for i, value in enumerate(row):
                assert C.k_parking_number(k, r, i) == value, (k, r, i)
    assert C.k_parking_number(2, 3, 1) == 36
    assert C.k_parking_number(3, 4, 2) == 600
    assert C.k_parking_number(1, 3, 3) == 16


def test_parking_special_columns():
    for k in range(1, 5):
        for r in range(6):
            if k * (r + 1) - 1 >= 1:
                assert C.k_parking_number(k, r, 0) == C.rational_catalan(
                    r + 1, k * (r + 1) - 1
                )
            if r >= 1:
                assert C.k_parking_number(k, r, r) == (r + 1) ** (r - 1)
                assert C.k_parking_number(k, r, r - 1) == k * C.k_parking_number(
                    k, r, r
                )


def test_log_concave():
    assert is_log_concave((1, 1, 1))
    assert is_log_concave((30, 36, 32, 16))
    assert not is_log_concave((1, 1, 3))
    assert is_log_concave(())
    assert is_log_concave((5,))
    for k, triangle in PARKING_TRIANGLES.items():
        for row in triangle:
            assert is_log_concave(row)


def test_dominates():
    assert C.dominates((1, 1, 0), (1, 1, 0))
    assert C.dominates((2, 0), (1, 1))
    assert not C.dominates((0, 2), (1, 1))
    with pytest.raises(C.LengthMismatch):
        C.dominates((1, 0), (1, 0, 0))
    with pytest.raises(C.SumMismatch):
        C.dominates((2, 0), (1, 0))


def test_dominating_compositions():
    assert list(C.dominating_compositions((1, 0))) == [(1, 0)]
    assert list(C.dominating_compositions((0, 1))) == [(1, 0), (0, 1)]
    # the brute-force filter fixes the count: only (2,0,0) and (1,1,0)
    assert list(C.dominating_compositions((1, 1, 0))) == [(2, 0, 0), (1, 1, 0)]


def test_dominating_compositions_matches_filter():
    for length in range(1, 7):
        for total in range(0, 9 - length):
            for t in C.weak_compositions(total, length):
                expect = sorted(
                    s for s in C.weak_compositions(total, length) if C.dominates(s, t)
                )
                got = sorted(C.dominating_compositions(t))
                assert got == expect, t
                # lex decreasing order, no duplicates
                listed = list(C.dominating_compositions(t))
                assert listed == sorted(listed, reverse=True)
                assert len(set(listed)) == len(listed)


def test_count_dominating():
    shapes = [(), (0,), (4,), (1, 0), (0, 1), (1, 1, 0), (2, 0, 1, 3), (0, 2, 2), (1,) * 6]
    for t in shapes:
        assert C.count_dominating(t) == sum(1 for _ in C.dominating_compositions(t)), t
    for a, b in [(1, 4), (3, 5), (5, 3), (4, 7), (7, 11)]:
        assert C.count_dominating(P.rational_shape(a, b)) == C.rational_catalan(a, b)


def test_compositions_dominating_prefixes():
    # the labeled initial paths completing a hull (3, 4): every composition
    # of 7 into two parts whose first part is at least 3
    got = list(C.dominating_compositions((3, 4)))
    assert got == [(7, 0), (6, 1), (5, 2), (4, 3), (3, 4)]
    assert sum(C.multinomial(7, d) for d in got) == 99
