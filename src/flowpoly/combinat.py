"""Exact integer combinatorics: binomials, compositions, dominance order.

Every count in this package is a plain Python int, so all arithmetic is
arbitrary-precision and exact.  Divisions only happen where exactness is
provable and are asserted at runtime.
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence


class InputError(ValueError):
    """A bad argument from outside the package; every validator raises it."""


class LengthMismatch(InputError):
    pass


class SumMismatch(InputError):
    pass


class NonIntegral(ValueError):
    """An exact division left a remainder: a broken invariant, not bad input."""


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n, and an error on negative arguments."""
    if n < 0 or k < 0:
        raise InputError(f"binomial needs nonnegative arguments, got ({n}, {k})")
    if k > n:
        return 0
    return math.comb(n, k)


def multichoose(n: int, k: int) -> int:
    """Number of k-multisets from n symbols, C(n+k-1, k).

    multichoose(0, 0) = 1 (the empty multiset) and multichoose(0, k) = 0
    for k > 0.
    """
    if n < 0 or k < 0:
        raise InputError(f"multichoose needs nonnegative arguments, got ({n}, {k})")
    if k == 0:
        return 1
    if n == 0:
        return 0
    return math.comb(n + k - 1, k)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (parts[0]! * parts[1]! * ...), requiring sum(parts) == n."""
    if any(p < 0 for p in parts):
        raise InputError(f"multinomial parts must be nonnegative, got {tuple(parts)}")
    if sum(parts) != n:
        raise SumMismatch(f"multinomial parts {tuple(parts)} do not sum to {n}")
    result = 1
    remaining = n
    for p in parts:
        result *= math.comb(remaining, p)
        remaining -= p
    return result


def exact_div(numerator: int, denominator: int) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise NonIntegral(f"{numerator} is not divisible by {denominator}")
    return q


def rational_catalan(a: int, b: int) -> int:
    """The rational Catalan number C(a+b, a)/(a+b).

    Integral for all coprime pairs, and for every pair this package feeds
    it; a fractional result raises NonIntegral rather than rounding.
    """
    if a < 1 or b < 1:
        raise InputError(f"rational_catalan needs a, b >= 1, got ({a}, {b})")
    return exact_div(math.comb(a + b, a), a + b)


def catalan(n: int) -> int:
    """Classical Catalan number, Cat(n) = C(2n, n)/(n+1)."""
    return exact_div(math.comb(2 * n, n), n + 1)


def k_parking_number(k: int, r: int, i: int) -> int:
    """Entry (r, i) of the k-parking triangle.

    T_k(r, i) = (r+1)^(i-1) * multichoose(k(r+1), r-i).  At i = 0 the
    (r+1)^(-1) factor divides exactly (the value is a generalized
    Fuss-Catalan number); at i = r the value is (r+1)^(r-1), the number
    of parking functions of length r.
    """
    if k < 1:
        raise InputError(f"k_parking_number needs k >= 1, got {k}")
    if not 0 <= i <= r:
        raise InputError(f"k_parking_number needs 0 <= i <= r, got i={i}, r={r}")
    mc = multichoose(k * (r + 1), r - i)
    if i == 0:
        return exact_div(mc, r + 1)
    return (r + 1) ** (i - 1) * mc


def prefix_sums(parts: Iterable[int]) -> tuple[int, ...]:
    total = 0
    out = []
    for p in parts:
        total += p
        out.append(total)
    return tuple(out)


def dominates(s: Sequence[int], t: Sequence[int]) -> bool:
    """True iff every prefix sum of s is >= the matching prefix sum of t.

    Both compositions must have the same length and the same total.
    """
    if len(s) != len(t):
        raise LengthMismatch(f"lengths differ: {len(s)} vs {len(t)}")
    ps, pt = prefix_sums(s), prefix_sums(t)
    if ps and ps[-1] != pt[-1]:
        raise SumMismatch(f"sums differ: {ps[-1]} vs {pt[-1]}")
    return all(a >= b for a, b in zip(ps, pt))


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All weak compositions of `total` into `parts` parts, lex decreasing."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def dominating_compositions(t: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All compositions s with |s| = |t| that dominate t, lex decreasing.

    These are exactly the t-Dyck paths.  The order is deterministic:
    decreasing in the first differing part.
    """
    t = tuple(t)
    pt = prefix_sums(t)
    total = pt[-1] if pt else 0

    def rec(j: int, running: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if j == len(t) - 1:
            last = total - running
            if last >= 0:
                yield prefix + (last,)
            return
        # s_j may not dip below the dominance floor, nor exceed the budget
        low = max(0, pt[j] - running)
        for sj in range(total - running, low - 1, -1):
            yield from rec(j + 1, running + sj, prefix + (sj,))

    if not t:
        yield ()
        return
    yield from rec(0, 0, ())


def count_dominating(t: Sequence[int]) -> int:
    """The number of compositions dominating t, without listing them: a
    dynamic program over the running prefix sum."""
    total = sum(t)
    heights = {0: 1}
    floor = 0
    for tj in t:
        floor += tj
        nxt: dict[int, int] = {}
        for h, ways in heights.items():
            for h2 in range(max(h, floor), total + 1):
                nxt[h2] = nxt.get(h2, 0) + ways
        heights = nxt
    return heights.get(total, 0)

