"""Exact integer combinatorics: binomials, compositions, dominance order;
and the two things every module shares, the one input-error class and the
JSON writer of the enumerated objects.

Every count in this package is a plain Python int, so all arithmetic is
arbitrary-precision and exact.  Divisions only happen where exactness is
provable and are asserted at runtime.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence


class InputError(ValueError):
    """A bad argument from outside the package; every validator raises it."""


class NonIntegral(ValueError):
    """An exact division left a remainder: a broken invariant, not bad input."""


class ElementTexts(dict):
    """Maps a value to its text, made by `write` (json.dumps: a field name,
    a scalar or a tuple field's element) the first time it is asked for."""

    def __init__(self, write: Callable[..., str] = json.dumps):
        super().__init__()
        self.write = write

    def __missing__(self, value) -> str:
        text = self[value] = self.write(value)
        return text

    def join(self, values: Iterable) -> str:
        """The body of the JSON array of values: their texts joined by ", "."""
        return ", ".join(map(self.__getitem__, values))


@dataclass(frozen=True)
class Record:
    """An enumerated object, written as one JSON object: its fields in
    declaration order, a field holding None left out, tuples as arrays."""

    def to_json(self) -> str:
        # __dataclass_fields__ keeps declaration order; fields() builds a tuple per call
        return json.dumps({name: v for name in self.__dataclass_fields__ if (v := getattr(self, name)) is not None})

    def json_frame(self) -> list[str]:
        """This line cut at its "[]"s, brackets kept: frame[0] + array 1 + frame[1] + ..."""
        head, *rest = self.to_json().split("[]")
        return [head + "[", *["]" + mid + "[" for mid in rest[:-1]], "]" + rest[-1]]

    @classmethod
    def unchecked(cls, *values):
        """The record of these field values, in declaration order, without the check
        of __post_init__: for code whose fields are valid by construction.  Each field
        is written as the dataclass __init__ writes it; vars(record).update would give
        the record its own dict, which slows every later read and hash of it."""
        record, put = object.__new__(cls), object.__setattr__
        for name, value in zip(cls.__dataclass_fields__, values):
            put(record, name, value)
        return record


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n, and an error on negative arguments."""
    if n < 0 or k < 0:
        raise InputError(f"binomial needs nonnegative arguments, got ({n}, {k})")
    return math.comb(n, k)


def multichoose(n: int, k: int) -> int:
    """n(n+1)...(n+k-1)/k!, for any integer n and k >= 0.

    For n >= 0 it is the number of k-multisets from n symbols, C(n+k-1, k),
    with multichoose(0, 0) = 1 (the empty multiset) and multichoose(0, k)
    = 0 for k > 0.  For n < 0 it is (-1)^k C(-n, k); the multiset form of
    the Lidskii sum takes it at a_i - u_i, which is negative when a_i < u_i.
    """
    if k < 0:
        raise InputError(f"multichoose needs k >= 0, got ({n}, {k})")
    if n > 0:
        return math.comb(n + k - 1, k)
    return (-1) ** k * math.comb(-n, k)


def check_composition(t: Iterable[int]) -> tuple[int, ...]:
    """t as a tuple, once every part is an int and none is negative: the one
    reader of a composition."""
    t = tuple(t)
    if not all_ints(t):  # first: '1' < 0 is itself a TypeError
        raise InputError(f"composition parts must be ints, got {t}")
    if t and min(t) < 0:
        raise InputError(f"composition parts must be nonnegative, got {t}")
    return t


def all_ints(values: Iterable) -> bool:
    """True iff every value is an int; True, 1.0 and '1' are not."""
    return {*map(type, values)} <= {int}


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (parts[0]! * parts[1]! * ...), requiring sum(parts) == n."""
    parts = check_composition(parts)
    if sum(parts) != n:
        raise InputError(f"multinomial parts {parts} do not sum to {n}")
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


def check_parking_level(k: int, r: int, i: int) -> None:
    """Reject (k, r, i) unless it names entry (r, i) of the k-parking
    triangle: ints k >= 1 and 0 <= i <= r."""
    if type(k) is not int or k < 1:
        raise InputError(f"the k-parking triangle needs k >= 1, got {k!r}")
    if not all_ints((r, i)) or not 0 <= i <= r:
        raise InputError(f"the k-parking triangle needs 0 <= i <= r, got i={i!r}, r={r!r}")


def k_parking_number(k: int, r: int, i: int) -> int:
    """Entry (r, i) of the k-parking triangle.

    T_k(r, i) = (r+1)^(i-1) * multichoose(k(r+1), r-i).  At i = 0 the
    (r+1)^(-1) factor divides exactly (the value is a generalized
    Fuss-Catalan number); at i = r the value is (r+1)^(r-1), the number
    of parking functions of length r.
    """
    check_parking_level(k, r, i)
    mc = multichoose(k * (r + 1), r - i)
    if i == 0:
        return exact_div(mc, r + 1)
    return (r + 1) ** (i - 1) * mc


def prefix_sums(parts: Iterable[int]) -> tuple[int, ...]:
    return tuple(accumulate(parts))


def dominates(s: Sequence[int], t: Sequence[int]) -> bool:
    """True iff every prefix sum of s is >= the matching prefix sum of t.

    Both compositions must have the same length and the same total.
    """
    s, t = check_composition(s), check_composition(t)
    if len(s) != len(t):
        raise InputError(f"lengths differ: {len(s)} vs {len(t)}")
    ps, pt = prefix_sums(s), prefix_sums(t)
    if ps and ps[-1] != pt[-1]:
        raise InputError(f"sums differ: {ps[-1]} vs {pt[-1]}")
    return all(map(operator.ge, ps, pt))


def capped_compositions(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The weak compositions c of total with c_j <= caps[j], lex decreasing;
    caps (total,) * k gives every weak composition of total into k parts.

    An odometer: each c puts as much as fits as early as it can after the
    rightmost p whose c_p > 0 can move one unit into the room after p.  The
    fill stops when no unit is left, and the search for p zeroes each
    position it passes, so every position after the fill is already 0."""
    total, *caps = check_composition((total, *caps))  # the total and each cap: nonnegative ints
    size = len(caps)
    room = [*accumulate(reversed(caps), initial=0)][::-1]  # room[p]: the most positions p.. hold
    if total > room[0]:
        return
    c, p, left = [0] * size, 0, total  # fill positions p.. with `left`
    while True:
        while left:
            c[p] = fill = min(caps[p], left)
            left -= fill
            p += 1
        yield tuple(c)
        p, left = size - 1, 0  # left: what positions p+1.. held
        while p >= 0 and not (c[p] and left < room[p + 1]):
            left += c[p]
            c[p] = 0
            p -= 1
        if p < 0:
            return
        c[p] -= 1
        p, left = p + 1, left + 1


def monotone_concat(
    lo: Sequence[int], hi: Sequence[int], piece: Callable[[int, int, int], tuple]
) -> Iterator[tuple]:
    """For each weakly increasing x with lo[q] <= x[q] <= hi[q], lex
    increasing, the concatenation piece(0, lo[0], x[0]) + piece(1, x[0],
    x[1]) + ... + piece(q, x[q-1], x[q]) + ... over every position q.

    lo and hi must be nondecreasing, so x = lo comes first when it fits.
    An odometer: raise the rightmost entry below its bound, then reset each
    later entry q to max(that entry, lo[q]), which hi[q] cannot be below.
    It keeps the concatenation of the pieces before each position:
    consecutive x agree up to the entry it raised, so only the pieces from
    that entry on are rebuilt.
    """
    if any(a > b for a, b in zip(lo, hi)):
        return
    size = len(lo)
    if not size:
        yield ()
        return
    x = list(lo)
    prefix = [()] * size  # prefix[q]: the pieces of the positions before q
    p = 0
    while True:
        v = prev = x[p]
        whole = prefix[p] + piece(p, x[p - 1] if p else lo[0], v)
        for q in range(p + 1, size):
            prefix[q] = whole
            w = x[q] = max(v, lo[q])
            whole += piece(q, prev, w)
            prev = w
        yield whole
        p = size - 1
        while p >= 0 and x[p] == hi[p]:
            p -= 1
        if p < 0:
            return
        x[p] += 1


def dominating_compositions(t: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All compositions s with |s| = |t| that dominate t, lex decreasing.

    These are exactly the t-Dyck paths."""
    for _, s in _dominating_steps(t):
        yield tuple(s)


def _dominating_steps(t: Sequence[int]) -> Iterator[tuple[int, list[int]]]:
    """(p, s) for each s of dominating_compositions(t), in its order, with s
    one list changed in place and s_0..s_{p-1} as in the s before (p = 0
    first).  An odometer on s: it starts at (|t|, 0, ..., 0), and each step
    takes the rightmost p < len - 1 with s_p > 0 and P_p(s) > P_p(t) (prefix
    sums through p), lowers s_p by one, puts the rest at p+1 and zeroes
    everything after, so the next step's p is at most p+1.

    A step at p leaves every position before p as it was, so the positions
    it may step from next are a stack: it pops p, keeps p if s_p > 0 and
    P_p(s) > P_p(t) still hold, then pushes p+1 if P_{p+1}(t) < |t|."""
    t = check_composition(t)
    size, total = len(t), sum(t)
    floor = prefix_sums(t)
    s = [0] * size
    if size:
        s[0] = total
    yield 0, s
    # P_q(s) - P_q(t), kept for q on the stack; the last one is 0, so no
    # step starts from the last part
    slack = [total - f for f in floor]
    stack = [0] if size and slack[0] else []
    end = 0  # s[q] == 0 for every q > end
    while stack:
        p = stack.pop()
        s[p] -= 1
        slack[p] -= 1
        s[p + 1] = total - floor[p] - slack[p]
        if end > p + 1:  # an empty slice assignment costs a quarter of the step
            s[p + 2 : end + 1] = [0] * (end - p - 1)
        end = p + 1
        if slack[p] and s[p]:
            stack.append(p)
        if floor[end] < total:
            slack[end] = total - floor[end]
            stack.append(end)
        yield p, s


def count_dominating(t: Sequence[int], labelled: bool = False) -> int:
    """The number of compositions dominating t, without listing them: a
    dynamic program over the running prefix sum.

    With `labelled`, each composition s counts multinomial(|t|; s) times,
    once per way to label its |t| steps 1..|t| ascending inside each part:
    a step of the prefix sum from H to H' then weighs binom(|t| - H, H' - H).
    """
    t = check_composition(t)
    total = sum(t)
    heights = {0: 1}
    floor = 0
    for tj in t:
        floor += tj
        nxt: dict[int, int] = {}
        for h, ways in heights.items():
            for h2 in range(max(h, floor), total + 1):
                step = math.comb(total - h, h2 - h) if labelled else 1
                nxt[h2] = nxt.get(h2, 0) + ways * step
        heights = nxt
    return heights.get(total, 0)

