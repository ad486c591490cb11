"""Lattice-path combinatorics: t-Dyck paths, rational Dyck paths, and the
k-multi-labeled Dyck paths counted by the k-parking numbers.

A lattice path from (0,0) to (p, q) is stored as its column composition
s = (s_1, ..., s_p): s_j north steps before the j-th east step.  Labels on
north steps are read bottom-to-top, left-to-right; within one column they
are always ascending, so a labeling is determined by the set of labels each
column receives.  Barred labels are encoded as non-positive integers
(bar(c) <-> -c), which makes bar(k-1) < ... < bar(0) < 1 < ... < i native
integer order.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from typing import Callable, Iterator, Sequence

from .combinat import (
    ElementTexts,
    InputError,
    Record,
    check_parking_level,
    dominates,
    dominating_compositions,
    weak_compositions,
)


@dataclass(frozen=True)
class TDyckPath(Record):
    """A weak composition dominating a reference shape."""

    shape: tuple[int, ...]
    reference: tuple[int, ...]

    def __post_init__(self):
        try:
            dominating = dominates(self.shape, self.reference)
        except TypeError:  # an entry that adds to no int; the maps read ints only
            dominating = False
        if not dominating:
            raise InputError(f"{self.shape} does not dominate {self.reference}")

    def word(self) -> str:
        return "".join("N" * sj + "E" for sj in self.shape)


def enumerate_t_dyck(t: Sequence[int]) -> Iterator[TDyckPath]:
    """All t-Dyck paths, in the dominance iterator's lex-decreasing order."""
    t = tuple(t)
    for s in dominating_compositions(t):
        yield TDyckPath(s, t)


def t_dyck_json_lines(t: Sequence[int]) -> Iterator[str]:
    """The `to_json` lines of enumerate_t_dyck(t), in its order, with no record built."""
    t, join = tuple(t), ElementTexts().join
    head, mid, tail = TDyckPath((), ()).json_frame()
    tail = mid + join(t) + tail
    for s in dominating_compositions(t):
        yield head + join(s) + tail


@functools.cache
def rational_shape(a: int, b: int) -> tuple[int, ...]:
    """The composition t (length b, sum a) whose t-Dyck paths are exactly the
    rational (a,b)-Dyck paths: t_j = ceil(aj/b) - ceil(a(j-1)/b).

    Both orderings of a and b occur (the k = 1 caracol family uses b = a-1),
    so only coprimality is required.
    """
    if a < 1 or b < 1:
        raise InputError(f"rational_shape needs a, b >= 1, got ({a}, {b})")
    if math.gcd(a, b) != 1:
        raise InputError(f"({a}, {b}) are not coprime")
    heights = [-(-a * j // b) for j in range(b + 1)]
    return tuple(map(operator.sub, heights[1:], heights))


def _column_label_sets(
    pool: Sequence[int], shape: Sequence[int]
) -> list[tuple[tuple[int, ...], ...]]:
    """Split a set of distinct labels into per-column ascending tuples with
    the given sizes, in lex order of the columns."""
    partial = [((), tuple(pool))]  # (columns so far, labels left)
    for size in shape:
        partial = [
            (cols + (chosen,), tuple(x for x in left if x not in chosen))
            for cols, left in partial
            for chosen in combinations(left, size)
        ]
    return [cols for cols, left in partial if not left]


@dataclass(frozen=True)
class MultiLabeledDyckPath(Record):
    """A classical (r x r) Dyck path whose north-step labels use 1..i once
    each plus r-i barred labels (encoded <= 0), ascending within columns."""

    shape: tuple[int, ...]
    labels: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.shape)

    def word(self) -> str:
        """NE word with labels, barred ones shown as b0, b1, ..."""
        out = []
        for col in self.labels:
            for lab in col:
                out.append(f"N[{lab}]" if lab > 0 else f"N[b{-lab}]")
            out.append("E")
        return "".join(out)


def enumerate_multilabeled(k: int, r: int, i: int) -> Iterator[MultiLabeledDyckPath]:
    """All k-multi-labeled Dyck paths with car labels 1..i; there are
    k_parking_number(k, r, i) of them."""
    yield from _multilabeled_rows(k, r, i, tuple, MultiLabeledDyckPath)


def multilabeled_json_lines(k: int, r: int, i: int) -> Iterator[str]:
    """The `to_json` lines of enumerate_multilabeled(k, r, i), in its order, with no record built."""
    head, mid, tail = MultiLabeledDyckPath((), ()).json_frame()
    yield from _multilabeled_rows(k, r, i, ElementTexts().join, lambda s, cols: head + s + mid + cols + tail)


def _multilabeled_rows(k: int, r: int, i: int, enc: Callable, make: Callable) -> Iterator:
    """make(enc(shape), enc(labels)) for each k-multi-labeled Dyck path, enc once per
    shape and per labeling; enc = tuple keeps each piece as it is."""
    check_parking_level(k, r, i)
    staircase = (1,) * r
    all_car_counts = list(weak_compositions(i, r))
    for path in dominating_compositions(staircase):
        shape = enc(path)
        for car_counts in all_car_counts:
            if any(c > s for c, s in zip(car_counts, path)):
                continue
            # the free slots sum to r - i, so every one holds a barred label
            barred = list(product(*(
                combinations_with_replacement(range(1 - k, 1), s - c)
                for s, c in zip(path, car_counts)
            )))
            for car_cols in _column_label_sets(tuple(range(1, i + 1)), car_counts):
                for barred_cols in barred:
                    yield make(shape, enc(tuple(bar + car for bar, car in zip(barred_cols, car_cols))))

