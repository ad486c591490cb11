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
    _dominating_steps,
    all_ints,
    capped_compositions,
    check_parking_level,
    dominates,
    dominating_compositions,
)


@dataclass(frozen=True)
class TDyckPath(Record):
    """A weak composition dominating a reference shape."""

    shape: tuple[int, ...]
    reference: tuple[int, ...]

    def __post_init__(self):
        if not dominates(self.shape, self.reference):
            raise InputError(f"{self.shape} does not dominate {self.reference}")


def enumerate_t_dyck(t: Sequence[int]) -> Iterator[TDyckPath]:
    """All t-Dyck paths, in the dominance iterator's lex-decreasing order.
    Each shape dominates t by construction, so its record is built unchecked."""
    t = tuple(t)
    for s in dominating_compositions(t):
        yield TDyckPath.unchecked(s, t)


def t_dyck_json_lines(t: Sequence[int]) -> Iterator[str]:
    """The `to_json` lines of enumerate_t_dyck(t), in its order, with no record built.
    A step at p changes s_p and s_{p+1} and leaves only zeros after them, so each line
    keeps the line before up to the text of s_p."""
    t, texts = tuple(t), ElementTexts()
    head, mid, tail = TDyckPath.unchecked((), ()).json_frame()
    tail = mid + texts.join(t) + tail
    size = len(t)
    starts = [len(head)] * size  # starts[q]: where the text of s_q begins in `line`
    line = head
    for p, s in _dominating_steps(t):
        if p + 1 < size:  # the next step's p is at most p + 1
            line = f"{line[: starts[p]]}{texts[s[p]]}, {texts[s[p + 1]]}{', 0' * (size - p - 2)}{tail}"
            starts[p + 1] = starts[p] + len(texts[s[p]]) + 2
        else:  # at most one part: the one line
            line = head + texts.join(s) + tail
        yield line


def t_dyck_text_lines(t: Sequence[int]) -> Iterator[str]:
    """The NE word and the shape of each path of enumerate_t_dyck(t), in its order."""
    for s in dominating_compositions(t):
        yield f"{''.join(['N' * sj + 'E' for sj in s])}  shape={s}"


@functools.lru_cache(maxsize=None, typed=True)  # typed: 2.0 and True never hit the keys 2 and 1
def rational_shape(a: int, b: int) -> tuple[int, ...]:
    """The composition t (length b, sum a) whose t-Dyck paths are exactly the
    rational (a,b)-Dyck paths: t_j = ceil(aj/b) - ceil(a(j-1)/b).

    Both orderings of a and b occur (the k = 1 caracol family uses b = a-1),
    so only coprimality is required.
    """
    if not all_ints((a, b)) or a < 1 or b < 1:
        raise InputError(f"rational_shape needs a, b >= 1, got ({a!r}, {b!r})")
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
            (cols + (chosen,), tuple(x for x in left if x not in chosen) if chosen else left)
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


def enumerate_multilabeled(k: int, r: int, i: int) -> Iterator[MultiLabeledDyckPath]:
    """All k-multi-labeled Dyck paths with car labels 1..i; there are
    k_parking_number(k, r, i) of them."""
    yield from _multilabeled_rows(k, r, i, tuple, MultiLabeledDyckPath)


def multilabeled_json_lines(k: int, r: int, i: int) -> Iterator[str]:
    """The `to_json` lines of enumerate_multilabeled(k, r, i), in its order, with no record built."""
    head, mid, tail = MultiLabeledDyckPath((), ()).json_frame()
    yield from _multilabeled_rows(k, r, i, ElementTexts().join, lambda s, cols: head + s + mid + cols + tail)


def multilabeled_text_lines(k: int, r: int, i: int) -> Iterator[str]:
    """The NE word of each path of enumerate_multilabeled(k, r, i), in its order, labels
    in brackets, barred ones shown as b0, b1, ...: one text per column, cached per listing."""
    cols = ElementTexts(lambda col: "".join([f"N[{lab}]" if lab > 0 else f"N[b{-lab}]" for lab in col]) + "E")
    yield from _multilabeled_rows(k, r, i, tuple, lambda _, labels: "".join(map(cols.__getitem__, labels)))


def _multilabeled_rows(k: int, r: int, i: int, enc: Callable, make: Callable) -> Iterator:
    """make(enc(shape), enc(labels)) for each k-multi-labeled Dyck path, enc once per
    shape and per labeling; enc = tuple keeps each piece as it is.  Per Dyck path it
    walks the car counts c <= shape with |c| = i; each car count's column splits of
    1..i are made once per call, and a column's barred labelings once per size."""
    check_parking_level(k, r, i)
    cars, bars = tuple(range(1, i + 1)), range(1 - k, 1)
    # the free slots sum to r - i, so every one holds a barred label
    barred = functools.cache(lambda free: tuple(combinations_with_replacement(bars, free)))
    splits: dict[tuple[int, ...], list] = {}
    for path in dominating_compositions((1,) * r):
        shape = enc(path)
        for car_counts in capped_compositions(i, path):
            if (car_split := splits.get(car_counts)) is None:
                car_split = _column_label_sets(cars, car_counts)
                if i < r:  # at i = r the car counts are the path, which never recurs
                    splits[car_counts] = car_split
            bar_split = list(product(*map(barred, map(operator.sub, path, car_counts))))
            for car_cols in car_split:
                for barred_cols in bar_split:
                    yield make(shape, enc(tuple(map(operator.add, barred_cols, car_cols))))

