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

import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .combinat import InputError, dominates, dominating_compositions


class NotCoprime(InputError):
    pass


@dataclass(frozen=True)
class TDyckPath:
    """A weak composition dominating a reference shape."""

    shape: tuple[int, ...]
    reference: tuple[int, ...]

    def __post_init__(self):
        if not dominates(self.shape, self.reference):
            raise InputError(f"{self.shape} does not dominate {self.reference}")

    def word(self) -> str:
        return "".join("N" * sj + "E" for sj in self.shape)

    def to_json(self) -> str:
        return json.dumps({"shape": list(self.shape), "reference": list(self.reference)})

    @classmethod
    def from_json(cls, text: str) -> "TDyckPath":
        d = json.loads(text)
        return cls(tuple(d["shape"]), tuple(d["reference"]))


def enumerate_t_dyck(t: Sequence[int]) -> Iterator[TDyckPath]:
    """All t-Dyck paths, in the dominance iterator's lex-decreasing order."""
    t = tuple(t)
    for s in dominating_compositions(t):
        yield TDyckPath(s, t)


def rational_shape(a: int, b: int) -> tuple[int, ...]:
    """The composition t (length b, sum a) whose t-Dyck paths are exactly the
    rational (a,b)-Dyck paths: t_j = ceil(aj/b) - ceil(a(j-1)/b).

    Both orderings of a and b occur (the k = 1 caracol family uses b = a-1),
    so only coprimality is required.
    """
    if a < 1 or b < 1:
        raise InputError(f"rational_shape needs a, b >= 1, got ({a}, {b})")
    if math.gcd(a, b) != 1:
        raise NotCoprime(f"({a}, {b}) are not coprime")
    heights = [-(-a * j // b) for j in range(b + 1)]
    return tuple(heights[j] - heights[j - 1] for j in range(1, b + 1))


def _column_label_sets(
    pool: Sequence[int], shape: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Split a set of distinct labels into per-column ascending tuples with
    the given sizes."""
    if not shape:
        if not pool:
            yield ()
        return
    first, rest = shape[0], shape[1:]
    for chosen in combinations(pool, first):
        remaining = tuple(x for x in pool if x not in chosen)
        for tail in _column_label_sets(remaining, rest):
            yield (chosen,) + tail


@dataclass(frozen=True)
class MultiLabeledDyckPath:
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
        for sj, col in zip(self.shape, self.labels):
            assert sj == len(col)
            for lab in col:
                out.append(f"N[{lab}]" if lab > 0 else f"N[b{-lab}]")
            out.append("E")
        return "".join(out)

    def to_json(self) -> str:
        return json.dumps({"shape": list(self.shape), "labels": [list(c) for c in self.labels]})

    @classmethod
    def from_json(cls, text: str) -> "MultiLabeledDyckPath":
        d = json.loads(text)
        return cls(tuple(d["shape"]), tuple(tuple(c) for c in d["labels"]))


def _barred_distributions(
    slots: Sequence[int], count: int, values: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Assign `count` barred labels (multisets over -(values-1)..0) to columns
    with the given capacities."""
    if not slots:
        if count == 0:
            yield ()
        return
    cap, rest = slots[0], slots[1:]
    for here in range(min(cap, count), -1, -1):
        # multisets of size `here` over the barred alphabet, ascending
        for combo in combinations(range(here + values - 1), here):
            labs = tuple(
                sorted(c - pos for pos, c in enumerate(combo))
            )  # stars-and-bars decode to a multiset over 0..values-1
            col = tuple(lab - (values - 1) for lab in labs)
            for tail in _barred_distributions(rest, count - here, values):
                yield (col,) + tail


def _capped_compositions(
    total: int, caps: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Weak compositions of `total` with part j at most caps[j]."""
    if not caps:
        if total == 0:
            yield ()
        return
    first, rest = caps[0], caps[1:]
    for here in range(min(first, total), -1, -1):
        for tail in _capped_compositions(total - here, rest):
            yield (here,) + tail


def enumerate_multilabeled(k: int, r: int, i: int) -> Iterator[MultiLabeledDyckPath]:
    """All k-multi-labeled Dyck paths with car labels 1..i; there are
    k_parking_number(k, r, i) of them."""
    if not 0 <= i <= r:
        raise InputError(f"need 0 <= i <= r, got i={i}, r={r}")
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    staircase = (1,) * r
    for path in dominating_compositions(staircase):
        for car_counts in _capped_compositions(i, path):
            free = tuple(s - c for s, c in zip(path, car_counts))
            for car_cols in _column_label_sets(tuple(range(1, i + 1)), car_counts):
                for barred_cols in _barred_distributions(free, r - i, k):
                    labels = tuple(
                        bar + car for bar, car in zip(barred_cols, car_cols)
                    )
                    yield MultiLabeledDyckPath(tuple(path), labels)

