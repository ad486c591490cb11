"""Lattice-path combinatorics: t-Dyck paths, rational Dyck paths, labeled
paths (generalized parking functions), multi-labeled Dyck paths, and the
circular parking process that underlies their count.

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

from .combinat import (
    InputError,
    dominates,
    dominating_compositions,
    multinomial,
    prefix_sums,
)


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

    def area(self) -> int:
        """Squares between the path and the shaded reference region (unused
        by any counting result; exposed for completeness)."""
        ps, pt = prefix_sums(self.shape), prefix_sums(self.reference)
        return sum(a - b for a, b in zip(ps, pt))

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


def rational_row_signature(a: int, b: int) -> tuple[int, ...]:
    """r_i = number of squares in row i of the b x a grid that meet the line
    y = (a/b)x.  The transpose route to rational_shape, kept as a cross-check."""
    if math.gcd(a, b) != 1:
        raise NotCoprime(f"({a}, {b}) are not coprime")
    return tuple(-(-b * i // a) - (b * (i - 1) // a) for i in range(1, a + 1))


def transpose_signature(rows: Sequence[int]) -> tuple[int, ...]:
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
class LabeledTDyckPath:
    path: TDyckPath
    labels: tuple[tuple[int, ...], ...]  # per column, ascending

    def word(self) -> tuple[int, ...]:
        """The permutation read along north steps."""
        return tuple(x for col in self.labels for x in col)


def enumerate_labeled(t: Sequence[int]) -> Iterator[LabeledTDyckPath]:
    """All labeled t-Dyck paths (generalized parking functions PF_t)."""
    t = tuple(t)
    q = sum(t)
    for path in enumerate_t_dyck(t):
        for cols in _column_label_sets(tuple(range(1, q + 1)), path.shape):
            yield LabeledTDyckPath(path, cols)


def count_labeled(t: Sequence[int]) -> int:
    """|PF_t| = sum of multinomial(|t|; s) over t-Dyck paths s."""
    q = sum(t)
    return sum(multinomial(q, s) for s in dominating_compositions(t))


@dataclass(frozen=True)
class MultiLabeledDyckPath:
    """A classical (r x r) Dyck path whose north-step labels use 1..i once
    each plus r-i barred labels (encoded <= 0), ascending within columns."""

    shape: tuple[int, ...]
    labels: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.shape)

    def barred_steps(self) -> list[tuple[int, int]]:
        """(east position x, bar value c) for each barred label, so the label
        is bar(c) on a north step at x."""
        return [
            (x, -lab)
            for x, col in enumerate(self.labels)
            for lab in col
            if lab <= 0
        ]

    def car_steps(self) -> list[tuple[int, int]]:
        """(east position x, car label) for each unbarred label."""
        return [
            (x, lab) for x, col in enumerate(self.labels) for lab in col if lab > 0
        ]

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


def parking_preferences(m: MultiLabeledDyckPath, k: int) -> tuple:
    """Read off the parking preferences encoded by a multi-labeled path:
    a north step at east position x means preference x+1."""
    moto: list[list[int]] = [[] for _ in range(k)]
    for x, c in m.barred_steps():
        moto[c].append(x + 1)
    cars = sorted(m.car_steps(), key=lambda pair: pair[1])
    prefs = tuple(x + 1 for x, _ in cars)
    # model bar(k-1) is listed first, matching the arrival order
    return tuple(tuple(sorted(p)) for p in reversed(moto)), prefs


def circular_park(
    k: int,
    r: int,
    motorcycle_prefs: Sequence[Sequence[int]],
    car_prefs: Sequence[int],
) -> tuple:
    """Park r vehicles on r+1 circular spaces and return the occupancy.

    Groups of identical model-bar(s) motorcycles arrive first (model
    bar(k-1) down to bar(0)), then the cars in order.  A vehicle whose
    preferred space is taken rolls forward cyclically to the next free one.
    Spaces are 1..r+1; the result holds ("m", s) or ("c", j) per space and
    exactly one None.
    """
    if len(motorcycle_prefs) != k:
        raise InputError(f"need one preference multiset per model, got {len(motorcycle_prefs)}")
    total = sum(len(p) for p in motorcycle_prefs) + len(car_prefs)
    if total != r:
        raise InputError(f"{total} vehicles for {r} required")
    spaces: list = [None] * (r + 1)

    def park(pref: int, vehicle) -> None:
        pos = pref - 1
        for _ in range(r + 1):
            if spaces[pos] is None:
                spaces[pos] = vehicle
                return
            pos = (pos + 1) % (r + 1)
        raise AssertionError("no free space, impossible with r vehicles")

    for s in range(k - 1, -1, -1):
        for pref in sorted(motorcycle_prefs[k - 1 - s]):
            park(pref, ("m", s))
    for j, pref in enumerate(car_prefs, start=1):
        park(pref, ("c", j))
    return tuple(spaces)


def shift_preferences(
    z: int,
    r: int,
    motorcycle_prefs: Sequence[Sequence[int]],
    car_prefs: Sequence[int],
) -> tuple:
    """The Z/(r+1)Z action: add z to every preference mod r+1 (spaces 1..r+1)."""
    mod = r + 1

    def roll(p: int) -> int:
        return (p - 1 + z) % mod + 1

    moto = tuple(tuple(sorted(roll(p) for p in prefs)) for prefs in motorcycle_prefs)
    cars = tuple(roll(p) for p in car_prefs)
    return moto, cars
