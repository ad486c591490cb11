"""Unified diagrams for the caracol family: the diagrams at a general net
flow, truncated level-(k, i) diagrams, the sliding bijection onto
multi-labeled Dyck paths, hulls and completions, orbits of the cyclic
action, the multinomial-simplex partition, and the closed-form volumes and
level-stratified counts they prove.

For the (n, k) caracol graph put r = n-k-1 and N = m-n-i.  A truncated
level-(k, i) diagram is a triple (q, kappa, segments):

* q is the tail path, a composition of i over the r columns k+1..n-1 that
  dominates (0^(r-i), 1^i), i.e. prefix_j(q) >= i + j - r (the forced
  final column n is omitted);
* kappa labels the tail's north steps with 1..i, ascending inside columns;
* segments is a multiset of r-i pairs (h, l): a segment from column l into
  column k+h, trivial ones stored as (0, k).  Column k+j of the grid offers
  r - i + prefix_j(q) - j dots, which caps #{segments with h >= j}.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator, Sequence

from .combinat import (
    InputError,
    binomial,
    dominating_compositions,
    k_parking_number,
    multinomial,
    prefix_sums,
    rational_catalan,
    weak_compositions,
)
from .graphs import DirectedMultigraph, caracol_k, check_netflow, shifted_outdegree
from .gravity import MalformedDiagram
from .kostant import integral_flows
from .paths import MultiLabeledDyckPath, _column_label_sets


# ---------------------------------------------------------------------------
# unified diagrams at general net flow


def unified_diagrams(
    g: DirectedMultigraph, a: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[int, ...]]]:
    """Materialize (shape, sigma, alpha, gamma) quadruples.

    sigma and alpha are per-column tuples (permutation labels ascending,
    net-flow labels in 1..a_j); gamma is an integral flow realizing one
    vector partition of (s - t, 0).  There are lidskii.volume(g, a) of
    them; intended for desk-scale cross-checks of that count.
    """
    t = shifted_outdegree(g)
    a = check_netflow(g, a)
    q = g.num_edges - g.n
    for s in dominating_compositions(t):
        if any(aj == 0 and sj for aj, sj in zip(a, s)):
            continue
        shifted = tuple(si - ti for si, ti in zip(s, t)) + (0,)
        gammas = list(integral_flows(g, shifted))
        if not gammas:
            continue
        alphas = _netflow_labelings(a, s)
        for sigma in _column_label_sets(tuple(range(1, q + 1)), s):
            for alpha in alphas:
                for gamma in gammas:
                    yield s, sigma, alpha, gamma


def _netflow_labelings(
    a: Sequence[int], s: Sequence[int]
) -> list[tuple[tuple[int, ...], ...]]:
    cols: list[list[tuple[int, ...]]] = []
    for aj, sj in zip(a, s):
        options = [()]
        for _ in range(sj):
            options = [tup + (v,) for tup in options for v in range(1, aj + 1)]
        cols.append([tuple(o) for o in options])
    out: list[tuple[tuple[int, ...], ...]] = [()]
    for options in cols:
        out = [done + (o,) for done in out for o in options]
    return out


# ---------------------------------------------------------------------------
# truncated level-(k, i) diagrams


@dataclass(frozen=True)
class TruncatedDiagram:
    n: int
    k: int
    level: int
    tail: tuple[int, ...]
    tail_labels: tuple[tuple[int, ...], ...]
    segments: tuple[tuple[int, int], ...]

    @property
    def r(self) -> int:
        return self.n - self.k - 1

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "k": self.k,
                "level": self.level,
                "tail": list(self.tail),
                "tail_labels": [list(c) for c in self.tail_labels],
                "segments": [list(s) for s in self.segments],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TruncatedDiagram":
        d = json.loads(text)
        return cls(
            d["n"],
            d["k"],
            d["level"],
            tuple(d["tail"]),
            tuple(tuple(c) for c in d["tail_labels"]),
            tuple(tuple(s) for s in d["segments"]),
        )


def _segment_multisets(
    k: int, r: int, i: int, tail: Sequence[int]
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Multisets of r-i segments (h, l) obeying the per-column dot caps."""
    caps = [r - i + sum(tail[:j]) - j for j in range(1, r)]
    pool = [(h, l) for h in range(r) for l in range(1, k + 1)]
    for combo in combinations_with_replacement(pool, r - i):
        if all(
            sum(1 for h, _ in combo if h >= j) <= caps[j - 1] for j in range(1, r)
        ):
            yield combo


def enumerate_truncated(n: int, k: int, i: int) -> Iterator[TruncatedDiagram]:
    """All truncated level-(k, i) diagrams; there are T_k(n-k-1, i)."""
    r = n - k - 1
    if not (n > k >= 1):
        raise InputError(f"need n > k >= 1, got n={n}, k={k}")
    if not 0 <= i <= r:
        raise InputError(f"need 0 <= i <= {r}, got {i}")
    for tail in dominating_compositions((0,) * (r - i) + (1,) * i):
        for labels in _column_label_sets(tuple(range(1, i + 1)), tail):
            for segs in _segment_multisets(k, r, i, tail):
                yield TruncatedDiagram(n, k, i, tail, labels, segs)


# ---------------------------------------------------------------------------
# the sliding bijection onto multi-labeled Dyck paths


def theta(u: TruncatedDiagram) -> MultiLabeledDyckPath:
    """Slide each segment's barred label to its right end: (h, l) becomes a
    north step at east position h labeled bar(k-l)."""
    r, k = u.r, u.k
    barred: list[list[int]] = [[] for _ in range(r)]
    for h, l in u.segments:
        barred[h].append(l - k)
    shape = []
    labels = []
    for j in range(r):
        col = tuple(sorted(barred[j])) + u.tail_labels[j]
        labels.append(col)
        shape.append(len(col))
    return MultiLabeledDyckPath(tuple(shape), tuple(labels))


def theta_inverse(m: MultiLabeledDyckPath, n: int, k: int) -> TruncatedDiagram:
    """Strip the barred steps back into segments and keep the rest as the
    labeled tail."""
    r = n - k - 1
    if m.r != r:
        raise MalformedDiagram(f"path size {m.r} does not match r={r}")
    segs = []
    tail = []
    tail_labels = []
    for x, col in enumerate(m.labels):
        cars = tuple(lab for lab in col if lab > 0)
        for lab in col:
            if lab <= 0:
                if not 1 <= lab + k <= k:
                    raise MalformedDiagram(f"label {lab} is out of range")
                segs.append((x, lab + k))
        tail.append(len(cars))
        tail_labels.append(cars)
    i = sum(tail)
    if sorted(lab for col in tail_labels for lab in col) != list(range(1, i + 1)):
        raise MalformedDiagram("car labels must be 1..i, once each")
    return TruncatedDiagram(
        n, k, i, tuple(tail), tuple(tail_labels), tuple(sorted(segs))
    )


# ---------------------------------------------------------------------------
# hulls and completions


def k_hull(u: TruncatedDiagram) -> tuple[int, ...]:
    """The minimal-area completing path: the empty-diagram hull
    (n-k, ..., n-k, 2(n-k-1)-i) bumped by e_l - e_k per segment."""
    n, k, i = u.n, u.k, u.level
    hull = [n - k] * k
    hull[-1] = 2 * (n - k - 1) - i
    for _, l in u.segments:
        hull[l - 1] += 1
        hull[-1] -= 1
    return tuple(hull)


def completions(u: TruncatedDiagram) -> int:
    """Number of ways to complete u to a standardized diagram: labeled
    initial paths, the compositions of m-n-i dominating the hull."""
    hull = k_hull(u)
    return sum(multinomial(sum(hull), d) for d in dominating_compositions(hull))


@functools.cache
def _caracol_outdegree(n: int, k: int) -> tuple[int, ...]:
    """shifted_outdegree(caracol_k(n, k)), built once per (n, k)."""
    return shifted_outdegree(caracol_k(n, k))


def standardized_count(n: int, k: int, i: int) -> int:
    """Number of standardized level-(k, i) diagrams, summed via the hull
    formula; equals k^((k+1)(n-k)-3-i) * T_k(n-k-1, i)."""
    return sum(completions(u) for u in enumerate_truncated(n, k, i))


def standardized_count_formula(n: int, k: int, i: int) -> int:
    exp = (k + 1) * (n - k) - 3 - i
    base = k**exp if k > 1 else 1
    return base * k_parking_number(k, n - k - 1, i)


# ---------------------------------------------------------------------------
# the cyclic action


def cyclic_shift(z: int, u: TruncatedDiagram) -> TruncatedDiagram:
    """Induced action on truncated diagrams: shift each segment's left
    column, keeping everything right of column k fixed."""
    k = u.k
    segs = tuple(sorted((h, (l - 1 - z) % k + 1) for h, l in u.segments))
    return TruncatedDiagram(u.n, u.k, u.level, u.tail, u.tail_labels, segs)


def truncated_orbits(n: int, k: int, i: int) -> list[list[TruncatedDiagram]]:
    """Partition the truncated diagrams into orbits of the cyclic action."""
    seen: set[TruncatedDiagram] = set()
    orbits = []
    for u in enumerate_truncated(n, k, i):
        if u in seen:
            continue
        orbit = []
        v = u
        while v not in seen:
            seen.add(v)
            orbit.append(v)
            v = cyclic_shift(1, v)
        orbits.append(orbit)
    return orbits


# ---------------------------------------------------------------------------
# partitioning the multinomial simplex


def simplex_partition(
    c0: Sequence[int],
) -> list[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Split the weak compositions of N = sum(c0) into k blocks, one per
    rotation of the base point.

    Block j is cut out by the cyclic window sums starting at position j
    against c_j = c0 + e_{k-1} - e_{j-1} (empty when c_j goes negative).
    Disjointness and full coverage are asserted.
    """
    c0 = tuple(c0)
    k = len(c0)
    if k < 2:
        raise InputError("simplex_partition needs at least 2 parts")
    if any(x < 0 for x in c0):
        raise InputError(f"base point {c0} has negative entries")
    n_total = sum(c0)

    def rotations(j: int) -> tuple[int, ...]:
        c = list(c0)
        if j:
            c[k - 1] += 1
            c[j - 1] -= 1
        return tuple(c)

    def members(j: int, cj: Sequence[int]) -> list[tuple[int, ...]]:
        if min(cj) < 0:
            return []
        out = []
        for d in weak_compositions(n_total, k):
            good = True
            for w in range(k - 1):
                window = [(j + p) % k for p in range(w + 1)]
                if sum(d[p] for p in window) < sum(cj[p] for p in window):
                    good = False
                    break
            if good:
                out.append(d)
        return out

    blocks = [(rotations(j), members(j, rotations(j))) for j in range(k)]
    everything = sorted(d for _, block in blocks for d in block)
    universe = sorted(weak_compositions(n_total, k))
    if everything != universe:
        raise AssertionError(f"blocks of {c0} do not partition the simplex")
    return blocks


# ---------------------------------------------------------------------------
# closed-form volumes and the stratified counts


def volume_closed_form(n: int, k: int, x: int, y: int) -> int:
    """Cat(a,b) k^(b-1) x^b (kx + (n-k)y)^(a-1) with a = n-k, b = ka-1."""
    if not (n > k >= 1):
        raise InputError(f"need n > k >= 1, got n={n}, k={k}")
    if x < 0 or y < 0:
        raise InputError("closed forms are evaluated at nonnegative integers")
    a = n - k
    b = k * a - 1
    cat = 1 if a == 1 else rational_catalan(a, b)
    kpow = k ** (b - 1) if k > 1 else 1
    return cat * kpow * x**b * (k * x + a * y) ** (a - 1)


def volume_closed_form_mcar(a: int, k: int, x: int, y: int) -> int:
    """Cat(a, ka-1) (kx)^(ka-1) (kx + ay)^(a-1)."""
    if a < 1 or k < 1:
        raise InputError(f"need a, k >= 1, got a={a}, k={k}")
    if x < 0 or y < 0:
        raise InputError("closed forms are evaluated at nonnegative integers")
    b = k * a - 1
    cat = 1 if a == 1 else rational_catalan(a, b)
    return cat * (k * x) ** b * (k * x + a * y) ** (a - 1)


def count_unified_stratified(n: int, k: int, x: int, y: int) -> int:
    """|U_G((x^k, y^(n-k), .))| via the level stratification: choose the
    label set for each level, weight by net-flow labels, and count
    standardized diagrams."""
    m = (k + 1) * (n - k) + n - 2
    total = 0
    for i in range(n - k):
        su = standardized_count(n, k, i)
        total += binomial(m - n, i) * x ** (m - n - i) * y**i * su
    return total


def count_unified_stratified_mcar(a: int, k: int, x: int, y: int) -> int:
    """Multicaracol analogue; the truncated diagrams at the source column
    are counted by the k-parking numbers and complete uniquely."""
    mn = (k + 1) * a - 2
    total = 0
    for i in range(a):
        total += (
            binomial(mn, i)
            * (k * x) ** (mn - i)
            * y**i
            * k_parking_number(k, a - 1, i)
        )
    return total


# ---------------------------------------------------------------------------
# rendering


def render_truncated_text(u: TruncatedDiagram) -> str:
    """Figure-style picture: '#' for the shaded region, 'o' for gravity dots,
    '-' for the tail path's east steps, with segments listed below."""
    n, k, i = u.n, u.k, u.level
    r = u.r
    t = _caracol_outdegree(n, k)
    width = n - 1  # the final forced-flat column is omitted
    top = (k + 1) * (n - k) + n - 2 - n - i  # m - n - i
    pt = prefix_sums(t)
    path_height = [top + sum(u.tail[:j]) for j in range(r + 1)]
    rows = []
    max_h = path_height[-1]
    for h in range(max_h - 1, -1, -1):
        cells = []
        for j in range(1, width + 1):
            shade_top = pt[j - 1]
            if h < shade_top:
                cells.append("#")
            elif j <= k:
                cells.append("o" if h < top else " ")
            else:
                cells.append("o" if h < path_height[j - k] else " ")
        rows.append("".join(cells).rstrip())
    lines = [row for row in rows if row]
    lines.append(f"tail path: {u.tail} labels {u.tail_labels}")
    segs = ", ".join(f"[{l},{k + h}]" for h, l in u.segments)
    lines.append(f"segments: {segs}")
    return "\n".join(lines)
