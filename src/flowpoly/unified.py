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

completions(u) depends only on the k-hull, and the hull only on how many
segments start in each column l < k, so standardized_count lists no
diagram: a dynamic program over the columns, with the state (tail steps
placed, segments placed, segments per column l < k), polynomial in n and
independent of the Kostant and Lidskii routes.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import chain, product
from typing import Callable, Iterator, Sequence

from .combinat import (
    ElementTexts,
    InputError,
    Record,
    all_ints,
    binomial,
    check_composition,
    check_parking_level,
    count_dominating,
    dominating_compositions,
    k_parking_number,
    monotone_concat,
    prefix_sums,
)
from .graphs import (
    DirectedMultigraph,
    caracol_k,
    check_caracol,
    check_multicaracol,
    check_netflow,
    shifted_outdegree,
)
from .gravity import count_gravity
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
        # per column, an s_j-tuple of net-flow labels in 1..a_j
        alphas = list(product(*(product(range(1, aj + 1), repeat=sj) for aj, sj in zip(a, s))))
        for sigma in _column_label_sets(tuple(range(1, q + 1)), s):
            for alpha in alphas:
                for gamma in gammas:
                    yield s, sigma, alpha, gamma


# ---------------------------------------------------------------------------
# truncated level-(k, i) diagrams


@dataclass(frozen=True)
class TruncatedDiagram(Record):
    """A truncated level-(k, i) diagram, level = i, accepted when it is built only if
    theta_inverse gives it back from its theta image; so no map of it checks it, and
    the code that writes canonical fields builds it with TruncatedDiagram.unchecked."""

    n: int
    k: int
    level: int
    tail: tuple[int, ...]
    tail_labels: tuple[tuple[int, ...], ...]
    segments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_level(self.n, self.k, self.level)
        segs = self.segments
        if ({*map(type, (self.tail, self.tail_labels, segs))} - {tuple}
                or {*map(type, (*self.tail_labels, *segs))} - {tuple} or {*map(len, segs)} - {2}
                or not all_ints(chain(self.tail, *segs))):
            raise InputError("the tail, its labels and the segments are tuples: "
                             "tail parts are ints, tail labels tuples and segments (h, l) int pairs")
        m = theta(self)  # drops a segment whose h names no column, which so does not come back
        if theta_inverse(m, self.n, self.k) != self:
            raise InputError(f"not the canonical level-{self.level} record of its image {m.labels}")


def _segment_multisets(
    k: int, r: int, i: int, tail: Sequence[int]
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Multisets of r-i segments (h, l) obeying the per-column dot caps,
    as sorted tuples in lex order.  A segment is encoded as x = hk + l - 1;
    the cap of column k+j holds iff the p-th smallest segment, counted
    from 0, has h < j for every p < j - prefix_j(tail).  The codes x are
    weakly increasing, and a table holds each code's one-segment piece."""
    prefix = (0,) + prefix_sums(tail)
    hi = [
        min((j * k - 1 for j in range(1, r) if p < j - prefix[j]), default=r * k - 1)
        for p in range(r - i)
    ]
    pieces = [((x // k, x % k + 1),) for x in range(r * k)]
    return monotone_concat([0] * (r - i), hi, lambda q, _, x: pieces[x])


def _check_level(n: int, k: int, i: int) -> int:
    """r = n-k-1, once (n, k, i) names a level of the caracol graph."""
    check_caracol(n, k)
    r = n - k - 1
    check_parking_level(k, r, i)
    return r


def enumerate_truncated(n: int, k: int, i: int) -> Iterator[TruncatedDiagram]:
    """All truncated level-(k, i) diagrams; there are T_k(n-k-1, i)."""
    yield from _truncated_rows(n, k, i, (tuple,) * 3, partial(TruncatedDiagram.unchecked, n, k, i))


def truncated_json_lines(n: int, k: int, i: int) -> Iterator[str]:
    """The `to_json` lines of enumerate_truncated(n, k, i), in its order, with no record built."""
    head, mid, mid2, end = TruncatedDiagram.unchecked(n, k, i, (), (), ()).json_frame()
    yield from _truncated_rows(n, k, i, (ElementTexts().join,) * 3,
                               lambda q, lab, segs: f"{head}{q}{mid}{lab}{mid2}{segs}{end}")


def truncated_text_lines(n: int, k: int, i: int) -> Iterator[str]:
    """A picture of each diagram of enumerate_truncated(n, k, i), in its order, with no
    record built: '#' for the shaded region, 'o' for gravity dots, top row first, then
    the tail path and the segments.  Column j = 1..n-1 is one strip: shaded up to
    prefix_j(t), dotted up to m - n - i plus the tail steps in the columns k+1..j, and
    blank up to m - n = |t| (zip leaves out column n).  The picture depends on the
    tail alone, so it is drawn once per tail, in the tail's text."""
    shade = prefix_sums(shifted_outdegree(caracol_k(n, k)))  # checks (n, k) as the listing does

    def tail_text(tail: tuple[int, ...]) -> str:
        top = shade[-1] - i
        dots = [top] * k + [top + p for p in prefix_sums(tail)]
        strips = [" " * (shade[-1] - max(s, d)) + "o" * (d - s) + "#" * s for s, d in zip(shade, dots)]
        rows = ("".join(row).rstrip() for row in zip(*strips))
        return "\n".join([*filter(None, rows), f"tail path: {tail} labels "])

    segments = ElementTexts(lambda seg: f"[{seg[1]},{k + seg[0]}]")
    yield from _truncated_rows(n, k, i, (tail_text, str, lambda segs: f"\nsegments: {segments.join(segs)}"),
                               lambda q, lab, segs: f"{q}{lab}{segs}")


def _truncated_rows(n: int, k: int, i: int, encs: tuple[Callable, ...], make: Callable) -> Iterator:
    """make(enc_tail(tail), enc_labels(labels), enc_segs(segments)) for each diagram, each
    piece encoded once per tail, labeling and segment multiset of the tail; encs =
    (tuple,) * 3 keeps each piece as it is."""
    r, (enc_tail, enc_labels, enc_segs) = _check_level(n, k, i), encs
    for tail in dominating_compositions((0,) * (r - i) + (1,) * i):
        multisets = [*map(enc_segs, _segment_multisets(k, r, i, tail))]  # shared by all labels
        labelings = map(enc_labels, _column_label_sets(tuple(range(1, i + 1)), tail))
        tail = enc_tail(tail)
        for labels in labelings:
            for segs in multisets:
                yield make(tail, labels, segs)


# ---------------------------------------------------------------------------
# the sliding bijection onto multi-labeled Dyck paths


def theta(u: TruncatedDiagram) -> MultiLabeledDyckPath:
    """Slide each segment's barred label to its right end: (h, l) becomes a
    north step at east position h labeled bar(k-l)."""
    segs, k = u.segments, u.k
    labels = tuple([(*[l - k for h, l in segs if h == x], *cars)
                    for x, cars in enumerate(u.tail_labels)])
    return MultiLabeledDyckPath(tuple(map(len, labels)), labels)


def theta_inverse(m: MultiLabeledDyckPath, n: int, k: int) -> TruncatedDiagram:
    """Strip the barred steps back into segments and keep the rest as the
    labeled tail; a column's labels ascend, so its barred ones come first."""
    check_caracol(n, k)
    r, labels = n - k - 1, m.labels
    if ({*map(type, labels)} - {tuple} or not all_ints(chain(m.shape, *labels))
            or m.r != r or tuple(map(len, labels)) != m.shape):
        raise InputError(f"a path at r={r} has {r} columns, each with one label per north step, all ints")
    segs, tail_labels, height = [], [], 0
    for x, col in enumerate(labels):
        height += len(col)
        if height <= x or height > r:
            raise InputError(f"{m.shape} does not dominate (1^{r}): it is no Dyck path")
        if col and (col[0] <= -k or len(col) > 1 and list(col) != sorted(col)):
            raise InputError(f"column {x + 1} needs ascending labels above {-k}, got {col}")
        if cut := bisect_right(col, 0):
            segs += [(x, lab + k) for lab in col[:cut]]
            col = col[cut:]
        tail_labels.append(col)
    tail = tuple(map(len, tail_labels))
    i = sum(tail)
    if sorted(chain.from_iterable(tail_labels)) != list(range(1, i + 1)):
        raise InputError("car labels must be 1..i, once each")
    return TruncatedDiagram.unchecked(n, k, i, tail, tuple(tail_labels), tuple(segs))


# ---------------------------------------------------------------------------
# hulls and completions


def k_hull(u: TruncatedDiagram) -> tuple[int, ...]:
    """The minimal-area completing path: the empty-diagram hull
    (n-k, ..., n-k, 2(n-k-1)-i) bumped by e_l - e_k per segment."""
    low = [0] * (u.k - 1)
    for _, l in u.segments:
        if l < u.k:
            low[l - 1] += 1
    return _hull(u.n, u.k, u.level, low)


def _hull(n: int, k: int, i: int, low: Sequence[int]) -> tuple[int, ...]:
    """k_hull of a level-i diagram with low[l-1] segments from column l < k;
    a segment from column k leaves the hull as it is."""
    return tuple(n - k + c for c in low) + (2 * (n - k - 1) - i - sum(low),)


def completions(u: TruncatedDiagram) -> int:
    """Number of ways to complete u to a standardized diagram: labeled
    initial paths, sum of multinomial(|hull|; s) over the compositions s
    dominating the hull."""
    return count_dominating(k_hull(u), labelled=True)


def standardized_count(n: int, k: int, i: int) -> int:
    """Number of standardized level-(k, i) diagrams, the sum of
    completions(u) over the truncated diagrams u, counted without listing
    them; equals k^((k+1)(n-k)-3-i) * T_k(n-k-1, i).

    A dynamic program over the columns h = r-1, ..., 0.  Its state is
    (S, |c|, low): S tail steps placed in columns >= h, so prefix_h(q) =
    i - S; |c| segments placed at heights >= h; low[l-1] of them from
    column l < k, the only ones that move the hull.  Column h adds q_h
    tail steps, weighted by binom(i - S, q_h) label choices, and any
    number of segments from each column l, one multiset per choice; then
    the caps keep S <= r - h (the tail dominates (0^(r-i), 1^i)) and
    |c| <= r - i + (i - S) - h (column k+h's dots).  A finished state
    with S = i and |c| = r - i weighs completions over _hull(low).
    """
    r = _check_level(n, k, i)
    segs = r - i
    states: dict[tuple[int, int, tuple[int, ...]], int] = {(0, 0, (0,) * (k - 1)): 1}
    for h in range(r - 1, -1, -1):
        grown: dict[tuple[int, int, tuple[int, ...]], int] = {}
        for (s, c, low), w in states.items():
            # q tail steps in column h, under the dominance cap S <= r - h
            for q in range(min(i, r - h) - s + 1):
                key = (s + q, c, low)
                grown[key] = grown.get(key, 0) + w * binomial(i - s, q)
        for l in range(k):  # segments (h, l+1), under the dot cap
            states, grown = grown, {}
            for (s, c, low), w in states.items():
                for extra in range(min(segs, segs + i - s - h) - c + 1):
                    bumped = low if l == k - 1 else low[:l] + (low[l] + extra,) + low[l + 1 :]
                    key = (s, c + extra, bumped)
                    grown[key] = grown.get(key, 0) + w
        states = grown
    return sum(
        w * count_dominating(_hull(n, k, i, low), labelled=True)
        for (s, c, low), w in states.items()
        if s == i and c == segs
    )


def standardized_count_formula(n: int, k: int, i: int) -> int:
    exp = (k + 1) * (n - k) - 3 - i
    base = k**exp if k > 1 else 1
    return base * k_parking_number(k, n - k - 1, i)


# ---------------------------------------------------------------------------
# the cyclic action


def cyclic_shift(z: int, u: TruncatedDiagram) -> TruncatedDiagram:
    """Induced action on truncated diagrams: shift each segment's left
    column, keeping everything right of column k fixed."""
    segs = _shifted_segments(z, u.k, u.segments)
    return TruncatedDiagram.unchecked(u.n, u.k, u.level, u.tail, u.tail_labels, segs)


def _shifted_segments(z: int, k: int, segments: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The segment multiset with each left column l moved to (l - 1 - z) mod k + 1, sorted."""
    return tuple(sorted((h, (l - 1 - z) % k + 1) for h, l in segments))


def truncated_orbits(n: int, k: int, i: int) -> list[list[TruncatedDiagram]]:
    """Partition the truncated diagrams into orbits of the cyclic action, each
    listed from its first diagram in enumerate_truncated's order.  The action
    keeps the tail and its labels, so each tail's segment multisets are split
    into orbits once, and each labeling builds each orbit's first record and
    shifts it once per further member."""
    r = _check_level(n, k, i)
    build = partial(TruncatedDiagram.unchecked, n, k, i)
    orbits = []
    for tail in dominating_compositions((0,) * (r - i) + (1,) * i):
        seen: set[tuple[tuple[int, int], ...]] = set()
        firsts = []  # each orbit's first segment multiset and its size
        for segs in _segment_multisets(k, r, i, tail):
            first, size = segs, 0
            while segs not in seen:
                seen.add(segs)
                segs, size = _shifted_segments(1, k, segs), size + 1
            if size:
                firsts.append((first, size))
        for labels in _column_label_sets(tuple(range(1, i + 1)), tail):
            for segs, size in firsts:
                u = build(tail, labels, segs)
                orbits.append([u, *(cyclic_shift(z, u) for z in range(1, size))])
    return orbits


# ---------------------------------------------------------------------------
# partitioning the multinomial simplex


def simplex_partition(
    c0: Sequence[int],
) -> list[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Split the weak compositions of N = sum(c0) into k blocks, one per
    rotation of the base point.

    Block j has the base point c_j = c0 + e_{k-1} - e_{j-1} and holds the d
    whose rotation by j dominates c_j rotated by j, lex decreasing; a c_j
    with a negative part holds nothing.  So block j lists the s dominating
    c_j rotated by j and rotates each back by k - j.  Blocks are listed
    independently, so a d may land in two; `verify simplex` checks that
    each lands in exactly one.
    """
    c0 = check_composition(c0)
    k = len(c0)
    if k < 2:
        raise InputError("simplex_partition needs at least 2 parts")
    up = c0[:-1] + (c0[-1] + 1,)  # c0 + e_{k-1}
    bases = [c0] + [up[: j - 1] + (up[j - 1] - 1,) + up[j:] for j in range(1, k)]
    blocks = []
    for j, cj in enumerate(bases):
        rotated = dominating_compositions(cj[j:] + cj[:j]) if min(cj) >= 0 else ()
        blocks.append((cj, sorted((s[k - j:] + s[:k - j] for s in rotated), reverse=True)))
    return blocks


# ---------------------------------------------------------------------------
# closed-form volumes and the stratified counts


def _check_xy(x: int, y: int) -> None:
    """Reject a negative x or y: the block net flow would have a negative
    entry before the sink, where the Lidskii sums are not defined."""
    if x < 0 or y < 0:
        raise InputError(f"block net flows need x, y >= 0, got x={x}, y={y}")


def volume_closed_form(n: int, k: int, x: int, y: int) -> int:
    """Cat(a,b) k^(b-1) x^b (kx + (n-k)y)^(a-1) with a = n-k, b = ka-1."""
    check_caracol(n, k)
    _check_xy(x, y)
    a = n - k
    b = k * a - 1
    kpow = k ** (b - 1) if k > 1 else 1
    return count_gravity(n, k) * kpow * x**b * (k * x + a * y) ** (a - 1)


def volume_closed_form_mcar(a: int, k: int, x: int, y: int) -> int:
    """Cat(a, ka-1) (kx)^(ka-1) (kx + ay)^(a-1)."""
    check_multicaracol(a, k)
    _check_xy(x, y)
    b = k * a - 1
    return count_gravity(a + k, k) * (k * x) ** b * (k * x + a * y) ** (a - 1)


def count_unified_stratified(n: int, k: int, x: int, y: int) -> int:
    """|U_G((x^k, y^(n-k), .))| via the level stratification: choose the
    label set for each level, weight by net-flow labels, and count
    standardized diagrams."""
    check_caracol(n, k)
    _check_xy(x, y)
    m = (k + 1) * (n - k) + n - 2
    total = 0
    for i in range(n - k):
        su = standardized_count(n, k, i)
        total += binomial(m - n, i) * x ** (m - n - i) * y**i * su
    return total


def count_unified_stratified_mcar(a: int, k: int, x: int, y: int) -> int:
    """Multicaracol analogue; the truncated diagrams at the source column
    are counted by the k-parking numbers and complete uniquely."""
    check_multicaracol(a, k)
    _check_xy(x, y)
    mn = (k + 1) * a - 2
    return sum(binomial(mn, i) * (k * x) ** (mn - i) * y**i * k_parking_number(k, a - 1, i)
               for i in range(a))
