"""Canonical gravity diagrams for the k-caracol and k-multicaracol graphs,
and the bijections onto rational Dyck paths.

A gravity diagram is an equivalence class of line-dot diagrams; the classes
are determined by the multiset of nontrivial segments, and the conventions
below pick one drawing per class:

* in-degree, parameters (n, k): dots form a triangular array with
  (j-k)k - 1 dots in column j for j = k+1..n; every nontrivial segment is
  horizontal and ends in column n; longer segments sit in higher rows.
  Rows are numbered 1, 2, ... from the top.
* out-degree, parameters (n, k): dots form a trapezoid with k-1+i dots in
  row i, rows numbered 1, 2, ... from the BOTTOM; row i holds one possibly
  trivial segment [l, r] with 1 <= l <= k <= r <= k+i-1, and the pairs
  (r, r-l) weakly increase from bottom to top (trivial rows lowest).
* multicaracol out-degree, parameters (a, k): column j carries a-1-j dots
  for j = 0..a-2; every row holds one segment [0, c] wearing one of k
  colours; rows are numbered from the top, ordered by length descending
  and colour ascending on ties.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .combinat import ElementTexts, InputError, Record, monotone_concat, rational_catalan
from .graphs import check_caracol, check_multicaracol
from .paths import TDyckPath, rational_shape


@dataclass(frozen=True)
class GravityDiagram(Record):
    """kind is "in", "out" or "mcar-out"; n holds the family's first
    parameter (a for the multicaracol family).  segments are (row, left,
    right) triples; colors align with segments for the multicaracol kind
    and are None for the other two."""

    kind: str
    n: int
    k: int
    segments: tuple[tuple[int, int, int], ...]
    colors: tuple[int, ...] | None = None


# Each enumerator lists the pieces its _*_rows builder concatenates: the
# builder puts enc(element) in its table for each segment and colour, the
# element itself for the records and its JSON text for json_lines.
def _same(x):
    return x


# ---------------------------------------------------------------------------
# in-degree diagrams


def _in_capacity(k: int, col: int) -> int:
    return (col - k) * k - 1


def enumerate_in_gravity(n: int, k: int) -> Iterator[GravityDiagram]:
    """Canonical in-degree diagrams for the (n, k) caracol graph.

    A diagram is a multiset of left endpoints j (each segment is [j, n]);
    with the segments sorted longest first into rows 1, 2, ..., the i-th
    one needs i <= (j_i - k)k - 1 free dots in its leftmost column.
    Encoded as x[j], the number of segments starting in columns k+1..j for
    j = k+1..n-1, so x[j] <= (j-k)k - 1 and column j holds rows
    x[j-1]+1..x[j]; listed by the per-column counts, lex increasing.
    Column j's segments are a slice of its tuple of every (row, j, n) it
    has room for, and each diagram keeps its predecessor's segments in the
    columns before the one whose count went up (combinat.monotone_concat).
    """
    for segs in _in_rows(n, k, _same):
        yield GravityDiagram("in", n, k, segs)


def _in_rows(n: int, k: int, enc: Callable) -> Iterator[tuple]:
    check_caracol(n, k)
    cols = range(k + 1, n)
    caps = [_in_capacity(k, j) for j in cols]
    column = [tuple(enc((row + 1, j, n)) for row in range(cap)) for j, cap in zip(cols, caps)]
    return monotone_concat([0] * len(cols), caps, lambda q, low, top: column[q][low:top])


# ---------------------------------------------------------------------------
# out-degree diagrams


def enumerate_out_gravity(n: int, k: int) -> Iterator[GravityDiagram]:
    """Canonical out-degree diagrams for the (n, k) caracol graph.

    Rows run 1..n-k-1 from the bottom; row i holds [l_i, r_i] with
    l_i in 1..k and k <= r_i <= k+i-1, trivial rows stored as [k, k], and
    (r_i, r_i - l_i) weakly increasing.  Only nontrivial rows are kept in
    `segments`.  Encoded as x_i = (r_i - k)k + (k - l_i) < ik, the crossing
    of psi_out, with x_i = 0 the trivial row; listed lex increasing in x.
    Row i's part of `segments` is looked up by x_i, () for the trivial row,
    and each diagram keeps its predecessor's segments in the rows below the
    one whose crossing went up (combinat.monotone_concat).
    """
    for segs in _out_rows(n, k, _same):
        yield GravityDiagram("out", n, k, segs)


def _out_rows(n: int, k: int, enc: Callable) -> Iterator[tuple]:
    check_caracol(n, k)
    rows = range(1, n - k)
    tops = [k * i - 1 for i in rows]
    row = [((),) + tuple((enc((i, *_out_row(k, x))),) for x in range(1, k * i)) for i in rows]
    return monotone_concat([0] * len(rows), tops, lambda q, _, x: row[q][x])


def _out_row(k: int, x: int) -> tuple[int, int]:
    """The segment [l, r] of an out-degree row whose code is x = (r-k)k + k-l."""
    return k - x % k, k + x // k


def out_segments_by_row(d: GravityDiagram) -> list[tuple[int, int]]:
    """[l, r] per row 1..n-k-1 (bottom up), trivial rows as (k, k); a
    segment in any other row is an InputError."""
    rows = [(d.k, d.k)] * (d.n - d.k - 1)
    for row, l, r in d.segments:
        if not 1 <= row <= len(rows):
            raise InputError(f"segment [{l}, {r}] cannot sit in row {row} of {len(rows)}")
        rows[row - 1] = (l, r)
    return rows


# ---------------------------------------------------------------------------
# the bijections onto rational (a, b)-Dyck paths


def _family_ab(n: int, k: int) -> tuple[int, int]:
    a = n - k
    return a, k * a - 1


def psi_in(d: GravityDiagram) -> TDyckPath:
    """Rotate an in-degree diagram onto its rational (a, b)-Dyck path.

    The q segments, longest first, occupy the first q grid columns; the
    column holding segment [j, n] has its east step at height j - k, and
    the remaining columns sit at full height a.
    """
    if d.kind != "in":
        raise InputError(f"psi_in expects an in-degree diagram, got {d.kind}")
    a, b = _family_ab(d.n, d.k)
    for _, j, r in d.segments:
        if not d.k < j < r == d.n:
            raise InputError(f"segment [{j}, {r}] is not [j, {d.n}] with {d.k} < j < {d.n}")
    heights = [seg[1] - d.k for seg in sorted(d.segments)]
    if len(heights) > b:
        raise InputError("more segments than grid columns")
    heights += [a] * (b - len(heights))
    if any(h2 < h1 for h1, h2 in zip(heights, heights[1:])):
        raise InputError("segment lengths must be sorted")
    shape = tuple(h2 - h1 for h1, h2 in zip([0] + heights, heights))
    return TDyckPath(shape, rational_shape(a, b))


def psi_in_inverse(path: TDyckPath, n: int, k: int) -> GravityDiagram:
    """Segments fill every dot column north of the path: grid column x at
    height h < a recovers the segment [k + h, n]."""
    a, b = _family_ab(n, k)
    if len(path.shape) != b or sum(path.shape) != a:
        raise InputError(f"path is not an ({a},{b})-Dyck path")
    heights = 0
    segs = []
    row = 1
    for sj in path.shape:
        heights += sj
        if heights < a:
            segs.append((row, k + heights, n))
            row += 1
    return GravityDiagram("in", n, k, tuple(segs))


def psi_out(d: GravityDiagram) -> TDyckPath:
    """Embed each row's segment [l, r] with its left endpoint in the grid
    column (r-k)(k-1), so its right endpoint lands on x = (r-k)k + k-l, the
    enumerator's row code; these x, weakly increasing up the rows after a
    first 0, are the crossing x-coordinates of the rational Dyck path."""
    if d.kind != "out":
        raise InputError(f"psi_out expects an out-degree diagram, got {d.kind}")
    a, b = _family_ab(d.n, d.k)
    k = d.k
    crossings = [0]
    for i, (l, r) in enumerate(out_segments_by_row(d), start=1):
        if not 1 <= l <= k <= r < k + i:
            raise InputError(f"segment [{l}, {r}] cannot sit in row {i}")
        crossings.append((r - k) * k + k - l)
    if crossings != sorted(crossings):
        raise InputError("embedded right endpoints must weakly increase")
    shape = tuple(crossings.count(x) for x in range(b))
    return TDyckPath(shape, rational_shape(a, b))


def psi_out_inverse(path: TDyckPath, n: int, k: int) -> GravityDiagram:
    """Row i's segment is the one whose code (_out_row) is the crossing
    x-coordinate of the path's north step i + 1; step 1 crosses at 0."""
    a, b = _family_ab(n, k)
    if len(path.shape) != b or sum(path.shape) != a:
        raise InputError(f"path is not an ({a},{b})-Dyck path")
    crossings = [x for x, sj in enumerate(path.shape) for _ in range(sj)]
    if crossings[0] != 0:
        raise InputError("a rational (a, ka-1)-Dyck path must start north")
    segs = []
    for i, x in enumerate(crossings[1:], start=1):
        if x >= i * k:
            raise InputError(f"crossing {x} cannot sit in row {i}")
        if x:
            segs.append((i, *_out_row(k, x)))
    return GravityDiagram("out", n, k, tuple(segs))


def in_out_correspondence(
    ins: Iterable[GravityDiagram], outs: Iterable[GravityDiagram]
) -> tuple[list[tuple[GravityDiagram, GravityDiagram]], list[GravityDiagram]]:
    """Pair each diagram of `outs` with the one of `ins` that shares its
    rational Dyck path: the (out, in) pairs, and the diagrams left
    unmatched, none exactly when the pairs are a perfect matching."""
    by_path, unmatched = {}, []
    for d in ins:
        if by_path.setdefault(psi_in(d).shape, d) is not d:
            unmatched.append(d)
    pairs = []
    for d in outs:
        partner = by_path.pop(psi_out(d).shape, None)
        if partner is None:
            unmatched.append(d)
        else:
            pairs.append((d, partner))
    return pairs, unmatched + list(by_path.values())


# ---------------------------------------------------------------------------
# multicaracol out-degree diagrams and the projection bijection


def enumerate_out_gravity_mcar(a: int, k: int) -> Iterator[GravityDiagram]:
    """Canonical coloured out-degree diagrams for the (a, k) multicaracol
    graph: rows 1..a-1 from the top, row i holding [0, c_i] with
    c_i <= a-1-i, lengths descending and colours ascending on ties.
    Encoded as x_i = (a-2-c_i)k + colour_i - 1, within k(i-1)..k(a-1)-1;
    listed lex increasing in x, that is by (-c_i, colour_i) row by row.
    Row i contributes the pair (segment, colour) looked up by x_i, and each
    diagram keeps its predecessor's pairs in the rows above the one whose
    code went up (combinat.monotone_concat); segments and colours alternate."""
    for both in _mcar_rows(a, k, _same):
        yield GravityDiagram("mcar-out", a, k, both[0::2], both[1::2])


def _mcar_rows(a: int, k: int, enc: Callable) -> Iterator[tuple]:
    check_multicaracol(a, k)
    rows, top = range(1, a), k * (a - 1) - 1
    lows = [k * (i - 1) for i in rows]
    # row i's pairs from its low code on, behind None for the codes it never reads
    row = [(None,) * low + tuple((enc((i, 0, a - 2 - x // k)), enc(x % k + 1))
                                 for x in range(low, top + 1))
           for i, low in zip(rows, lows)]
    return monotone_concat(lows, [top] * len(lows), lambda q, _, x: row[q][x])


def xi(d: GravityDiagram) -> GravityDiagram:
    """Project a caracol out-degree diagram to a multicaracol one: the first
    k columns collapse to column 0 and a segment starting in column l is
    coloured l."""
    if d.kind != "out":
        raise InputError(f"xi expects an out-degree diagram, got {d.kind}")
    a, k = d.n - d.k, d.k
    rows = out_segments_by_row(d)
    segs = []
    cols = []
    for new_row, (l, r) in enumerate(reversed(rows), start=1):
        segs.append((new_row, 0, r - k))
        cols.append(l)
    return GravityDiagram("mcar-out", a, k, tuple(segs), tuple(cols))


def xi_inverse(d: GravityDiagram) -> GravityDiagram:
    """Stretch each coloured segment [0, c] of colour l back to [l, k + c]."""
    if d.kind != "mcar-out":
        raise InputError(f"xi_inverse expects a multicaracol diagram, got {d.kind}")
    a, k = d.n, d.k
    n = a + k
    segs = []
    for (row, _, c), col in zip(d.segments, d.colors):
        l, r = col, k + c
        car_row = a - row  # top-down back to bottom-up
        if (l, r) != (k, k):
            segs.append((car_row, l, r))
    return GravityDiagram("out", n, k, tuple(sorted(segs)))


def count_gravity(n: int, k: int) -> int:
    """The common count of in- and out-degree diagrams, Cat(n-k, k(n-k)-1)."""
    check_caracol(n, k)
    a, b = _family_ab(n, k)
    if b < 1:
        return 1
    return rational_catalan(a, b)


# ---------------------------------------------------------------------------
# JSON lines

_ROWS = {"in": _in_rows, "out": _out_rows, "mcar-out": _mcar_rows}


def json_lines(kind: str, n: int, k: int) -> Iterator[str]:
    """The `GravityDiagram.to_json` line of each diagram of `kind` ("in",
    "out" or "mcar-out") at (n, k), in the enumerator's order, with no
    record built: the enumerator's piece table holds each element's JSON
    text, and a line joins its pieces' texts inside the line of the
    diagram with no segments, cut at its empty arrays."""
    if kind not in _ROWS:
        raise InputError(f"unknown gravity kind {kind!r}; expected {', '.join(_ROWS)}")
    pieces = _ROWS[kind](n, k, ElementTexts().__getitem__)
    if kind != "mcar-out":
        head, tail = GravityDiagram(kind, n, k, ()).to_json().split("[]")
        head, tail = head + "[", "]" + tail
        for segs in pieces:
            yield head + ", ".join(segs) + tail
        return
    head, mid, tail = GravityDiagram(kind, n, k, (), ()).to_json().split("[]")
    head, mid, tail = head + "[", "]" + mid + "[", "]" + tail
    for both in pieces:
        yield head + ", ".join(both[0::2]) + mid + ", ".join(both[1::2]) + tail


# ---------------------------------------------------------------------------
# text rendering


def render_text(d: GravityDiagram) -> str:
    """Dots-and-dashes picture of a diagram, one text row per diagram row,
    top row first.  Every row holds at most one segment, kept as the span
    (lo, hi) of the columns it covers."""
    if d.kind == "in":
        first, heights = d.k + 1, [_in_capacity(d.k, j) for j in range(d.k + 1, d.n + 1)]
        spans = {row: (l, d.n) for row, l, _ in d.segments}
    elif d.kind == "out":
        rows = d.n - d.k - 1
        first, heights = 1, [min(rows, d.n - j - 1) for j in range(1, d.n - 1)]
        spans = {rows + 1 - row: (l, r) for row, l, r in d.segments}
    else:
        first, heights = 0, list(range(d.n - 1, 0, -1))
        spans = {row: (0, c) for row, _, c in d.segments}
    cols = range(first, first + len(heights))
    lines = ["".join(f"a{j}".ljust(4) for j in cols).rstrip()]
    for row in range(1, max(heights, default=0) + 1):
        lo, hi = spans.get(row, (0, -1))
        lines.append("".join([
            "    " if row > height else
            "o   " if not lo <= j <= hi else
            "*---" if j < hi else "*   "
            for j, height in zip(cols, heights)
        ]).rstrip())
    if d.colors:
        lines.append("colors (top row first): " + ",".join(map(str, d.colors)))
    return "\n".join(lines)
