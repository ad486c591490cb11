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

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

from .combinat import InputError, rational_catalan
from .paths import TDyckPath, rational_shape


class MalformedDiagram(InputError):
    pass


@dataclass(frozen=True)
class GravityDiagram:
    """kind is "in", "out" or "mcar-out"; n holds the family's first
    parameter (a for the multicaracol family).  segments are (row, left,
    right) triples; colors align with segments for the multicaracol kind."""

    kind: str
    n: int
    k: int
    segments: tuple[tuple[int, int, int], ...]
    colors: tuple[int, ...] = ()

    def to_json(self) -> str:
        payload: dict = {
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "segments": [list(s) for s in self.segments],
        }
        if self.kind == "mcar-out":
            payload["colors"] = list(self.colors)
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "GravityDiagram":
        data = json.loads(text)
        return cls(
            data["kind"],
            data["n"],
            data["k"],
            tuple(tuple(s) for s in data["segments"]),
            tuple(data.get("colors", ())),
        )


# ---------------------------------------------------------------------------
# in-degree diagrams


def _in_capacity(n: int, k: int, col: int) -> int:
    return (col - k) * k - 1


def enumerate_in_gravity(n: int, k: int) -> Iterator[GravityDiagram]:
    """Canonical in-degree diagrams for the (n, k) caracol graph.

    A diagram is a multiset of left endpoints j (each segment is [j, n]);
    with the segments sorted longest first into rows 1, 2, ..., the i-th
    one needs i <= (j_i - k)k - 1 free dots in its leftmost column.
    """
    if not (n > k >= 1):
        raise InputError(f"need n > k >= 1, got n={n}, k={k}")

    def rec(col: int, row: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if col > n - 1:
            yield tuple(acc)
            return
        cap = _in_capacity(n, k, col)
        # all segments starting at `col` occupy consecutive rows from `row`
        count = 0
        while True:
            if row + count - 1 <= cap:
                yield from rec(col + 1, row + count, acc + [col] * count)
            else:
                break
            count += 1

    for lefts in rec(k + 1, 1, []):
        segs = tuple((i + 1, j, n) for i, j in enumerate(lefts))
        yield GravityDiagram("in", n, k, segs)


# ---------------------------------------------------------------------------
# out-degree diagrams


def enumerate_out_gravity(n: int, k: int) -> Iterator[GravityDiagram]:
    """Canonical out-degree diagrams for the (n, k) caracol graph.

    Rows run 1..n-k-1 from the bottom; row i holds [l_i, r_i] with
    l_i in 1..k and k <= r_i <= k+i-1, trivial rows stored as [k, k], and
    (r_i, r_i - l_i) weakly increasing.  Only nontrivial rows are kept in
    `segments`.
    """
    if not (n > k >= 1):
        raise InputError(f"need n > k >= 1, got n={n}, k={k}")
    rows = n - k - 1

    def rec(i: int, prev: tuple[int, int], acc: list) -> Iterator[tuple]:
        if i > rows:
            yield tuple(acc)
            return
        for r in range(k, k + i):
            for d in range(max(0, r - k), r):
                if (r, d) >= prev:
                    yield from rec(i + 1, (r, d), acc + [(i, r - d, r)])

    for row_segs in rec(1, (k, 0), []):
        segs = tuple((i, l, r) for i, l, r in row_segs if not (l == k and r == k))
        yield GravityDiagram("out", n, k, segs)


def out_segments_by_row(d: GravityDiagram) -> list[tuple[int, int]]:
    """[l, r] per row 1..n-k-1 (bottom up), trivial rows as (k, k)."""
    rows = d.n - d.k - 1
    by_row = {row: (l, r) for row, l, r in d.segments}
    return [by_row.get(i, (d.k, d.k)) for i in range(1, rows + 1)]


# ---------------------------------------------------------------------------
# the bijections onto rational (a, b)-Dyck paths


def _family_ab(n: int, k: int) -> tuple[int, int]:
    a = n - k
    return a, k * a - 1


def _path_from_crossings(crossings: Sequence[int], a: int, b: int) -> TDyckPath:
    """Crossing x-coordinates X_1 <= ... <= X_a turn into the composition
    s_j = #{r : X_r = j-1}."""
    shape = [0] * b
    for x in crossings:
        shape[x] += 1
    return TDyckPath(tuple(shape), rational_shape(a, b))


def _crossings_from_path(path: TDyckPath) -> list[int]:
    out = []
    x = 0
    for sj in path.shape:
        out.extend([x] * sj)
        x += 1
    return out


def psi_in(d: GravityDiagram) -> TDyckPath:
    """Rotate an in-degree diagram onto its rational (a, b)-Dyck path.

    The q segments, longest first, occupy the first q grid columns; the
    column holding segment [j, n] has its east step at height j - k, and
    the remaining columns sit at full height a.
    """
    if d.kind != "in":
        raise MalformedDiagram(f"psi_in expects an in-degree diagram, got {d.kind}")
    a, b = _family_ab(d.n, d.k)
    heights = [seg[1] - d.k for seg in sorted(d.segments)]
    if len(heights) > b:
        raise MalformedDiagram("more segments than grid columns")
    heights += [a] * (b - len(heights))
    if any(h2 < h1 for h1, h2 in zip(heights, heights[1:])):
        raise MalformedDiagram("segment lengths must be sorted")
    shape = tuple(h2 - h1 for h1, h2 in zip([0] + heights, heights))
    return TDyckPath(shape, rational_shape(a, b))


def psi_in_inverse(path: TDyckPath, n: int, k: int) -> GravityDiagram:
    """Segments fill every dot column north of the path: grid column x at
    height h < a recovers the segment [k + h, n]."""
    a, b = _family_ab(n, k)
    if len(path.shape) != b or sum(path.shape) != a:
        raise MalformedDiagram(f"path is not an ({a},{b})-Dyck path")
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
    """Embed each row's segment with its left endpoint in the grid column
    (r-k)(k-1); the right endpoints, weakly increasing up the rows, are the
    crossing x-coordinates of the associated rational Dyck path."""
    if d.kind != "out":
        raise MalformedDiagram(f"psi_out expects an out-degree diagram, got {d.kind}")
    a, b = _family_ab(d.n, d.k)
    k = d.k
    rps = []
    for l, r in out_segments_by_row(d):
        rps.append((r - k) * (k - 1) + (r - l))
    if any(y < x for x, y in zip(rps, rps[1:])):
        raise MalformedDiagram("embedded right endpoints must weakly increase")
    return _path_from_crossings([0] + rps, a, b)


def psi_out_inverse(path: TDyckPath, n: int, k: int) -> GravityDiagram:
    """Recover row i's segment from the crossing x = rp: with j = rp // k the
    segment is [k + j - d, k + j] where d = rp - j(k-1)."""
    a, b = _family_ab(n, k)
    if len(path.shape) != b or sum(path.shape) != a:
        raise MalformedDiagram(f"path is not an ({a},{b})-Dyck path")
    crossings = _crossings_from_path(path)
    if crossings[0] != 0:
        raise MalformedDiagram("a rational (a, ka-1)-Dyck path must start north")
    segs = []
    for i, rp in enumerate(crossings[1:], start=1):
        j = rp // k
        d = rp - j * (k - 1)
        r = k + j
        l = r - d
        if not (1 <= l <= k <= r <= k + i - 1):
            raise MalformedDiagram(f"crossing {rp} cannot sit in row {i}")
        if (l, r) != (k, k):
            segs.append((i, l, r))
    return GravityDiagram("out", n, k, tuple(segs))


def in_out_correspondence(n: int, k: int) -> list[tuple[GravityDiagram, GravityDiagram]]:
    """Pair each out-degree diagram with the in-degree diagram that shares
    its rational Dyck path; a perfect matching, or an AssertionError."""
    by_path = {psi_in(d).shape: d for d in enumerate_in_gravity(n, k)}
    pairs = [(d, by_path.pop(psi_out(d).shape, None)) for d in enumerate_out_gravity(n, k)]
    if by_path or any(partner is None for _, partner in pairs):
        raise AssertionError(f"the ({n},{k}) correspondence is not a perfect matching")
    return pairs


# ---------------------------------------------------------------------------
# multicaracol out-degree diagrams and the projection bijection


def enumerate_out_gravity_mcar(a: int, k: int) -> Iterator[GravityDiagram]:
    """Canonical coloured out-degree diagrams for the (a, k) multicaracol
    graph: rows 1..a-1 from the top, row i holding [0, c_i] with
    c_i <= a-1-i, lengths descending and colours ascending on ties."""
    if a < 1 or k < 1:
        raise InputError(f"need a, k >= 1, got a={a}, k={k}")
    rows = a - 1

    def rec(i: int, prev: tuple[int, int], acc: list) -> Iterator[tuple]:
        if i > rows:
            yield tuple(acc)
            return
        for c in range(min(a - 1 - i, prev[0]), -1, -1):
            col_lo = prev[1] if c == prev[0] else 1
            for col in range(col_lo, k + 1):
                yield from rec(i + 1, (c, col), acc + [(i, c, col)])

    for rows_out in rec(1, (a - 1, 1), []):
        segs = tuple((i, 0, c) for i, c, _ in rows_out)
        cols = tuple(col for _, _, col in rows_out)
        yield GravityDiagram("mcar-out", a, k, segs, cols)


def xi(d: GravityDiagram) -> GravityDiagram:
    """Project a caracol out-degree diagram to a multicaracol one: the first
    k columns collapse to column 0 and a segment starting in column l is
    coloured l."""
    if d.kind != "out":
        raise MalformedDiagram(f"xi expects an out-degree diagram, got {d.kind}")
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
        raise MalformedDiagram(f"xi_inverse expects a multicaracol diagram, got {d.kind}")
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
    a, b = _family_ab(n, k)
    if b < 1:
        return 1
    return rational_catalan(a, b)


# ---------------------------------------------------------------------------
# text rendering


def render_text(d: GravityDiagram) -> str:
    """Dots-and-dashes picture of a diagram, one text row per diagram row."""
    if d.kind == "in":
        cols = list(range(d.k + 1, d.n + 1))
        heights = {j: _in_capacity(d.n, d.k, j) for j in cols}
        covered = {
            (row, j): True
            for row, l, _ in d.segments
            for j in range(l, d.n + 1)
        }
        depth = heights[d.n]
    elif d.kind == "out":
        rows = d.n - d.k - 1
        cols = list(range(1, d.n - 1))
        heights = {j: rows if j <= d.k else d.n - j - 1 for j in cols}
        covered = {
            (rows + 1 - row, j): True
            for row, l, r in d.segments
            for j in range(l, r + 1)
        }
        depth = rows
    else:
        cols = list(range(0, d.n - 1))
        heights = {j: d.n - 1 - j for j in cols}
        covered = {
            (row, j): True
            for (row, _, c) in d.segments
            for j in range(0, c + 1)
        }
        depth = d.n - 1
    header = "".join(f"a{j}".ljust(4) for j in cols)
    lines = [header.rstrip()]
    for row in range(1, depth + 1):
        cells = []
        for j in cols:
            if row > heights[j]:
                cells.append("    ")
            elif covered.get((row, j)):
                joint = "---" if covered.get((row, j + 1)) and j + 1 in heights else "   "
                cells.append("*" + joint)
            else:
                cells.append("o   ")
        lines.append("".join(cells).rstrip())
    if d.kind == "mcar-out" and d.colors:
        lines.append("colors (top row first): " + ",".join(map(str, d.colors)))
    return "\n".join(lines)
