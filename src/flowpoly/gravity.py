"""Canonical gravity diagrams for the k-caracol and k-multicaracol graphs,
and the bijections onto rational Dyck paths.

A gravity diagram is an equivalence class of line-dot diagrams; the classes
are determined by the multiset of nontrivial segments, and the conventions
below pick one drawing per class and give it a code:

* in-degree, parameters (n, k): dots form a triangular array with
  (j-k)k - 1 dots in column j for j = k+1..n; every nontrivial segment is
  horizontal and ends in column n; longer segments sit in higher rows,
  numbered 1, 2, ... from the top.  x_i counts the segments [j, n], j <= k+i.
* out-degree, parameters (n, k): dots form a trapezoid with k-1+i dots in
  row i, rows numbered 1, 2, ... from the BOTTOM; row i holds one possibly
  trivial segment [l, r] with 1 <= l <= k <= r <= k+i-1, and the pairs
  (r, r-l) weakly increase from bottom to top (trivial rows lowest).
  x_i = (r-k)k + k-l for row i's [l, r], 0 for a trivial row.  A diagram
  lists its nontrivial rows bottom up and leaves its trivial rows out.
* multicaracol out-degree, parameters (a, k): column j carries a-1-j dots
  for j = 0..a-2; every row holds one segment [0, c] wearing one of k
  colours; rows are numbered from the top, ordered by length descending
  and colour ascending on ties.  y_j = (a-2-c)k + colour-1 for row j.

Both caracol codes are the weakly increasing x_1..x_{a-1}, a = n-k, with
x_i <= ki - 1, listed lex increasing by both enumerators; x_i is where north
step i+1 of the rational (a, ka-1)-Dyck path that `_path` writes and `_code`
reads crosses (step 1 at x = 0).  xi sends x to y_j = k(a-1)-1 - x_{a-j}.

Every map reads a diagram by one rule: it reads the raw code, requires the
code domain above, and accepts the diagram only when the family's canonical
writer (`_in_diagram`, `_out_diagram`, `_mcar_diagram`) gives it back from
that code; a path is read when its b columns are ints and it dominates rational_shape(a, b).
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from operator import gt, le
from typing import Callable, Iterable, Iterator

from .combinat import ElementTexts, InputError, Record, all_ints, dominates, monotone_concat, rational_catalan
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
# element itself for the records, its JSON text for json_lines and a
# segment's picture row for text_lines.
def _same(x):
    return x


def _code_tops(n: int, k: int) -> list[int]:
    """The bounds x_i <= ki - 1 of the caracol code."""
    check_caracol(n, k)
    return [k * i - 1 for i in range(1, n - k)]


def _triples(d: GravityDiagram) -> tuple:
    segs = d.segments
    if {*map(type, segs)} - {tuple} or {*map(len, segs)} - {3} or not all_ints(chain(*segs, d.colors or ())):
        raise InputError(f"segments are (row, left, right) int triples, colours ints, got {segs}, {d.colors}")
    return segs


def _accepted(d: GravityDiagram, n: int, k: int, code: list[int], write: Callable) -> list[int]:
    """code, once it is a caracol code at (n, k) and `write` gives d back from it."""
    tops = _code_tops(n, k)
    if len(code) != len(tops) or not all(map(le, [0, *code], code)) or any(map(gt, code, tops)):
        raise InputError(f"code {code} is no caracol code at n={n}, k={k}")
    if (canonical := write(d.n, d.k, code)) != d:
        raise InputError(f"not the canonical {canonical.kind} diagram of its code {code}")
    return code


# ---------------------------------------------------------------------------
# in-degree diagrams


def enumerate_in_gravity(n: int, k: int) -> Iterator[GravityDiagram]:
    """Canonical in-degree diagrams for the (n, k) caracol graph, lex increasing in their code."""
    for segs in _in_rows(n, k, _same):
        yield GravityDiagram("in", n, k, segs)


def _in_rows(n: int, k: int, enc: Callable) -> Iterator[tuple]:
    tops = _code_tops(n, k)
    column = [tuple(enc((row + 1, j, n)) for row in range(top))
              for j, top in enumerate(tops, k + 1)]
    return monotone_concat([0] * len(tops), tops, lambda q, low, top: column[q][low:top])


def _in_diagram(n: int, k: int, code: list[int]) -> GravityDiagram:
    """Column k+i takes rows x_{i-1}+1..x_i."""
    segs = [(row, j, n) for j, low, x in zip(range(k + 1, n), [0, *code], code)
            for row in range(low + 1, x + 1)]
    return GravityDiagram("in", n, k, tuple(segs))


# ---------------------------------------------------------------------------
# out-degree diagrams


def enumerate_out_gravity(n: int, k: int) -> Iterator[GravityDiagram]:
    """Canonical out-degree diagrams for the (n, k) caracol graph, lex
    increasing in their code; `segments` keeps the nontrivial rows only."""
    for segs in _out_rows(n, k, _same):
        yield GravityDiagram("out", n, k, segs)


def _out_rows(n: int, k: int, enc: Callable) -> Iterator[tuple]:
    tops = _code_tops(n, k)
    row = [((),) + tuple((enc(_out_row(k, i, x)),) for x in range(1, top + 1))
           for i, top in enumerate(tops, 1)]
    return monotone_concat([0] * len(tops), tops, lambda q, _, x: row[q][x])


def _out_row(k: int, i: int, x: int) -> tuple[int, int, int]:
    """The segment (i, l, r) of out-degree row i whose code is x = (r-k)k + k-l."""
    return i, k - x % k, k + x // k


def _out_diagram(n: int, k: int, code: Iterable[int]) -> GravityDiagram:
    segs = [_out_row(k, i, x) for i, x in enumerate(code, 1) if x]
    return GravityDiagram("out", n, k, tuple(segs))


def _out_code(d: GravityDiagram) -> list[int]:
    """Row i's (r-k)k + k-l, 0 for a row that d leaves out."""
    k = d.k
    a, _ = _family_ab(d.n, k)
    x = {row: (r - k) * k + k - l for row, l, r in _triples(d)}
    return _accepted(d, d.n, k, [x.get(i, 0) for i in range(1, a)], _out_diagram)


# ---------------------------------------------------------------------------
# the bijections onto rational (a, b)-Dyck paths


def _family_ab(n: int, k: int) -> tuple[int, int]:
    check_caracol(n, k)
    a = n - k
    return a, k * a - 1


def _path(n: int, k: int, code: list[int]) -> TDyckPath:
    """The path whose north steps cross at x = 0 and at the code's x_i; a caracol code
    gives a rational Dyck path, so it is built unchecked."""
    a, b = _family_ab(n, k)
    steps = [1] + [0] * (b - 1)
    for x in code:
        steps[x] += 1
    return TDyckPath.unchecked(tuple(steps), rational_shape(a, b))


def _code(path: TDyckPath, n: int, k: int) -> list[int]:
    """The crossings x_i of north steps i+1 of a rational (a, b)-Dyck path."""
    a, b = _family_ab(n, k)
    s = path.shape
    if len(s) != b or not all_ints(s) or sum(s) != a or not dominates(s, rational_shape(a, b)):
        raise InputError(f"path is not an ({a},{b})-Dyck path")
    heights = list(accumulate(s))  # x_i: the columns ending at height <= i
    return [bisect_right(heights, i) for i in range(1, a)]


def psi_in(d: GravityDiagram) -> TDyckPath:
    """Rotate an in-degree diagram onto its rational (a, b)-Dyck path: the
    q segments, longest first, occupy the first q grid columns, and the
    column holding segment [j, n] has its east step at height j - k."""
    n, k = d.n, d.k
    js = sorted([j for _, j, _ in _triples(d)])
    code = [bisect_right(js, k + i) for i in range(1, _family_ab(n, k)[0])]  # x_i: the [j, n] with j <= k+i
    return _path(n, k, _accepted(d, n, k, code, _in_diagram))


def psi_in_inverse(path: TDyckPath, n: int, k: int) -> GravityDiagram:
    """The in-degree diagram of the path's code."""
    return _in_diagram(n, k, _code(path, n, k))


def psi_out(d: GravityDiagram) -> TDyckPath:
    """Embed each row's segment [l, r] with its left endpoint in the grid
    column (r-k)(k-1), so its right endpoint lands on its code x."""
    return _path(d.n, d.k, _out_code(d))


def psi_out_inverse(path: TDyckPath, n: int, k: int) -> GravityDiagram:
    """Row i's segment is the one whose code is the path's x_i."""
    return _out_diagram(n, k, _code(path, n, k))


def in_out_correspondence(ins: Iterable[tuple], outs: Iterable[tuple]) -> tuple[list, list]:
    """Pair the out- and in-diagrams of (diagram, psi path) pairs that share a
    path: the (out, in) pairs in the order of `outs`, and the (diagram, path)
    pairs left unmatched, none exactly when the pairing is perfect."""
    by_path, unmatched = {}, []
    for mapped in ins:
        if by_path.setdefault(mapped[1].shape, mapped) is not mapped:
            unmatched.append(mapped)
    pairs = []
    for d, path in outs:
        partner = by_path.pop(path.shape, None)
        if partner is None:
            unmatched.append((d, path))
        else:
            pairs.append((d, partner[0]))
    return pairs, unmatched + list(by_path.values())


# ---------------------------------------------------------------------------
# multicaracol out-degree diagrams and the projection bijection


def enumerate_out_gravity_mcar(a: int, k: int) -> Iterator[GravityDiagram]:
    """Canonical coloured out-degree diagrams for the (a, k) multicaracol
    graph, lex increasing in their code, y_i >= k(i-1); segments and colours alternate."""
    for both in _mcar_rows(a, k, _same):
        yield GravityDiagram("mcar-out", a, k, both[0::2], both[1::2])


def _mcar_rows(a: int, k: int, enc: Callable) -> Iterator[tuple]:
    check_multicaracol(a, k)
    rows, top = range(1, a), k * (a - 1) - 1
    lows = [k * (i - 1) for i in rows]
    # row i's pairs from its low code on, behind None for the codes it never reads
    row = [(None,) * low + tuple(tuple(map(enc, _mcar_row(a, k, i, y)))
                                 for y in range(low, top + 1))
           for i, low in zip(rows, lows)]
    return monotone_concat(lows, [top] * len(lows), lambda q, _, y: row[q][y])


def _mcar_row(a: int, k: int, i: int, y: int) -> tuple[tuple[int, int, int], int]:
    """The segment and colour of multicaracol row i whose code is y = (a-2-c)k + colour-1."""
    return (i, 0, a - 2 - y // k), y % k + 1


def _mcar_diagram(a: int, k: int, code: list[int]) -> GravityDiagram:
    """Row j's segment and colour from y_j = k(a-1)-1 - x_{a-j}."""
    top = k * (a - 1) - 1
    rows = [_mcar_row(a, k, j, top - x) for j, x in enumerate(reversed(code), 1)]
    return GravityDiagram("mcar-out", a, k, tuple([s for s, _ in rows]), tuple([c for _, c in rows]))


def xi(d: GravityDiagram) -> GravityDiagram:
    """Project a caracol out-degree diagram to a multicaracol one: the first
    k columns collapse to column 0 and a segment starting in column l is
    coloured l."""
    return _mcar_diagram(_family_ab(d.n, d.k)[0], d.k, _out_code(d))


def xi_inverse(d: GravityDiagram) -> GravityDiagram:
    """Stretch each [0, c] of colour l back to [l, k + c], whose code is x = k(c+1) - l."""
    a, k = d.n, d.k
    check_multicaracol(a, k)
    code = [k * (c + 1) - col for (_, _, c), col in zip(_triples(d), d.colors or ())]
    return _out_diagram(a + k, k, _accepted(d, a + k, k, code[::-1], _mcar_diagram))


def count_gravity(n: int, k: int) -> int:
    """The common count of in- and out-degree diagrams, Cat(n-k, k(n-k)-1)."""
    a, b = _family_ab(n, k)
    if b < 1:
        return 1
    return rational_catalan(a, b)


# ---------------------------------------------------------------------------
# JSON and text lines

_ROWS = {"in": _in_rows, "out": _out_rows, "mcar-out": _mcar_rows}


def _rows(kind: str) -> Callable:
    if kind not in _ROWS:
        raise InputError(f"unknown gravity kind {kind!r}; expected {', '.join(_ROWS)}")
    return _ROWS[kind]


def json_lines(kind: str, n: int, k: int) -> Iterator[str]:
    """The `GravityDiagram.to_json` line of each diagram of `kind` ("in",
    "out" or "mcar-out") at (n, k), in the enumerator's order, with no
    record built: the enumerator's piece table holds each element's JSON
    text, and a line joins its pieces' texts inside the line of the
    diagram with no segments, cut at its empty arrays."""
    pieces = _rows(kind)(n, k, ElementTexts().__getitem__)
    if kind != "mcar-out":
        head, tail = GravityDiagram(kind, n, k, ()).json_frame()
        for segs in pieces:
            yield head + ", ".join(segs) + tail
        return
    head, mid, tail = GravityDiagram(kind, n, k, (), ()).json_frame()
    for both in pieces:
        yield head + ", ".join(both[0::2]) + mid + ", ".join(both[1::2]) + tail


def _picture(kind: str, n: int, k: int) -> tuple[str, int, Callable[[int, int, int], str]]:
    """The column header, the number of rows and the row drawer of the
    dots-and-dashes pictures of `kind` at (n, k), once (n, k) names the
    family.  draw(row, lo, hi) is text row `row`, counted from the top,
    holding one segment over the columns lo..hi, or none when hi < lo."""
    if kind == "mcar-out":
        check_multicaracol(n, k)
        first, heights = 0, range(n - 1, 0, -1)
    else:
        a, _ = _family_ab(n, k)
        first, heights = ((k + 1, [k * i - 1 for i in range(1, a + 1)]) if kind == "in"
                          else (1, [min(a - 1, n - j - 1) for j in range(1, n - 1)]))
    cols = [*zip(range(first, first + len(heights)), heights)]

    def draw(row: int, lo: int, hi: int) -> str:
        return "".join(["    " if row > height else "o   " if not lo <= j <= hi else
                        "*---" if j < hi else "*   " for j, height in cols]).rstrip()

    return "".join(f"a{j}".ljust(4) for j, _ in cols).rstrip(), max(heights, default=0), draw


def text_lines(kind: str, n: int, k: int) -> Iterator[str]:
    """The picture of each diagram of `kind` at (n, k), in the enumerator's
    order, with no record built: under the header, the rows of its segments
    top first (out-degree rows are listed bottom up and the trivial ones are
    the lowest), each drawn once in the enumerator's piece table, then the
    rows no segment covers, drawn once per call; a multicaracol picture
    ends in its colours."""
    rows_of = _rows(kind)
    header, height, draw = _picture(kind, n, k)
    blank = [draw(row, 0, -1) for row in range(1, height + 1)]
    if kind == "in":
        for segs in rows_of(n, k, lambda seg: draw(*seg)):
            yield "\n".join([header, *segs, *blank[len(segs):]])
    elif kind == "out":
        for segs in rows_of(n, k, lambda seg: draw(height + 1 - seg[0], seg[1], seg[2])):
            yield "\n".join([header, *segs[::-1], *blank[len(segs):]])
    else:
        # a segment's k colours are asked for one after another: they share its
        # row in a table of the last two segments and the k colours
        enc = lru_cache(k + 2)(lambda v: draw(*v) if type(v) is tuple else str(v))
        for both in rows_of(n, k, enc):
            colours = "colors (top row first): " + ",".join(both[1::2])
            yield "\n".join([header, *both[0::2], colours]) if both else header
