"""Reference computations that more than one test module checks the library
against.  Each one takes its own route to a count or an object, so it
stays independent of the code it checks."""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from typing import Iterator, Sequence

from flowpoly import graphs as G
from flowpoly import lidskii as L
from flowpoly.combinat import InputError, Record, dominates, multinomial, prefix_sums
from flowpoly.gravity import GravityDiagram, _out_row, _read
from flowpoly.kostant import KostantEvaluator, kostant
from flowpoly.paths import MultiLabeledDyckPath, TDyckPath, _column_label_sets
from flowpoly.unified import TruncatedDiagram, completions, cyclic_shift, enumerate_truncated


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All weak compositions of `total` into `parts` parts, lex decreasing,
    by recursion on the first part."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def monotone_sequences(lo: Sequence[int], hi: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every weakly increasing x with lo[p] <= x[p] <= hi[p], lex increasing,
    for nondecreasing lo and hi, as bare tuples: raise the rightmost entry
    below its bound, then reset each later entry q to max(that entry, lo[q])."""
    if any(a > b for a, b in zip(lo, hi)):
        return
    x = list(lo)
    size = len(x)
    while True:
        yield tuple(x)
        p = size - 1
        while p >= 0 and x[p] == hi[p]:
            p -= 1
        if p < 0:
            return
        v = x[p] = x[p] + 1
        for q in range(p + 1, size):
            x[q] = max(v, lo[q])


def is_log_concave(seq: Sequence[int]) -> bool:
    """True iff seq[i]^2 >= seq[i-1]*seq[i+1] at every interior index."""
    return all(seq[i] * seq[i] >= seq[i - 1] * seq[i + 1] for i in range(1, len(seq) - 1))


def record_json(obj: Record) -> str:
    """The JSON line of an enumerated object by one json.dumps of its field
    dict, in declaration order, a field holding None left out."""
    return json.dumps({f.name: v for f in dataclasses.fields(obj)
                       if (v := getattr(obj, f.name)) is not None})


def record_from_json(cls: type[Record], text: str) -> Record:
    """The `cls` record of one `to_json` line, each array read as a tuple.
    It takes only exact ints, strs, arrays of them and null as a whole
    field, since a table of element texts keyed by value would give True
    the text of 1; that, and a line that is not a JSON object of the
    record's fields, is an InputError."""
    try:
        fields = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"not a JSON line: {e}") from None
    if type(fields) is not dict:
        raise InputError(f"a {cls.__name__} line is a JSON object, not {text!r}")
    try:  # a field missing or unknown is a TypeError
        return cls(**{name: v if v is None else _tuples(v) for name, v in fields.items()})
    except TypeError as e:
        raise InputError(f"{cls.__name__} fields: {e}") from None


def _tuples(value):
    if isinstance(value, list):
        return tuple(map(_tuples, value))
    if type(value) in (int, str):
        return value
    raise InputError(f"a record holds ints, strs and arrays of them, not {value!r}")


def restrict(g: G.DirectedMultigraph, lo: int, hi: int) -> G.DirectedMultigraph:
    """Induced sub-multigraph on the contiguous range lo..hi, relabelled to
    1..; not validated, since restrictions are only used for their roots."""
    edges = tuple((i - lo + 1, j - lo + 1) for i, j in g.edges if lo <= i and j <= hi)
    return G.DirectedMultigraph(hi - lo + 1, edges)


def at_netflow(evaluate: KostantEvaluator, g: G.DirectedMultigraph, v: Sequence[int]) -> int:
    """K_G(v) asked of an evaluator built on g by the net flow v: v is
    checked against g, and the evaluator is asked its alpha coordinates."""
    return evaluate.at(G.alpha_coordinates(G.check_netflow(g, v)))


def integral_flows_brute_force(
    g: G.DirectedMultigraph, a: Sequence[int]
) -> list[tuple[int, ...]]:
    """Every integral a-flow on g's edges, by trying every assignment of
    0..(the total supply) to each edge, in lex decreasing order; no flow on
    an acyclic graph carries more than the total supply on one edge."""
    top = sum(x for x in a if x > 0)
    flows = []
    for flow in itertools.product(range(top, -1, -1), repeat=g.num_edges):
        net = [0] * g.num_vertices
        for (i, j), f in zip(g.edges, flow):
            net[i - 1] += f
            net[j - 1] -= f
        if net == list(a):
            flows.append(flow)
    return flows


def volume_unit_flow(g: G.DirectedMultigraph) -> int:
    """Volume at net flow (1, 0, ..., 0, -1), by Kostant evaluation of both
    the out-degree and the in-degree vector and by the Lidskii sum; all
    three must agree.  Each value has its own evaluator, so no check shares
    a memo, and kostant() runs K(v_out) on the reversed graph (unless v_out
    is zero) and K(v_in) on g itself, so their equality compares two
    different DFSs."""
    out_count = kostant(g, G.v_out(g))
    in_count = kostant(g, G.v_in(g))
    assert out_count == in_count, f"K(v_out) = {out_count} but K(v_in) = {in_count} on {g}"
    also = L.volume(g, G.unit_flow(g))
    assert also == out_count, f"Lidskii volume {also} but Kostant value {out_count} on {g}"
    return out_count


def out_segments_by_row(d: GravityDiagram) -> list[tuple[int, int]]:
    """[l, r] per row 1..n-k-1 (bottom up), trivial rows as (k, k): each
    row's code from the one reader, written back by the one row writer."""
    return [_out_row(d.k, i, x)[1:] for i, x in enumerate(_read(d, "out"), 1)]


def psi_out_subpartition(d: GravityDiagram) -> tuple[int, ...]:
    """The embedded right endpoints read top row first: the subpartition of
    ((a-1)k-1, ..., 2k-1, k-1) cut out by the rectilinear hull."""
    k = d.k
    rps = [(r - k) * (k - 1) + (r - l) for l, r in out_segments_by_row(d)]
    return tuple(rp for rp in reversed(rps) if rp)


def psi_out_inverse_by_embedding(path: TDyckPath, n: int, k: int) -> GravityDiagram:
    """`gravity.psi_out_inverse` by the embedding's own arithmetic: row i's
    crossing rp, with j = rp // k and d = rp - j(k-1), is the right end of
    the segment [k + j - d, k + j] embedded from grid column j(k-1)."""
    a, b = n - k, k * (n - k) - 1
    if len(path.shape) != b or sum(path.shape) != a:
        raise InputError(f"path is not an ({a},{b})-Dyck path")
    crossings = []
    for x, sj in enumerate(path.shape):
        crossings.extend([x] * sj)
    if crossings[0] != 0:
        raise InputError("a rational (a, ka-1)-Dyck path must start north")
    segs = []
    for i, rp in enumerate(crossings[1:], start=1):
        j = rp // k
        d = rp - j * (k - 1)
        r = k + j
        l = r - d
        if not (1 <= l <= k <= r <= k + i - 1):
            raise InputError(f"crossing {rp} cannot sit in row {i}")
        if (l, r) != (k, k):
            segs.append((i, l, r))
    return GravityDiagram("out", n, k, tuple(segs))


def parking_preferences(m: MultiLabeledDyckPath, k: int) -> tuple:
    """The parking preferences a multi-labeled path encodes: a north step at
    east position x means preference x+1.  Motorcycle models are listed
    from bar(k-1) down to bar(0), their arrival order; cars by label."""
    moto: list[list[int]] = [[] for _ in range(k)]
    cars = []
    for x, col in enumerate(m.labels):
        for lab in col:
            if lab <= 0:
                moto[-lab].append(x + 1)
            else:
                cars.append((lab, x + 1))
    return tuple(tuple(sorted(p)) for p in reversed(moto)), tuple(x for _, x in sorted(cars))


def _caracol_outdegree(n: int, k: int) -> tuple[int, ...]:
    """shifted_outdegree(caracol_k(n, k)) without building the graph: with
    a = n - k, vertices 1..k-1 have out-degree a + 1, vertex k has a (its
    successor is in the tail), vertices k+1..n-1 have 2 and vertex n 1."""
    a = n - k
    return (a,) * (k - 1) + (a - 1,) + (1,) * (a - 1) + (0,)


def completions_by_enumeration(u: TruncatedDiagram) -> int:
    """unified.completions by brute force: test every candidate initial path
    against the shaded region and the segments' dot demands, column by
    column, in place of the hull."""
    return _completions_by_enumeration(u.n, u.k, u.level, tuple(sorted(l for _, l in u.segments)))


@functools.cache
def _completions_by_enumeration(n: int, k: int, i: int, lefts: tuple[int, ...]) -> int:
    """The brute force reads only the segments' left columns, so it runs
    once per multiset of them."""
    big_n = (k + 1) * (n - k) - 2 - i  # m - n - i
    pt = prefix_sums(_caracol_outdegree(n, k)[:k])
    # column j must hold the shaded cells and one dot per segment from l <= j
    need = [pt[j - 1] + sum(1 for l in lefts if l <= j) for j in range(1, k + 1)]
    total = 0
    for p in weak_compositions(big_n, k):
        if all(h >= floor for h, floor in zip(prefix_sums(p), need)):
            total += multinomial(big_n, p)
    return total


def standardized_count_enumerated(n: int, k: int, i: int) -> int:
    """unified.standardized_count with the brute-force completions."""
    return sum(completions_by_enumeration(u) for u in enumerate_truncated(n, k, i))


def standardized_count_listed(n: int, k: int, i: int) -> int:
    """unified.standardized_count by listing every truncated diagram and
    completing each over its k-hull."""
    return sum(completions(u) for u in enumerate_truncated(n, k, i))


def segment_multisets_by_codes(
    k: int, r: int, i: int, tail: Sequence[int]
) -> list[tuple[tuple[int, int], ...]]:
    """unified._segment_multisets by listing the bare code sequences x
    under the same per-position caps and decoding each x = hk + l - 1 on
    its own."""
    prefix = (0,) + prefix_sums(tail)
    hi = [min((j * k - 1 for j in range(1, r) if p < j - prefix[j]), default=r * k - 1)
          for p in range(r - i)]
    return [tuple((x // k, x % k + 1) for x in xs) for xs in monotone_sequences([0] * (r - i), hi)]


def dominating_compositions_by_units(t: Sequence[int]) -> list[tuple[int, ...]]:
    """combinat.dominating_compositions by placing units: x[u], the part
    that holds the u-th unit, dominates t iff it never exceeds the same
    sequence for t, and lex-increasing x is lex-decreasing s."""
    units = [j for j, tj in enumerate(t) for _ in range(tj)]
    listing = []
    for x in monotone_sequences([0] * len(units), units):
        s = [0] * len(t)
        for j in x:
            s[j] += 1
        listing.append(tuple(s))
    return listing


def multilabeled_by_filter(k: int, r: int, i: int) -> list[MultiLabeledDyckPath]:
    """paths.enumerate_multilabeled by trying every weak composition of i
    as the car counts of every Dyck path, in lex decreasing order, and
    keeping those that fit under the path."""
    all_car_counts = list(weak_compositions(i, r))
    listing = []
    for path in dominating_compositions_by_units((1,) * r):
        for car_counts in all_car_counts:
            if any(c > s for c, s in zip(car_counts, path)):
                continue
            barred = list(itertools.product(*(
                itertools.combinations_with_replacement(range(1 - k, 1), s - c)
                for s, c in zip(path, car_counts)
            )))
            for car_cols in _column_label_sets(tuple(range(1, i + 1)), car_counts):
                for barred_cols in barred:
                    labels = tuple(bar + car for bar, car in zip(barred_cols, car_cols))
                    listing.append(MultiLabeledDyckPath(path, labels))
    return listing


def simplex_partition_by_dominance(
    c0: tuple[int, ...],
) -> list[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """unified.simplex_partition by asking `dominates` of each weak
    composition d and each block j whose base point has no negative part:
    does d rotated by j dominate c_j rotated by j?"""
    k = len(c0)
    up = c0[:-1] + (c0[-1] + 1,)
    bases = [c0] + [up[: j - 1] + (up[j - 1] - 1,) + up[j:] for j in range(1, k)]
    simplex = list(weak_compositions(sum(c0), k))
    return [(cj, [d for d in simplex if min(cj) >= 0 and dominates(d[j:] + d[:j], cj[j:] + cj[:j])])
            for j, cj in enumerate(bases)]


def truncated_orbits_by_records(n: int, k: int, i: int) -> list[list[TruncatedDiagram]]:
    """unified.truncated_orbits by shifting each listed record not yet seen
    with `cyclic_shift` until the shift comes back to a record seen."""
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
# per-record pictures, each drawn from the record alone


def render_text(d: GravityDiagram) -> str:
    """gravity.text_lines' picture of one diagram, from its segments: one
    text row per diagram row, top row first.  Every row holds at most one
    segment, kept as the span (lo, hi) of the columns it covers."""
    if d.kind == "in":
        first, heights = d.k + 1, [d.k * i - 1 for i in range(1, d.n - d.k + 1)]
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


def render_truncated_text(u: TruncatedDiagram) -> str:
    """unified.truncated_text_lines' picture of one diagram, with the shade
    from the closed-form out-degrees: column j = 1..n-1 is one strip,
    shaded up to prefix_j(t), dotted up to m - n - i plus the tail steps in
    the columns k+1..j, and blank up to m - n = |t|."""
    k = u.k
    shade = prefix_sums(_caracol_outdegree(u.n, k))
    top = shade[-1] - u.level
    dots = [top] * k + [top + p for p in prefix_sums(u.tail)]
    strips = [" " * (shade[-1] - max(s, d)) + "o" * (d - s) + "#" * s for s, d in zip(shade, dots)]
    rows = ("".join(row).rstrip() for row in zip(*strips))
    lines = [row for row in rows if row]
    lines.append(f"tail path: {u.tail} labels {u.tail_labels}")
    segs = ", ".join(f"[{l},{k + h}]" for h, l in u.segments)
    lines.append(f"segments: {segs}")
    return "\n".join(lines)


def dyck_text(p: TDyckPath) -> str:
    """paths.t_dyck_text_lines' line of one path: its NE word and its shape."""
    return "".join("N" * sj + "E" for sj in p.shape) + f"  shape={p.shape}"


def multilabeled_word(m: MultiLabeledDyckPath) -> str:
    """paths.multilabeled_text_lines' line of one path: its NE word with
    labels, barred ones shown as b0, b1, ..."""
    out = []
    for col in m.labels:
        for lab in col:
            out.append(f"N[{lab}]" if lab > 0 else f"N[b{-lab}]")
        out.append("E")
    return "".join(out)
