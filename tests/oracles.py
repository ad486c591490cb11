"""Reference computations that more than one test module checks the library
against.  Each one takes its own route to a count or an object, so it
stays independent of the code it checks."""
from __future__ import annotations

import functools
from typing import Sequence

from flowpoly import graphs as G
from flowpoly import lidskii as L
from flowpoly.combinat import multinomial, prefix_sums, weak_compositions
from flowpoly.gravity import GravityDiagram, out_segments_by_row
from flowpoly.kostant import kostant
from flowpoly.paths import MultiLabeledDyckPath
from flowpoly.unified import TruncatedDiagram, enumerate_truncated


def is_log_concave(seq: Sequence[int]) -> bool:
    """True iff seq[i]^2 >= seq[i-1]*seq[i+1] at every interior index."""
    return all(seq[i] * seq[i] >= seq[i - 1] * seq[i + 1] for i in range(1, len(seq) - 1))


def restrict(g: G.DirectedMultigraph, lo: int, hi: int) -> G.DirectedMultigraph:
    """Induced sub-multigraph on the contiguous range lo..hi, relabelled to
    1..; not validated, since restrictions are only used for their roots."""
    edges = tuple((i - lo + 1, j - lo + 1) for i, j in g.edges if lo <= i and j <= hi)
    return G.DirectedMultigraph(hi - lo + 1, edges)


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


def psi_out_subpartition(d: GravityDiagram) -> tuple[int, ...]:
    """The embedded right endpoints read top row first: the subpartition of
    ((a-1)k-1, ..., 2k-1, k-1) cut out by the rectilinear hull."""
    k = d.k
    rps = [(r - k) * (k - 1) + (r - l) for l, r in out_segments_by_row(d)]
    return tuple(rp for rp in reversed(rps) if rp)


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


@functools.cache
def _caracol_outdegree(n: int, k: int) -> tuple[int, ...]:
    return G.shifted_outdegree(G.caracol_k(n, k))


def completions_by_enumeration(u: TruncatedDiagram) -> int:
    """unified.completions by brute force: test every candidate initial path
    against the shaded region and the segments' dot demands, column by
    column, in place of the hull."""
    n, k, i = u.n, u.k, u.level
    big_n = (k + 1) * (n - k) - 2 - i  # m - n - i
    pt = prefix_sums(_caracol_outdegree(n, k)[:k])
    total = 0
    for p in weak_compositions(big_n, k):
        pp = prefix_sums(p)
        if all(
            pp[j - 1] - pt[j - 1] >= sum(1 for _, l in u.segments if l <= j)
            for j in range(1, k + 1)
        ):
            total += multinomial(big_n, p)
    return total


def standardized_count_enumerated(n: int, k: int, i: int) -> int:
    """unified.standardized_count with the brute-force completions."""
    return sum(completions_by_enumeration(u) for u in enumerate_truncated(n, k, i))
