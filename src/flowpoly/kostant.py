"""Kostant partition functions and integral-flow enumeration.

The partition function K_G(v) counts the ways to write v as a nonnegative
integer combination of the positive roots attached to the edge multiset of
G; parallel edges contribute independent copies of the same root, so K_G
agrees with the number of integral flows.  Everything here is exact and
serves as the ground truth the rest of the package is checked against.
"""
from __future__ import annotations

from typing import Iterator, Sequence

from .combinat import multichoose, weak_compositions
from .graphs import DirectedMultigraph, alpha_coordinates, check_netflow, reverse


def _root_intervals(g: DirectedMultigraph) -> list[tuple[int, int, int]]:
    """Distinct roots as (first_column, last_column, multiplicity), sorted.

    The edge (i, j) is the root covering simple-root columns i..j-1.
    """
    return [(i, j - 1, mult) for (i, j), mult in g.distinct_edges()]


class KostantEvaluator:
    """K_G(v) for any number of net-flow vectors v on one graph g.

    Depth-first over distinct roots in (source, target) order, choosing a
    total count per root; a root of multiplicity mu used c times counts
    multichoose(mu, c) ways.  A column no remaining root can touch must
    already have residual zero, which prunes hard.  `count(idx, residual)`
    is the number of ways to finish a DFS state with roots idx, idx+1, ...

    `memos[idx]` memoizes root idx on the residual suffix from that root's
    first column on (the columns before it are zero).  That names a DFS
    state of g alone, whatever vector led to it, so the memos serve every
    vector asked of this evaluator.  They hold one entry per distinct
    state entered, with no cap, and are freed with the evaluator.
    """

    def __init__(self, g: DirectedMultigraph) -> None:
        self._g = g
        self.roots = roots = _root_intervals(g)
        memos: list[dict[tuple[int, ...], int]] = [{} for _ in roots]
        self.memos = memos

        def count(idx: int, residual: tuple[int, ...]) -> int:
            # columns before the current root's start are now untouchable
            lo = roots[idx][0] - 1 if idx < len(roots) else len(residual)
            if any(residual[:lo]):
                return 0
            if idx == len(roots):
                return 1
            memo, key = memos[idx], residual[lo:]
            hit = memo.get(key)
            if hit is not None:
                return hit
            a, b, mult = roots[idx]
            head, mid, tail = residual[: a - 1], residual[a - 1 : b], residual[b:]
            total = 0
            for c in range(min(mid) + 1):
                sub = count(idx + 1, head + tuple(r - c for r in mid) + tail)
                if sub:
                    total += multichoose(mult, c) * sub
            memo[key] = total
            return total

        self.count = count

    def __del__(self) -> None:
        # `count` reaches itself through its closure cell, a cycle that only
        # the cyclic collector would free; emptying the memos frees them now
        for memo in self.memos:
            memo.clear()

    def __call__(self, v: Sequence[int]) -> int:
        coords = alpha_coordinates(check_netflow(self._g, v))
        if any(c < 0 for c in coords):
            return 0
        return self.count(0, coords)


def _lighter_end(
    g: DirectedMultigraph, v: Sequence[int]
) -> tuple[DirectedMultigraph, tuple[int, ...], bool]:
    """(g, v) as the DFS should walk it, and whether that is reversed.

    K_G(v) = K_{G^r}(v^r) for G^r = reverse(g) and v^r = (-v_N, ..., -v_1),
    and the DFS's first column splits v_1 units over vertex 1's out-edges,
    so the walk runs on G^r when v_1 > -v_N (the sink absorbs less than
    the source emits) and on g otherwise, ties included.
    """
    v = check_netflow(g, v)
    if v[0] > -v[-1]:
        return reverse(g), tuple(-x for x in reversed(v)), True
    return g, v, False


def kostant(g: DirectedMultigraph, v: Sequence[int]) -> int:
    """K_G(v), the number of vector partitions of v into the roots of G.

    A one-shot KostantEvaluator: its memos start empty and end with the
    call.  It runs from the lighter end of the graph (_lighter_end): K(v_out)
    on caracol(10,2) fills 523 memo entries reversed and 45,217 forward.

    A KostantEvaluator keeps its graph's own orientation, since its memos
    serve every vector asked of it: over the 9,779 terms of
    lidskii.term_sum on caracol(9,3), one forward evaluator is about 2.4x faster than one on
    the reversed graph.
    """
    g, v, _ = _lighter_end(g, v)
    return KostantEvaluator(g)(v)


def integral_flows(
    g: DirectedMultigraph, a: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """All integral a-flows, one flow value per edge (parallel copies distinct).

    Flows are reported in the graph's sorted edge order.  Vertices are
    processed left to right; at each one the available inflow plus supply
    is split over its out-edges.
    """
    a = check_netflow(g, a)
    edges = g.edges
    out_slots: dict[int, list[int]] = {}
    for pos, (i, _) in enumerate(edges):
        out_slots.setdefault(i, []).append(pos)

    flow = [0] * len(edges)

    def assign(v: int) -> Iterator[tuple[int, ...]]:
        if v > g.n:
            yield tuple(flow)
            return
        supply = a[v - 1] + sum(flow[p] for p, (_, j) in enumerate(edges) if j == v)
        if supply < 0:
            return
        slots = out_slots.get(v, [])
        for comp in weak_compositions(supply, len(slots)):
            for p, f in zip(slots, comp):
                flow[p] = f
            yield from assign(v + 1)
        for p in slots:
            flow[p] = 0

    yield from assign(1)


def vector_partitions(
    g: DirectedMultigraph, v: Sequence[int]
) -> Iterator[tuple[tuple[tuple[int, int], int], ...]]:
    """All partitions of v into the distinct roots of G, as ((edge, count), ...).

    Parallel copies of an edge are not distinguished here: each distinct
    root carries one count.  For simple graphs the number of partitions is
    kostant(g, v); these are the canonical gravity-diagram class
    representatives for an arbitrary graph.  Like kostant(), the walk
    follows the Kostant DFS from the lighter end of the graph and enters
    only the states that the evaluator counts as nonzero; partitions and
    the edges inside each come in the DFS order of the orientation walked,
    and edges of reverse(g) are reported as the edges of g they stand for.
    """
    walked, w, flipped = _lighter_end(g, v)
    evaluate = KostantEvaluator(walked)
    roots = evaluate.roots
    top = g.num_vertices + 1
    edges = [(top - b - 1, top - a) if flipped else (a, b + 1) for a, b, _ in roots]

    def rec(
        idx: int, residual: tuple[int, ...]
    ) -> Iterator[tuple[tuple[tuple[int, int], int], ...]]:
        if idx == len(roots):
            yield ()
            return
        a, b, _ = roots[idx]
        head, mid, tail = residual[: a - 1], residual[a - 1 : b], residual[b:]
        for c in range(min(mid) + 1):
            nxt = head + tuple(r - c for r in mid) + tail
            if evaluate.count(idx + 1, nxt):
                for rest in rec(idx + 1, nxt):
                    yield ((edges[idx], c),) + rest if c else rest

    if evaluate(w):
        yield from rec(0, alpha_coordinates(w))
