"""Kostant partition functions and integral-flow enumeration.

The partition function K_G(v) counts the ways to write v as a nonnegative
integer combination of the positive roots attached to the edge multiset of
G; parallel edges contribute independent copies of the same root, so K_G
agrees with the number of integral flows.  Everything here is exact and
serves as the ground truth the rest of the package is checked against.
"""
from __future__ import annotations

import weakref
from typing import Iterator, Sequence

from .combinat import multichoose, weak_compositions
# SumNonzero is re-exported: callers of kostant() catch it from here
from .graphs import DirectedMultigraph, SumNonzero, alpha_coordinates, check_netflow


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

    Memoized on (root index, residual suffix).  That key names a DFS state
    of g alone, whatever vector led to it, so one memo serves every vector
    asked of this evaluator; it is freed when the evaluator is.  Once the
    memo holds `memo_cap` entries (read at construction), further states
    are computed but not stored, and `uncached` counts them, so a caller
    can tell that the cap was hit.
    """

    memo_cap = 1 << 20

    def __init__(self, g: DirectedMultigraph) -> None:
        self._g = g
        self.memo: dict[tuple[int, tuple[int, ...]], int] = {}
        self.uncached = 0
        self.roots = roots = _root_intervals(g)
        memo, cap = self.memo, self.memo_cap
        me = weakref.proxy(self)  # a strong reference would put self in a cycle

        def count(idx: int, residual: tuple[int, ...]) -> int:
            # columns before the current root's start are now untouchable
            lo = roots[idx][0] - 1 if idx < len(roots) else len(residual)
            if any(residual[:lo]):
                return 0
            if idx == len(roots):
                return 1
            key = (idx, residual[lo:])
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
            if len(memo) < cap:
                memo[key] = total
            else:
                me.uncached += 1
            return total

        self.count = count

    def __del__(self) -> None:
        # `count` reaches itself through its closure cell, a cycle that only
        # the cyclic collector would free; emptying the memo frees it now
        self.memo.clear()

    def __call__(self, v: Sequence[int]) -> int:
        coords = alpha_coordinates(check_netflow(self._g, v))
        if any(c < 0 for c in coords):
            return 0
        return self.count(0, coords)


def kostant(g: DirectedMultigraph, v: Sequence[int]) -> int:
    """K_G(v), the number of vector partitions of v into the roots of G.

    A one-shot KostantEvaluator: its memo starts empty and ends with the call.
    """
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
        if not slots:
            if supply == 0:
                yield from assign(v + 1)
            return
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
    representatives for an arbitrary graph.  The walk follows the Kostant
    DFS and enters only the states that the evaluator counts as nonzero.
    """
    evaluate = KostantEvaluator(g)
    roots = evaluate.roots

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
                    yield (((a, b + 1), c),) + rest if c else rest

    if evaluate(v):
        yield from rec(0, alpha_coordinates(v))
