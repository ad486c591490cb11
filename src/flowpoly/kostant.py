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


def _dfs_roots(g: DirectedMultigraph) -> list[tuple[int, int, int, int]]:
    """The distinct roots in DFS order, as (first, width, multiplicity, drop).

    The edge (i, j) is the root of width j - i covering the simple-root
    columns i..j-1, so its first column is i.  Roots come by first column
    and, within a column, longest first.  `drop` is 0 unless the root is
    the last of its column; then it is the distance to the next root's
    first column (past the last column, after the last root): the number
    of columns the DFS state loses once the root is chosen.
    """
    roots = sorted(
        ((i, j - i, mult) for (i, j), mult in g.distinct_edges()), key=lambda r: (r[0], -r[1])
    )
    starts = [i for i, _, _ in roots[1:]] + [g.num_vertices]
    return [(i, width, mult, nxt - i) for (i, width, mult), nxt in zip(roots, starts)]


def _moves(
    state: tuple[int, ...], width: int, drop: int
) -> tuple[int, Sequence[tuple[int, ...]]]:
    """(c, next states) for a root of `width` and `drop` at `state`, the
    residual from the root's first column on: using the root c, c+1, ...
    times leads to the next states in turn.

    A root that is not the last of its column may be used up to the least
    residual it covers, from 0.  The last one must take all of its first
    column, since no later root touches it, so it has one move or none;
    the other columns it drops have no root of their own and must be zero.
    """
    if not drop:
        head, tail = state[:width], state[width:]
        return 0, [tuple([r - c for r in head]) + tail for c in range(min(head) + 1)]
    c = state[0]
    if width == 1:
        nxt = state[1:]
    elif c > min(state[1:width]):
        return c, ()
    else:
        nxt = tuple([r - c for r in state[1:width]]) + state[width:]
    if any(nxt[: drop - 1]):
        return c, ()
    return c, (nxt[drop - 1 :],)


class KostantEvaluator:
    """K_G(v) for any number of net-flow vectors v on one graph g.

    Depth-first over the distinct roots in `roots` order (_dfs_roots),
    choosing a total count per root; a root of multiplicity mu used c times
    counts multichoose(mu, c) ways.  No later root touches the first column
    of a column's last root, so its count is forced to that column's
    residual (_moves).  Roots come longest first within a column, so the
    forced one is the shortest; where that is the one-column root (i, i+1),
    the forced count always fits, and no state is entered only to find it
    infeasible.  `count(idx, state)` is the number of ways to finish a DFS
    state with roots idx, idx+1, ...; `state` is the residual suffix from
    root idx's first column on (the columns before it are zero), and
    `start(v)` is the state of v at root 0.

    `memos[idx]` memoizes root idx on its state.  That names a DFS state of
    g alone, whatever vector led to it, so the memos serve every vector
    asked of this evaluator.  They hold one entry per distinct state
    entered, with no cap, and are freed with the evaluator.
    """

    def __init__(self, g: DirectedMultigraph) -> None:
        self._g = g
        self.roots = roots = _dfs_roots(g)
        memos: list[dict[tuple[int, ...], int]] = [{} for _ in roots]
        self.memos = memos
        end = len(roots)

        def count(idx: int, state: tuple[int, ...]) -> int:
            if idx == end:
                return 1
            memo = memos[idx]
            hit = memo.get(state)
            if hit is not None:
                return hit
            _, width, mult, drop = roots[idx]
            c, nexts = _moves(state, width, drop)
            total = 0
            for nxt in nexts:
                sub = count(idx + 1, nxt)
                if sub:
                    total += sub if mult == 1 else multichoose(mult, c) * sub
                c += 1
            memo[state] = total
            return total

        self.count = count

    def __del__(self) -> None:
        # `count` reaches itself through its closure cell, a cycle that only
        # the cyclic collector would free; emptying the memos frees them now
        for memo in self.memos:
            memo.clear()

    def start(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """The DFS state of v at the first root, or None when K_G(v) = 0:
        a coordinate of v is negative, or a column before the first root's
        is not zero."""
        coords = alpha_coordinates(check_netflow(self._g, v))
        lo = self.roots[0][0] - 1 if self.roots else len(coords)
        if any(c < 0 for c in coords) or any(coords[:lo]):
            return None
        return coords[lo:]

    def __call__(self, v: Sequence[int]) -> int:
        state = self.start(v)
        return 0 if state is None else self.count(0, state)


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
    call.  It runs from the lighter end of the graph (_lighter_end), with
    each column's last root forced and its roots longest first: K(v_out)
    on caracol(10,2) fills 298 memo entries reversed and 14,747 forward.

    A KostantEvaluator keeps its graph's own orientation, since its memos
    serve every vector asked of it: over the 9,779 terms of
    lidskii.term_sum on caracol(9,3) at the ones flow, whose one pass
    serves all three forms, one forward evaluator fills 76,073 memo
    entries and one on the reversed graph 199,684.
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
    in_slots: list[list[int]] = [[] for _ in range(g.num_vertices + 1)]
    out_slots: list[list[int]] = [[] for _ in range(g.num_vertices + 1)]
    for pos, (i, j) in enumerate(edges):
        out_slots[i].append(pos)
        in_slots[j].append(pos)

    flow = [0] * len(edges)

    def assign(v: int) -> Iterator[tuple[int, ...]]:
        if v > g.n:
            yield tuple(flow)
            return
        supply = a[v - 1] + sum(flow[p] for p in in_slots[v])
        if supply < 0:
            return
        slots = out_slots[v]
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
    follows the Kostant DFS from the lighter end of the graph, from the
    evaluator's start state by the same moves (_moves), and enters only
    the states that the evaluator counts as nonzero; partitions and the
    edges inside each come in the DFS order of the orientation walked
    (_dfs_roots), and edges of reverse(g) are reported as the edges of g
    they stand for.
    """
    walked, w, flipped = _lighter_end(g, v)
    evaluate = KostantEvaluator(walked)
    roots = evaluate.roots
    top = g.num_vertices + 1
    edges = [(top - i - width, top - i) if flipped else (i, i + width) for i, width, _, _ in roots]

    def rec(
        idx: int, state: tuple[int, ...]
    ) -> Iterator[tuple[tuple[tuple[int, int], int], ...]]:
        if idx == len(roots):
            yield ()
            return
        _, width, _, drop = roots[idx]
        c, nexts = _moves(state, width, drop)
        for nxt in nexts:
            if evaluate.count(idx + 1, nxt):
                for rest in rec(idx + 1, nxt):
                    yield ((edges[idx], c),) + rest if c else rest
            c += 1

    state = evaluate.start(w)
    if state is not None:
        yield from rec(0, state)
