"""Kostant partition functions and integral-flow enumeration.

The partition function K_G(v) counts the ways to write v as a nonnegative
integer combination of the positive roots attached to the edge multiset of
G; parallel edges contribute independent copies of the same root, so K_G
agrees with the number of integral flows.  Everything here is exact and
serves as the ground truth the rest of the package is checked against.
"""
from __future__ import annotations

import bisect
from typing import Iterator, Sequence

from .combinat import InputError, multichoose
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


def _pack(residuals: Sequence[int], bits: int) -> int:
    """The residuals as one DFS state of field width `bits`: residual d of
    column p in bits bits*p onwards, stored as d + 2**(bits-1)."""
    guard = 1 << (bits - 1)
    state = 0
    for d in reversed(residuals):
        state = state << bits | d + guard
    return state


_Move = tuple[int, int, int, int, int]


def _root_moves(width: int, drop: int, bits: int) -> _Move:
    """(step, keep, want, low, shift): the masks by which
    KostantEvaluator.count applies a root of `width` and `drop` to states
    of field width `bits`.

    step has a one in each column the root covers, so using the root c
    times subtracts c * step.  The root's first next state is
    state - c * step for c = state & low, and each one after it is one
    step less, with c one more, for as long as its bits under keep are
    want; each is looked up, and entered, as its bits from shift on.

    A root that is not the last of its column may be used from 0 times
    (low = 0) until a residual it covers goes negative, which clears that
    column's guard bit: keep and want are both G * step, the guard bits of
    its columns (G = 2**(bits-1)), and shift is 0.  The last one must take
    all of its first column, since no later root touches it: low = G - 1
    reads that residual, the forced count, and one more use clears the
    column's guard bit, so it has one move or none.  Its keep also takes
    whole fields of the columns it drops, which have no root of their own,
    and want asks those to be G, a zero residual; shift = bits * drop
    drops them.
    """
    # a one in each of the first k columns is (2**(bits*k) - 1) // field
    field = (1 << bits) - 1
    g = 1 << (bits - 1)
    step = ((1 << bits * width) - 1) // field
    if not drop:
        return step, g * step, g * step, 0, 0
    dropped = ((1 << bits * drop) - 1) // field
    return step, g * step | field * dropped, g * (step | dropped), g - 1, bits * drop


class KostantEvaluator:
    """K_G(v) for any number of net-flow vectors v on one graph g.

    Depth-first over the distinct roots in `roots` order (_dfs_roots),
    choosing a total count per root; a root of multiplicity mu used c times
    counts multichoose(mu, c) ways.  No later root touches the first column
    of a column's last root, so its count is forced to that column's
    residual (_root_moves).  Roots come longest first within a column, so
    the forced one is the shortest; where that is the one-column root
    (i, i+1), the forced count always fits, and no state is entered only
    to find it infeasible.  A DFS state at root idx is the residual suffix
    from root idx's first column on (the columns before it are zero);
    `at(coords)` packs the alpha coordinates of v into the state at root 0
    and counts it, and `count(state)` is the number of ways to finish the
    DFS from there, K_G(v).  `count` walks the DFS in one loop on its own
    stack, one frame per state entered and not yet counted, so it nests no
    call per root or per state: each frame holds the next state it will
    look up, and a state is counted once every next state of it is.

    A state is one int: each residual d sits in a field of `bits` bits as
    d + 2**(bits-1), column p in bits bits*p onwards (_pack).  The top bit
    of a field is its guard: residuals only fall, and one that goes
    negative clears it without borrowing from the next field.  `bits` is
    one more than the bit length of `top`, the largest alpha coordinate the
    caller will ask, and is fixed when the evaluator is built, so a memo
    key names one state for the evaluator's life (`at` rejects more).

    `memos[idx]` memoizes root idx on its state.  That names a DFS state of
    g alone, whatever vector led to it, so the memos serve every vector
    asked of this evaluator.  They hold one entry per distinct state
    entered, with no cap, and are freed with the evaluator.  `counted` is
    the memos and, past the last root, the one state left, 0, which
    finishes in one way: `count` looks the next states of root idx up in
    counted[idx + 1].
    """

    def __init__(self, g: DirectedMultigraph, top: int) -> None:
        self.top = top
        self.bits = bits = top.bit_length() + 1
        self.roots = roots = _dfs_roots(g)
        # moves[idx]: the masks of root idx at field width bits
        self.moves = [_root_moves(width, drop, bits) for _, width, _, drop in roots]
        self.memos: list[dict[int, int]] = [{} for _ in roots]
        self.counted = self.memos + [{0: 1}]
        self._mults = [mult for _, _, mult, _ in roots]

    def count(self, state: int) -> int:
        """The number of ways to finish the DFS from the first root at
        `state`: K_G(v) for the state of v at root 0 (see at).  Every root
        walks its next states by its masks (_root_moves), free and forced
        alike, and a next state is entered only when counted[idx + 1]
        does not hold it."""
        counted = self.counted
        hit = counted[0].get(state)
        if hit is not None:
            return hit
        moves, mults = self.moves, self._mults
        # the frames of the states entered and not yet counted, the
        # innermost one in the locals: (root, state, its next state to
        # look up, c for it, the sum so far)
        stack = []
        idx, total = 0, 0
        step, keep, want, low, shift = moves[0]
        c = state & low
        nxt = state - c * step
        below, mult = counted[1], mults[0]
        while True:
            while nxt & keep == want:
                sub = below.get(nxt >> shift)
                if sub is None:
                    stack.append((idx, state, nxt, c, total))
                    idx, state, total = idx + 1, nxt >> shift, 0
                    step, keep, want, low, shift = moves[idx]
                    c = state & low
                    nxt = state - c * step
                    below, mult = counted[idx + 1], mults[idx]
                    continue
                if sub:
                    total += sub if mult == 1 else multichoose(mult, c) * sub
                c += 1
                nxt -= step
            counted[idx][state] = sub = total
            if not stack:
                return total
            idx, state, nxt, c, total = stack.pop()
            step, keep, want, low, shift = moves[idx]
            below, mult = counted[idx + 1], mults[idx]
            if sub:
                total += sub if mult == 1 else multichoose(mult, c) * sub
            c += 1
            nxt -= step

    def at(self, coords: Sequence[int]) -> int:
        """K_G(v) for the net flow v of g with alpha coordinates `coords`
        (graphs.alpha_coordinates): 0 when a coordinate is negative, or a
        column before the first root's is not zero.  Raises InputError when
        a coordinate is above `top`, since its field could not hold it."""
        if max(coords) > self.top:
            raise InputError(
                f"net flow with alpha coordinates {tuple(coords)} has an alpha "
                f"coordinate above {self.top}, the largest this evaluator was built for"
            )
        lo = self.roots[0][0] - 1 if self.roots else len(coords)
        if any(c < 0 for c in coords) or any(coords[:lo]):
            return 0
        return self.count(_pack(coords[lo:], self.bits))


def _lighter_end(
    g: DirectedMultigraph, v: Sequence[int]
) -> tuple[DirectedMultigraph, tuple[int, ...]]:
    """(g, v) as the DFS should walk it.

    K_G(v) = K_{G^r}(v^r) for G^r = reverse(g) and v^r = (-v_N, ..., -v_1),
    and the DFS's first column splits v_1 units over vertex 1's out-edges,
    so the DFS runs on G^r when v_1 > -v_N (the sink absorbs less than
    the source emits) and on g otherwise, ties included.
    """
    v = check_netflow(g, v)
    if v[0] > -v[-1]:
        return reverse(g), tuple(-x for x in reversed(v))
    return g, v


def kostant(g: DirectedMultigraph, v: Sequence[int]) -> int:
    """K_G(v), the number of vector partitions of v into the roots of G.

    A one-shot KostantEvaluator with `top` the largest alpha coordinate of
    v, asked v by the same coordinates, so v is checked and its coordinates
    are computed once: its memos start empty and end with the call.  It
    runs from the lighter end of the graph (_lighter_end), with each
    column's last root forced and its roots longest first: K(v_out) on
    caracol(10,2) fills 298 memo entries reversed and 14,747 forward.

    A KostantEvaluator keeps its graph's own orientation, since its memos
    serve every vector asked of it: over the 9,779 terms of
    lidskii.term_sum on caracol(9,3), whose one table serves every net
    flow and form asked (no weight vanishes at the ones flow), one forward
    evaluator fills 76,073 memo entries and one on the reversed graph
    199,684.
    """
    g, v = _lighter_end(g, v)
    coords = alpha_coordinates(v)
    return KostantEvaluator(g, max(coords)).at(coords)


def integral_flows(
    g: DirectedMultigraph, a: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """All integral a-flows, one flow value per edge (parallel copies distinct),
    in the graph's sorted edge order and lex decreasing.

    One odometer over the vertices' out-edge blocks, which are contiguous
    since the edges are sorted: entering vertex v, after every vertex before
    it is set, puts v's supply (a_v plus its inflow) on its first out-edge;
    moving on takes the deepest vertex's block to its next lex-decreasing
    weak composition and enters every later vertex again, backing up past
    a block that is exhausted.  A vertex with negative supply, or with
    nonzero supply and no out-edge, is exhausted at once.
    """
    a = check_netflow(g, a)
    n = g.n
    # ends[v]: the edges out of vertices 1..v, so v's out-edges are
    # flow[ends[v-1]:ends[v]]
    ends = [bisect.bisect_left(g.edges, (v + 1, 0)) for v in range(n + 1)]
    ins: list[list[int]] = [[] for _ in range(n + 1)]
    for pos, (_, j) in enumerate(g.edges):
        if j <= n:
            ins[j].append(pos)
    flow = [0] * g.num_edges
    v = 1
    while True:
        if v > n:
            yield tuple(flow)
        else:
            lo, hi = ends[v - 1], ends[v]
            supply = a[v - 1] + sum(flow[p] for p in ins[v])
            if supply >= 0 and (lo < hi or not supply):
                flow[lo:hi] = ([supply] + [0] * (hi - lo - 1)) if lo < hi else []
                v += 1
                continue
        # back up to the deepest vertex before v whose block moves on
        v -= 1
        while v:
            lo, hi = ends[v - 1], ends[v]
            p = hi - 2
            while p >= lo and not flow[p]:
                p -= 1
            if p >= lo:
                last = flow[hi - 1]
                flow[p] -= 1
                flow[hi - 1] = 0
                flow[p + 1] = last + 1
                break
            v -= 1
        if not v:
            return
        v += 1
