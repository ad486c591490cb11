"""The generalized Lidskii formulas for flow-polytope volumes and lattice points.

All three formulas sum over the compositions s of m-n dominating the shifted
out-degree vector t, weighting the Kostant value K_G(s-t, 0):

  volume:          multinomial(m-n; s) * a^s
  lattice points:  prod C(a_i + t_i, s_i)            (binomial form)
  lattice points:  prod multichoose(a_i - u_i, s_i)  (multiset form)

In the multiset form u_i is the shifted in-degree of vertex i, which is -1
for the source.  Each weight is a product over the vertices; read from the
sink back, the factor of vertex j is weight(j, r, s_j), with r the part of
m-n left for vertices 1..j, since multinomial(m-n; s) = prod C(r, s_j).

Two routes compute the same sums:

- `volume`, `lattice_points_binomial` and `lattice_points_multiset` sweep
  the vertices once from the sink back to the source (`_sweep`), choosing
  s_j and the flow into j together, so no composition is listed and no
  Kostant value is computed; each state is one int, vertex i's send in
  bit field i, since no send and no sum of sends exceeds m-n;
- `term_sum` lists every dominating s once and evaluates K_G(s-t, 0) for
  each with one KostantEvaluator, term by term.  Neither depends on the
  net flow, so one table of terms serves several net flows at once: each
  value is weighted for every (flow, form) pair asked.  It is the
  independent check of the sweep.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

from .combinat import InputError, binomial, dominating_compositions, multichoose, prefix_sums
from .graphs import DirectedMultigraph, check_netflow, shifted_indegree, shifted_outdegree
from .kostant import KostantEvaluator

FORMS = ("volume", "binomial", "multiset")

# weight(j, r, s_j): the factor of vertex j (1-based) in a term's weight
Weight = Callable[[int, int, int], int]


def _check_netflow(g: DirectedMultigraph, a: Sequence[int]) -> tuple[int, ...]:
    a = check_netflow(g, a)
    if any(x < 0 for x in a[:-1]):
        raise InputError(f"net flow {a} has a negative entry before the sink")
    return a


def _weight(g: DirectedMultigraph, a: Sequence[int], form: str) -> Weight:
    """The per-vertex factor of `form` at net flow a (0^0 = 1)."""
    a = _check_netflow(g, a)
    if form == "volume":
        return lambda j, r, s: math.comb(r, s) * a[j - 1] ** s
    if form == "binomial":
        t = shifted_outdegree(g)
        return lambda j, r, s: binomial(a[j - 1] + t[j - 1], s)
    if form == "multiset":
        u = (-1,) + shifted_indegree(g)
        return lambda j, r, s: multichoose(a[j - 1] - u[j - 1], s)
    raise InputError(f"unknown Lidskii form {form!r}; expected one of {', '.join(FORMS)}")


def _sweep(g: DirectedMultigraph, weight: Weight) -> int:
    """The weighted Lidskii sum as one transfer DP from the sink to the source.

    A term's K_G(s-t, 0) counts the integral flows whose outflow minus
    inflow is s_j - t_j at each j <= n and whose edges into the sink carry
    nothing.  With vertices j+1..n+1 processed, a state is the flow that
    each vertex 1..j already sends into them; `states` maps it to the
    weighted number of ways to reach it.  Vertex j's outflow is then known,
    so choosing s_j fixes its inflow, sent_j + t_j - s_j, which is split
    over its distinct in-roots one root at a time (a knapsack): c units on
    a root of multiplicity mu count multichoose(mu, c) ways.  r, the part
    of m-n left for vertices 1..j, is sum(t_i + sent_i) over them, so the
    state carries it.  The source has no in-edge: s_1 = sent_1 + t_1.

    A state is one int: vertex i's send sits in field i, the `bits` bits
    from bit bits*i, and during the split field 0 holds the inflow still
    to split.  The sends into the processed vertices add up to at most
    the sum of their t_k, so every field and every sum of fields is at
    most m-n and fits in bits = max(m-n bit length, 1) bits.  Moving c
    units from field 0 to field i adds c*(2^(bits*i) - 1), and field j-1
    of key*ones (ones: a 1 in fields 0..n-1) is the sum of fields 0..j-1
    of key, with no carry.
    """
    t = shifted_outdegree(g)
    n = g.n
    bits = max(sum(t).bit_length(), 1)
    low = (1 << bits) - 1
    ones = sum(1 << bits * i for i in range(n))
    in_roots: dict[int, list[tuple[int, int]]] = {}
    for (i, j), mult in g.distinct_edges():
        in_roots.setdefault(j, []).append(((1 << bits * i) - 1, mult))
    states = {0: 1}
    r_base = sum(t)  # sum of t_i over the unprocessed vertices
    for j in range(n, 1, -1):
        tj = t[j - 1]
        r_base -= tj
        shift = bits * j
        # (sends of vertices 1..j-1, inflow of j still to split in field 0) -> ways
        split: dict[int, int] = {}
        for state, ways in states.items():
            key = state & (1 << shift) - 1
            most = (state >> shift) + tj  # s_j = most leaves j no inflow
            r = r_base + ((key * ones >> shift - bits) & low) + most
            for sj in range(most + 1):
                w = weight(j, r, sj)
                if w:
                    k = key + most - sj
                    split[k] = split.get(k, 0) + ways * w
        *roots, (last_step, last_mult) = in_roots[j]
        for step, mult in roots:
            nxt: dict[int, int] = {}
            for key, ways in split.items():
                for c in range((key & low) + 1):
                    w = ways if mult == 1 else ways * multichoose(mult, c)
                    nxt[key] = nxt.get(key, 0) + w
                    key += step
            split = nxt
        states = {}
        for key, ways in split.items():  # the last root takes what is left
            left = key & low
            k = key + left * last_step
            w = ways if last_mult == 1 else ways * multichoose(last_mult, left)
            states[k] = states.get(k, 0) + w
    total = 0
    for state, ways in states.items():
        s1 = (state >> bits) + t[0]
        total += ways * weight(1, s1, s1)
    return total


def _term_weight(weight: Weight, s: Sequence[int], r: int) -> int:
    """The weight of the term s, its factors taken from the sink back; r is
    m-n, the sum of s."""
    w = 1
    for j in range(len(s), 0, -1):
        w *= weight(j, r, s[j - 1])
        if not w:
            return 0
        r -= s[j - 1]
    return w


def term_sum(
    g: DirectedMultigraph, flows: Sequence[Sequence[int]], forms: Sequence[str] = FORMS
) -> tuple[tuple[int, ...], ...]:
    """The Lidskii sums of `forms` (each one of FORMS) at each net flow in
    `flows`, term by term: one tuple of totals per flow, in the order of
    `flows`, each with one total per form in the order asked.

    s and K_G(s-t, 0) do not depend on the net flow, so one table of terms
    serves every (flow, form) pair: one pass lists every dominating s once
    and weights it for each pair, and K_G(s-t, 0) is evaluated once per
    term, and skipped when every weight is zero.  Every value comes from
    one KostantEvaluator, whose memos serve all the terms, built with top
    m-n and asked each term by its alpha coordinates: the j-th alpha
    coordinate of (s-t, 0) is P_j(s) - P_j(t), P_j the j-th prefix sum,
    and s dominates t with the same sum m-n, so every coordinate lies in
    [0, m-n] and no term vector is built or checked.  The same values as `volume`,
    `lattice_points_binomial` and `lattice_points_multiset`, by an
    independent route.
    """
    weights = [_weight(g, a, form) for a in flows for form in forms]
    t = shifted_outdegree(g)
    m_n = sum(t)
    t_sums = prefix_sums(t)
    evaluate = KostantEvaluator(g, m_n)
    totals = [0] * len(weights)
    for s in dominating_compositions(t):
        ws = [_term_weight(weight, s, m_n) for weight in weights]
        if any(ws):
            value = evaluate.at([x - y for x, y in zip(prefix_sums(s), t_sums)])
            totals = [total + w * value for total, w in zip(totals, ws)]
    size = len(forms)
    return tuple(tuple(totals[k * size : (k + 1) * size]) for k in range(len(flows)))


def volume(g: DirectedMultigraph, a: Sequence[int]) -> int:
    """Normalized volume of the flow polytope of g with net flow a."""
    return _sweep(g, _weight(g, a, "volume"))


def lattice_points_binomial(g: DirectedMultigraph, a: Sequence[int]) -> int:
    """Number of lattice points of the flow polytope, via the binomial form."""
    return _sweep(g, _weight(g, a, "binomial"))


def lattice_points_multiset(g: DirectedMultigraph, a: Sequence[int]) -> int:
    """Number of lattice points of the flow polytope, via the multiset form."""
    return _sweep(g, _weight(g, a, "multiset"))
