"""The generalized Lidskii formulas for flow-polytope volumes and lattice points.

All three formulas sum over the compositions s of m-n dominating the shifted
out-degree vector t, weighting the Kostant value K_G(s-t, 0):

  volume:          multinomial(m-n; s) * a^s
  lattice points:  prod C(a_i + t_i, s_i)            (binomial form)
  lattice points:  prod multichoose(a_i - u_i, s_i)  (multiset form)

In the multiset form u_i is the shifted in-degree of vertex i, which is -1
for the source.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

from .combinat import InputError, binomial, dominating_compositions, exact_div, multinomial
from .graphs import (
    DirectedMultigraph,
    check_netflow,
    shifted_indegree,
    shifted_outdegree,
    unit_flow,
    v_in,
    v_out,
)
from .kostant import KostantEvaluator, kostant


class InternalMismatch(AssertionError):
    pass


def _check_netflow(g: DirectedMultigraph, a: Sequence[int]) -> tuple[int, ...]:
    a = check_netflow(g, a)
    if any(x < 0 for x in a[:-1]):
        raise InputError(f"net flow {a} has a negative entry before the sink")
    return a


def _gmultichoose(n: int, k: int) -> int:
    """Generalized multichoose n(n+1)...(n+k-1)/k!, valid for any integer n.

    The multiset form evaluates this at a_i - u_i, which is negative at the
    source (u_1 = -1 makes it a_1 + 1, but interior entries can dip below
    zero when a_i < u_i).
    """
    num = 1
    for step in range(k):
        num *= n + step
    return exact_div(num, math.factorial(k))


def _lidskii_sum(g: DirectedMultigraph, weight: Callable[..., int]) -> int:
    """Sum of weight(s, t) * K_G(s - t, 0) over the compositions s dominating t,
    all K values from one evaluator; a zero weight skips its K evaluation."""
    t = shifted_outdegree(g)
    evaluate = KostantEvaluator(g)
    total = 0
    for s in dominating_compositions(t):
        w = weight(s, t)
        if w:
            total += w * evaluate(tuple(si - ti for si, ti in zip(s, t)) + (0,))
    return total


def volume(g: DirectedMultigraph, a: Sequence[int]) -> int:
    """Normalized volume of the flow polytope of g with net flow a.

    Terms with a zero net-flow entry raised to a positive power vanish and
    are skipped before any Kostant work (0^0 = 1).
    """
    a = _check_netflow(g, a)
    d = g.num_edges - g.n

    def weight(s: tuple[int, ...], t: tuple[int, ...]) -> int:
        power = math.prod(ai**si for ai, si in zip(a, s))
        return power and multinomial(d, s) * power

    return _lidskii_sum(g, weight)


def lattice_points_binomial(g: DirectedMultigraph, a: Sequence[int]) -> int:
    """Number of lattice points of the flow polytope, via the binomial form."""
    a = _check_netflow(g, a)
    return _lidskii_sum(
        g,
        lambda s, t: math.prod(binomial(ai + ti, si) for ai, ti, si in zip(a, t, s)),
    )


def lattice_points_multiset(g: DirectedMultigraph, a: Sequence[int]) -> int:
    """Number of lattice points of the flow polytope, via the multiset form."""
    a = _check_netflow(g, a)
    u = (-1,) + shifted_indegree(g)[: g.n - 1]
    return _lidskii_sum(
        g,
        lambda s, t: math.prod(_gmultichoose(ai - ui, si) for ai, ui, si in zip(a, u, s)),
    )


def volume_unit_flow(g: DirectedMultigraph) -> int:
    """Volume at net flow (1, 0, ..., 0, -1), by Kostant evaluation of both
    the out-degree and the in-degree vector; the two must agree.  Each of
    the three values has its own evaluator, so no check shares a memo, and
    kostant() runs K(v_out) on the reversed graph (unless v_out is zero)
    and K(v_in) on g itself, so their equality compares two different DFSs."""
    out_count = kostant(g, v_out(g))
    in_count = kostant(g, v_in(g))
    if out_count != in_count:
        raise InternalMismatch(
            f"K(v_out) = {out_count} but K(v_in) = {in_count} on {g}"
        )
    also = volume(g, unit_flow(g))
    if also != out_count:
        raise InternalMismatch(
            f"Lidskii volume {also} disagrees with Kostant value {out_count} on {g}"
        )
    return out_count
