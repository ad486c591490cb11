"""Directed acyclic multigraphs on vertices 1..n+1 with edges oriented i < j.

Constructors for the graph families of interest (k-caracol, k-multicaracol,
Pitman-Stanley, complete), shifted degree vectors, and the two net-flow
vectors whose Kostant evaluations both give the unit-flow volume.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .combinat import InputError, all_ints, prefix_sums


@dataclass(frozen=True)
class DirectedMultigraph:
    """Loopless acyclic multigraph on 1..num_vertices, every edge (i, j) has i < j.

    Edges are stored as a sorted tuple, so parallel copies are adjacent and
    equality is canonical.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return self.num_vertices - 1

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def distinct_edges(self) -> list[tuple[tuple[int, int], int]]:
        """Sorted (edge, multiplicity) pairs."""
        out: list[tuple[tuple[int, int], int]] = []
        for e in self.edges:
            if out and out[-1][0] == e:
                out[-1] = (e, out[-1][1] + 1)
            else:
                out.append((e, 1))
        return out


def _validate(num_vertices: int, edges: Sequence[tuple[int, int]]) -> None:
    n = num_vertices - 1
    if num_vertices < 2:
        raise InputError("need at least 2 vertices")
    for i, j in edges:
        if not (1 <= i < j <= num_vertices):
            raise InputError(
                f"edge ({i},{j}) violates condition (c): edges run i -> j with i < j"
            )
    sources = {i for i, _ in edges}
    for v in range(1, n + 1):
        if v not in sources:
            raise InputError(f"vertex {v} violates condition (a): out-degree 0")
    targets = {j for _, j in edges}
    for v in range(2, n + 2):
        if v not in targets:
            raise InputError(f"vertex {v} violates condition (b): in-degree 0")
    # (a) and (c) imply connectivity: following out-edges from any vertex
    # climbs until it stops at the sink, the one vertex with none


def from_edge_list(num_vertices: int, edges: Sequence[tuple[int, int]]) -> DirectedMultigraph:
    """Build and validate a graph from an explicit edge multiset."""
    edges = tuple(sorted(tuple(e) for e in edges))
    _validate(num_vertices, edges)
    return DirectedMultigraph(num_vertices, edges)


def check_caracol(n: int, k: int) -> None:
    """Reject (n, k) unless it names a k-caracol graph: ints n > k >= 1."""
    if not all_ints((n, k)) or not n > k >= 1:
        raise InputError(f"the k-caracol graph needs n > k >= 1, got n={n!r}, k={k!r}")


def check_multicaracol(a: int, k: int) -> None:
    """Reject (a, k) unless it names a k-multicaracol graph: ints a, k >= 1."""
    if not all_ints((a, k)) or a < 1 or k < 1:
        raise InputError(f"the k-multicaracol graph needs a, k >= 1, got a={a!r}, k={k!r}")


def caracol_k(n: int, k: int) -> DirectedMultigraph:
    """The k-caracol graph on n+1 vertices (a simple graph).

    Sources 1..k each reach k+1..n plus their successor; vertices k+1..n
    reach their successor and the sink.  Edge count (k+1)(n-k) + n - 2.
    """
    check_caracol(n, k)
    edges = set()
    for i in range(1, k + 1):
        edges.add((i, i + 1))
        for j in range(k + 1, n + 1):
            edges.add((i, j))
    for i in range(k + 1, n + 1):
        edges.add((i, i + 1))
        edges.add((i, n + 1))
    g = from_edge_list(n + 1, sorted(edges))
    assert g.num_edges == (k + 1) * (n - k) + n - 2
    return g


def pitman_stanley(n: int) -> DirectedMultigraph:
    """The Pitman-Stanley graph on n vertices; the edge (n-1, n) is not doubled."""
    if n < 2:
        raise InputError(f"pitman_stanley needs n >= 2, got {n}")
    edges = set()
    for i in range(1, n):
        edges.add((i, i + 1))
        edges.add((i, n))
    return from_edge_list(n, sorted(edges))


def multicaracol(a: int, k: int) -> DirectedMultigraph:
    """The k-multicaracol graph: PS_{a+1} plus a new source joined to each of
    its first a vertices by k parallel edges.

    The vertices are 1..a+2 and the new source is vertex 1 (the family is
    conventionally labelled from 0).
    """
    check_multicaracol(a, k)
    edges = [(i + 1, j + 1) for i, j in pitman_stanley(a + 1).edges]  # PS_{a+1} shifted up
    for i in range(2, a + 2):
        edges.extend([(1, i)] * k)
    g = from_edge_list(a + 2, edges)
    assert g.num_edges == (k + 2) * a - 1
    return g


def complete_graph(n: int) -> DirectedMultigraph:
    """K_{n+1}, every pair i < j joined."""
    if n < 1:
        raise InputError(f"complete_graph needs n >= 1, got {n}")
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 2)]
    return from_edge_list(n + 1, edges)


def shifted_outdegree(g: DirectedMultigraph) -> tuple[int, ...]:
    """t_i = outdeg(i) - 1 for i = 1..n."""
    t = [-1] * g.n
    for i, _ in g.edges:
        t[i - 1] += 1
    return tuple(t)


def shifted_indegree(g: DirectedMultigraph) -> tuple[int, ...]:
    """u_i = indeg(i) - 1 for i = 2..n+1."""
    u = [-1] * g.n
    for _, j in g.edges:
        u[j - 2] += 1
    return tuple(u)


def v_out(g: DirectedMultigraph) -> tuple[int, ...]:
    """(m-n-t_1, -t_2, ..., -t_n, 0)."""
    t = shifted_outdegree(g)
    m, n = g.num_edges, g.n
    return (m - n - t[0],) + tuple(-ti for ti in t[1:]) + (0,)


def v_in(g: DirectedMultigraph) -> tuple[int, ...]:
    """(0, u_2, ..., u_n, u_{n+1} - (m-n))."""
    u = shifted_indegree(g)
    m, n = g.num_edges, g.n
    return (0,) + u[:-1] + (u[-1] - (m - n),)


def check_netflow(g: DirectedMultigraph, v: Sequence[int]) -> tuple[int, ...]:
    """v as a tuple, once it has one entry per vertex of g and sums to zero."""
    v = tuple(v)
    if len(v) != g.num_vertices:
        raise InputError(f"net flow must have {g.num_vertices} entries, got {len(v)}")
    if sum(v) != 0:
        raise InputError(f"net flow {v} does not sum to zero")
    return v


def alpha_coordinates(v: Sequence[int]) -> tuple[int, ...]:
    """Coefficients c with v = sum c_j * (e_j - e_{j+1}), for a v that sums
    to zero (see check_netflow)."""
    return prefix_sums(v[:-1])


def reverse(g: DirectedMultigraph) -> DirectedMultigraph:
    """g read from the sink back: every edge (i, j) becomes (N+1-j, N+1-i),
    N = num_vertices.  A net flow v on g is (-v_N, ..., -v_1) on reverse(g)."""
    top = g.num_vertices + 1
    edges = tuple(sorted((top - j, top - i) for i, j in g.edges))
    return DirectedMultigraph(g.num_vertices, edges)


def unit_flow(g: DirectedMultigraph) -> tuple[int, ...]:
    return (1,) + (0,) * (g.n - 1) + (-1,)


def ones_flow(g: DirectedMultigraph) -> tuple[int, ...]:
    return (1,) * g.n + (-g.n,)


def caracol_xy_flow(n: int, k: int, x: int, y: int) -> tuple[int, ...]:
    """(x^k, y^{n-k}, -kx-(n-k)y), the net-flow regime of the caracol volume
    product formula."""
    entries = (x,) * k + (y,) * (n - k)
    return entries + (-sum(entries),)


def mcar_xy_flow(a: int, k: int, x: int, y: int) -> tuple[int, ...]:
    """(kx, y^a, -kx-ay), the matching regime for the k-multicaracol graph."""
    entries = (k * x,) + (y,) * a
    return entries + (-sum(entries),)
