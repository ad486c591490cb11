"""Directed acyclic multigraphs on vertices 1..n+1 with edges oriented i < j.

Constructors for the graph families of interest (k-caracol, k-multicaracol,
Pitman-Stanley, complete), shifted degree vectors, and the two net-flow
vectors whose Kostant evaluations both give the unit-flow volume.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .combinat import InputError, prefix_sums


class InvalidGraph(InputError):
    pass


class BadParameters(InputError):
    pass


class SumNonzero(InputError):
    pass


@dataclass(frozen=True)
class DirectedMultigraph:
    """Loopless acyclic multigraph on 1..num_vertices, every edge (i, j) has i < j.

    Edges are stored as a sorted tuple, so parallel copies are adjacent and
    equality is canonical.  `display_offset` only affects printed vertex
    labels (the multicaracol family is conventionally labelled from 0).
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    display_offset: int = field(default=0, compare=False)

    @property
    def n(self) -> int:
        return self.num_vertices - 1

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def out_degree(self, v: int) -> int:
        return sum(1 for i, _ in self.edges if i == v)

    def in_degree(self, v: int) -> int:
        return sum(1 for _, j in self.edges if j == v)

    def distinct_edges(self) -> list[tuple[tuple[int, int], int]]:
        """Sorted (edge, multiplicity) pairs."""
        out: list[tuple[tuple[int, int], int]] = []
        for e in self.edges:
            if out and out[-1][0] == e:
                out[-1] = (e, out[-1][1] + 1)
            else:
                out.append((e, 1))
        return out

    def display_label(self, v: int) -> int:
        return v + self.display_offset

    def __str__(self) -> str:
        parts = ",".join(
            f"({self.display_label(i)},{self.display_label(j)})" for i, j in self.edges
        )
        return f"graph(n+1={self.num_vertices}; {parts})"


def _validate(num_vertices: int, edges: Sequence[tuple[int, int]]) -> None:
    n = num_vertices - 1
    if num_vertices < 2:
        raise InvalidGraph("need at least 2 vertices")
    for i, j in edges:
        if not (1 <= i < j <= num_vertices):
            raise InvalidGraph(
                f"edge ({i},{j}) violates condition (c): edges run i -> j with i < j"
            )
    for v in range(1, n + 1):
        if not any(i == v for i, _ in edges):
            raise InvalidGraph(f"vertex {v} violates condition (a): out-degree 0")
    for v in range(2, n + 2):
        if not any(j == v for _, j in edges):
            raise InvalidGraph(f"vertex {v} violates condition (b): in-degree 0")
    # undirected connectivity
    adj: dict[int, set[int]] = {v: set() for v in range(1, num_vertices + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != num_vertices:
        raise InvalidGraph("graph is not connected")


def from_edge_list(
    num_vertices: int,
    edges: Sequence[tuple[int, int]],
    display_offset: int = 0,
) -> DirectedMultigraph:
    """Build and validate a graph from an explicit edge multiset."""
    edges = tuple(sorted(tuple(e) for e in edges))
    _validate(num_vertices, edges)
    return DirectedMultigraph(num_vertices, edges, display_offset)


def caracol_k(n: int, k: int) -> DirectedMultigraph:
    """The k-caracol graph on n+1 vertices (a simple graph).

    Sources 1..k each reach k+1..n plus their successor; vertices k+1..n
    reach their successor and the sink.  Edge count (k+1)(n-k) + n - 2.
    """
    if k < 1 or n <= k:
        raise BadParameters(f"caracol_k needs n > k >= 1, got n={n}, k={k}")
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
        raise BadParameters(f"pitman_stanley needs n >= 2, got {n}")
    edges = set()
    for i in range(1, n):
        edges.add((i, i + 1))
        edges.add((i, n))
    return from_edge_list(n, sorted(edges))


def multicaracol(a: int, k: int) -> DirectedMultigraph:
    """The k-multicaracol graph: PS_{a+1} plus a new source joined to each of
    its first a vertices by k parallel edges.

    Internally the vertices are 1..a+2 (the new source is vertex 1);
    printed labels follow the 0-based convention.
    """
    if a < 1 or k < 1:
        raise BadParameters(f"multicaracol needs a, k >= 1, got a={a}, k={k}")
    edges: list[tuple[int, int]] = []
    # PS_{a+1} shifted up by one
    if a >= 2:
        ps = pitman_stanley(a + 1)
        edges.extend((i + 1, j + 1) for i, j in ps.edges)
    else:
        edges.append((2, 3))
    for i in range(2, a + 2):
        edges.extend([(1, i)] * k)
    g = from_edge_list(a + 2, edges, display_offset=-1)
    assert g.num_edges == (k + 2) * a - 1
    return g


def complete_graph(n: int) -> DirectedMultigraph:
    """K_{n+1}, every pair i < j joined."""
    if n < 1:
        raise BadParameters(f"complete_graph needs n >= 1, got {n}")
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 2)]
    return from_edge_list(n + 1, edges)


def shifted_outdegree(g: DirectedMultigraph) -> tuple[int, ...]:
    """t_i = outdeg(i) - 1 for i = 1..n."""
    return tuple(g.out_degree(v) - 1 for v in range(1, g.n + 1))


def shifted_indegree(g: DirectedMultigraph) -> tuple[int, ...]:
    """u_i = indeg(i) - 1 for i = 2..n+1."""
    return tuple(g.in_degree(v) - 1 for v in range(2, g.n + 2))


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
        raise SumNonzero(f"net flow {v} does not sum to zero")
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
