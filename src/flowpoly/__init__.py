"""Exact flow-polytope volumes, Kostant partition functions, and the
caracol-family combinatorial model (gravity, unified, parking objects).

The package top level holds the graph constructors, the two net-flow
vectors of the unit-flow identity, and the Lidskii volume and
lattice-point counts; every other name is reached through its submodule,
e.g. `flowpoly.kostant.kostant`.
"""

from .combinat import InputError
from .graphs import (
    DirectedMultigraph,
    caracol_k,
    complete_graph,
    from_edge_list,
    multicaracol,
    pitman_stanley,
    v_in,
    v_out,
)
from .lidskii import lattice_points_binomial, lattice_points_multiset, volume

__all__ = [
    "DirectedMultigraph",
    "InputError",
    "caracol_k",
    "complete_graph",
    "from_edge_list",
    "lattice_points_binomial",
    "lattice_points_multiset",
    "multicaracol",
    "pitman_stanley",
    "v_in",
    "v_out",
    "volume",
]
