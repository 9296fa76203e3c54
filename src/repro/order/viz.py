"""Lattice visualization: networkx graphs and Graphviz DOT export.

The paper draws its disclosure lattices as Hasse diagrams (Figure 3).
This module turns a :class:`~repro.order.disclosure_lattice.DisclosureLattice`
(or any :class:`~repro.order.lattice.FiniteLattice`) into a
``networkx.DiGraph`` of covering edges, and renders Graphviz DOT text for
external tooling.  Rendering is text-only — no drawing backends are
required.

``networkx`` is imported by the two functions that return a graph, not
by this module: ``import repro`` reaches here, and the ~300 modules and
~13 MB networkx brings along are no part of serving decisions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

if TYPE_CHECKING:  # annotations only; see the module docstring
    import networkx as nx

from repro.order.disclosure_lattice import DisclosureLattice
from repro.order.lattice import FiniteLattice


def lattice_to_networkx(lattice: FiniteLattice) -> "nx.DiGraph":
    """The Hasse diagram as a DiGraph (edges point upward: lower → upper)."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(lattice.elements)
    graph.add_edges_from(lattice.hasse_edges())
    return graph


def disclosure_lattice_to_networkx(
    lattice: DisclosureLattice,
    names: Optional[Dict] = None,
) -> "nx.DiGraph":
    """Hasse diagram of a disclosure lattice with readable node labels."""
    import networkx as nx

    finite = lattice.as_finite_lattice()
    graph = nx.DiGraph()
    label_of = _element_labeler(names)
    for element in finite.elements:
        graph.add_node(label_of(element), size=len(element))
    for lower, upper in finite.hasse_edges():
        graph.add_edge(label_of(lower), label_of(upper))
    return graph


def to_dot(
    lattice: DisclosureLattice,
    names: Optional[Dict] = None,
    title: str = "disclosure lattice",
) -> str:
    """Graphviz DOT text for the lattice's Hasse diagram (bottom-up)."""
    finite = lattice.as_finite_lattice()
    label_of = _element_labeler(names)
    lines = [
        "digraph L {",
        f'  label="{title}";',
        "  rankdir=BT;",
        '  node [shape=box, fontname="monospace"];',
    ]
    ids = {element: f"n{i}" for i, element in enumerate(finite.elements)}
    for element, node_id in ids.items():
        lines.append(f'  {node_id} [label="{label_of(element)}"];')
    for lower, upper in finite.hasse_edges():
        lines.append(f"  {ids[lower]} -> {ids[upper]};")
    lines.append("}")
    return "\n".join(lines)


def _element_labeler(names: Optional[Dict]) -> Callable:
    mapping = names or {}

    def label(element) -> str:
        if not element:
            return "⊥"
        shown = sorted(mapping.get(view, str(view)) for view in element)
        return "⇓{" + ", ".join(shown) + "}"

    return label
