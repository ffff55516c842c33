"""DOT exporters for posets, lattices, dual spaces, and finite spaces.

Output is deterministic: nodes appear in carrier order and edges are the
sorted cover pairs, so repeated exports of the same model are identical.
"""

from __future__ import annotations

from .duality import dual_space, phi_table
from .lattices import FiniteLattice
from .nuclei import assembly_frame
from .posets import FinitePoset, _cover_masks, iter_bits

__all__ = ["poset_dot", "lattice_dot", "dual_space_dot", "assembly_dot", "space_dot"]

_INDENT = "  "


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _digraph(name: str, nodes: list[str], edges: list[str]) -> str:
    lines = [f"digraph {name} {{", _INDENT + "rankdir=BT;"]
    lines.extend(_INDENT + n for n in nodes)
    lines.extend(_INDENT + e for e in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_dot(poset: FinitePoset, *, highlight: frozenset[str] = frozenset(), name: str = "poset") -> str:
    """Hasse diagram; highlighted elements are filled, and a highlight that
    is not an element raises PosetError."""
    for label in sorted(highlight):
        poset.index(label)
    nodes = []
    for label in poset.elements:
        attrs = ' [style=filled, fillcolor=lightgray]' if label in highlight else ""
        nodes.append(f"{_quote(label)}{attrs};")
    edges = [
        f"{_quote(a)} -> {_quote(b)};"
        for a, b in sorted(poset.covers())
    ]
    return _digraph(name, nodes, edges)


def lattice_dot(lattice: FiniteLattice, *, highlight: frozenset[str] = frozenset(), name: str = "lattice") -> str:
    return poset_dot(lattice.poset, highlight=highlight, name=name)


def dual_space_dot(lattice: FiniteLattice, *, highlight_element: str | None = None, name: str = "dual") -> str:
    """The dual space's order diagram; optionally shades phi(a)."""
    space = dual_space(lattice)
    marked: frozenset[str] = frozenset()
    if highlight_element is not None:
        a = lattice.index(highlight_element)
        mask = phi_table(space)[a]
        marked = frozenset(space.poset.elements[i] for i in iter_bits(mask))
    return poset_dot(space.poset, highlight=marked, name=name)


def assembly_dot(lattice: FiniteLattice, *, name: str = "assembly") -> str:
    return poset_dot(assembly_frame(lattice).lattice.poset, name=name)


def space_dot(space, *, name: str = "space") -> str:
    """Specialization preorder: solid edges for strict covers, one dashed
    undirected edge per pair of topologically indistinguishable points."""
    up = space.specialization()
    n = space.n
    nodes = [f"{_quote(p)};" for p in space.points]
    strict = [up[i] & ~(1 << i) for i in range(n)]
    equiv = [
        (i, k)
        for i in range(n)
        for k in range(i + 1, n)
        if up[i] >> k & 1 and up[k] >> i & 1
    ]
    for i, k in equiv:
        strict[i] &= ~(1 << k)
        strict[k] &= ~(1 << i)
    edges = [
        f"{_quote(space.points[i])} -> {_quote(space.points[k])};"
        for i, covers in enumerate(_cover_masks(strict))
        for k in iter_bits(covers)
    ]
    for i, k in equiv:
        edges.append(
            f"{_quote(space.points[i])} -> {_quote(space.points[k])} [dir=none, style=dashed];"
        )
    return _digraph(name, nodes, sorted(edges))
