"""Dual spaces of finite distributive lattices.

A finite lattice's dual space carries the discrete (Stone/Priestley)
topology, so every subset is clopen and the whole structure is the poset
of prime filters under inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lattices
from .errors import LatticeError
from .lattices import FiniteLattice, birkhoff_lattice
from .posets import FinitePoset, down_closure, find_isomorphism, inclusion_up_masks, upset_masks

__all__ = [
    "EsakiaSpaceFin",
    "DualityReport",
    "dual_space",
    "phi",
    "phi_table",
    "phi_inverse",
    "heyting_imp_mask",
    "upset_algebra",
    "unit_counit_check",
]


class EsakiaSpaceFin:
    """A finite Priestley/Esakia space: a poset with the discrete topology.

    ``filters[k]`` is the membership mask (over the source lattice carrier)
    of the prime filter sitting at point k; it is None for spaces built
    from a bare poset.
    """

    __slots__ = ("poset", "filters", "source")

    def __init__(
        self,
        poset: FinitePoset,
        filters: tuple[int, ...] | None = None,
        source: FiniteLattice | None = None,
    ):
        self.poset = poset
        self.filters = filters
        self.source = source

    @property
    def n(self) -> int:
        return self.poset.n

    def clopen_masks(self) -> range:
        """Every subset is clopen in the discrete topology."""
        return range(1 << self.poset.n)

    def __repr__(self) -> str:
        return f"EsakiaSpaceFin({self.poset.n} points, discrete)"


def dual_space(lattice: FiniteLattice) -> EsakiaSpaceFin:
    """Prime filters under inclusion, as a discrete Priestley space."""
    cached = lattice._cache.get("dual_space")
    if cached is not None:
        return cached
    pts = lattices.points(lattice)
    names = [f"x_{lattice.labels[f.generator]}" for f in pts]
    filters = tuple(f.members for f in pts)
    space = EsakiaSpaceFin(
        FinitePoset.from_up_masks(names, inclusion_up_masks(filters)),
        filters=filters,
        source=lattice,
    )
    lattice._cache["dual_space"] = space
    return space


def phi_table(space: EsakiaSpaceFin) -> tuple[int, ...]:
    """phi(a) for every carrier element a of the source lattice."""
    if space.source is None or space.filters is None:
        raise LatticeError("space has no source lattice attached")
    lattice = space.source
    cached = lattice._cache.get("phi_table")
    if cached is None:
        table = []
        for a in range(lattice.n):
            m = 0
            for k, members in enumerate(space.filters):
                if members >> a & 1:
                    m |= 1 << k
            table.append(m)
        cached = tuple(table)
        lattice._cache["phi_table"] = cached
    return cached


def phi(space: EsakiaSpaceFin, a: int) -> int:
    """The clopen upset of points whose filter contains a."""
    return phi_table(space)[a]


def phi_inverse(space: EsakiaSpaceFin, mask: int) -> int:
    """The unique carrier element with phi(a) == mask."""
    if space.source is None:
        raise LatticeError("space has no source lattice attached")
    lookup = space.source._cache.get("phi_inverse")
    if lookup is None:
        lookup = {m: a for a, m in enumerate(phi_table(space))}
        space.source._cache["phi_inverse"] = lookup
    try:
        return lookup[mask]
    except KeyError:
        raise LatticeError(f"mask {mask:#x} is not the image of a lattice element") from None


def heyting_imp_mask(space: EsakiaSpaceFin, u: int, v: int) -> int:
    """Implication of clopen upsets: drop the down-closure of u minus v."""
    p = space.poset
    p.check_mask(u)
    p.check_mask(v)
    return p.full_mask & ~down_closure(p, u & ~v)


def upset_algebra(space: EsakiaSpaceFin) -> FiniteLattice:
    """The lattice of clopen upsets, with implication cross-checked.

    The lattice is built order-theoretically; afterwards every implication
    is recomputed by the dual-space formula and compared against the
    sup-based table, so the two derivations stay independent.
    """
    lat = birkhoff_lattice(space.poset)
    masks = upset_masks(space.poset)
    for i in range(lat.n):
        for j in range(lat.n):
            formula = heyting_imp_mask(space, masks[i], masks[j])
            if formula != masks[lat.imp(i, j)]:
                raise LatticeError(
                    f"implication formula disagrees with sup definition at ({i},{j})"
                )
    return lat


@dataclass(frozen=True)
class DualityReport:
    ok: bool
    phi_bijective: bool
    phi_preserves_bounds: bool
    phi_preserves_meet: bool
    phi_preserves_join: bool
    phi_preserves_imp: bool
    counit_order_iso: bool
    base_matches_dual: bool
    details: tuple[str, ...] = field(default_factory=tuple)


def unit_counit_check(lattice: FiniteLattice) -> DualityReport:
    """Round-trip the duality: lattice -> dual space -> upset algebra.

    Checks that phi is an isomorphism of Heyting algebras onto the upsets
    of the dual space, that the points of the upset algebra recover the
    dual space itself, and that the dual space agrees with the lattice's
    internal base poset.
    """
    space = dual_space(lattice)
    table = phi_table(space)
    masks = upset_masks(space.poset)
    details: list[str] = []

    bij = sorted(table) == sorted(masks) and len(set(table)) == lattice.n
    if not bij:
        details.append("phi is not a bijection onto the clopen upsets")

    bounds_ok = table[lattice.bot] == 0 and table[lattice.top] == space.poset.full_mask
    meet_ok = True
    join_ok = True
    imp_ok = True
    for a in range(lattice.n):
        for b in range(lattice.n):
            if table[lattice.meet(a, b)] != table[a] & table[b]:
                meet_ok = False
            if table[lattice.join(a, b)] != table[a] | table[b]:
                join_ok = False
            if table[lattice.imp(a, b)] != heyting_imp_mask(space, table[a], table[b]):
                imp_ok = False
        if not (meet_ok and join_ok and imp_ok):
            break

    # counit: points of the upset algebra, matched back to the space
    algebra = upset_algebra(space)
    double = dual_space(algebra)
    counit_ok = double.n == space.n
    if counit_ok:
        image = []
        for x in range(space.n):
            want = 0
            for k, m in enumerate(masks):
                if m >> x & 1:
                    want |= 1 << k
            hits = [k for k, members in enumerate(double.filters) if members == want]
            if len(hits) != 1:
                counit_ok = False
                break
            image.append(hits[0])
        if counit_ok:
            counit_ok = sorted(image) == list(range(space.n)) and all(
                space.poset.leq_i(x, y) == double.poset.leq_i(image[x], image[y])
                for x in range(space.n)
                for y in range(space.n)
            )
    if not counit_ok:
        details.append("the double dual does not reproduce the space")

    base_ok = find_isomorphism(space.poset, lattice.base) is not None
    if not base_ok:
        details.append("dual space disagrees with the join-irreducible base")

    ok = bij and bounds_ok and meet_ok and join_ok and imp_ok and counit_ok and base_ok
    return DualityReport(
        ok, bij, bounds_ok, meet_ok, join_ok, imp_ok, counit_ok, base_ok, tuple(details)
    )
