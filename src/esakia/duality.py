"""Dual spaces of finite distributive lattices.

A finite lattice's dual space carries the discrete (Stone/Priestley)
topology, so every subset is clopen and the whole structure is the poset
of prime filters under inclusion.

Each dual space holds one down-closure table (``_DownClosures``, memoised
under ``"down_closures"``), filled on demand one mask at a time and so
holding at most 2^|X| masks.  It serves the two readings of the Esakia
formula phi(a->b) = X - down(phi(a) - phi(b)): ``heyting_imp_mask`` and
the checks of ``upset_algebra`` and ``unit_counit_check`` on one side,
``nuclei.from_nuclear_set`` on the other.  Those two users are never
compared with each other; each is compared with a route inside the
lattice, the sup-based implication table (``FiniteLattice._imp_table``)
for the first and the NextClosure oracle for the second.

``unit_counit_check`` searches for no isomorphism: it compares the dual's
order with the lattice's base poset position by position, as both list
the join-irreducibles in ascending index, which also catches a reversed
order on a self-dual base.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from . import lattices
from .errors import LatticeError
from .lattices import FiniteLattice, _upset_lattice
from .posets import FinitePoset, _memo, _transpose, upset_masks

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
    of the prime filter sitting at point k.  What is derived from the space
    (phi, its inverse, down-closures, nuclear sets, front opens) is
    memoised in ``_cache``.
    """

    __slots__ = ("poset", "filters", "source", "_cache")

    def __init__(self, poset: FinitePoset, filters: tuple[int, ...], source: FiniteLattice):
        self.poset = poset
        self.filters = filters
        self.source = source
        self._cache = {}

    @property
    def n(self) -> int:
        return self.poset.n

    def __repr__(self) -> str:
        return f"EsakiaSpaceFin({self.poset.n} points, discrete)"


@_memo("dual_space")
def dual_space(lattice: FiniteLattice) -> EsakiaSpaceFin:
    """Prime filters under inclusion, as a discrete Priestley space."""
    pts = lattices.points(lattice)
    names = [f"x_{lattice.labels[f.generator]}" for f in pts]
    filters = tuple(f.members for f in pts)
    return EsakiaSpaceFin(
        FinitePoset.of_family(names, filters),
        filters=filters,
        source=lattice,
    )


@_memo("phi_table")
def phi_table(space: EsakiaSpaceFin) -> tuple[int, ...]:
    """phi(a) for every carrier element a of the source lattice: the
    ``_transpose`` of the filters, as a is in phi(a) at point k iff a is
    in filters[k]."""
    return tuple(_transpose(space.filters, space.source.n))


def phi(space: EsakiaSpaceFin, a: int) -> int:
    """The clopen upset of points whose filter contains a."""
    return phi_table(space)[a]


@_memo("phi_inverse")
def _phi_lookup(space: EsakiaSpaceFin) -> dict[int, int]:
    """phi(a) -> a for every carrier element a."""
    return {m: a for a, m in enumerate(phi_table(space))}


def phi_inverse(space: EsakiaSpaceFin, mask: int) -> int:
    """The unique carrier element with phi(a) == mask."""
    try:
        return _phi_lookup(space)[mask]
    except KeyError:
        raise LatticeError(f"mask {mask:#x} is not the image of a lattice element") from None


class _DownClosures(dict):
    """Down-closures in a poset, keyed by mask and filled on demand: the
    closure of a mask is the closure of the mask without its lowest
    point, OR'd with that point's down-mask."""

    def __init__(self, down: Sequence[int]):
        super().__init__({0: 0})
        self.down = down

    def __missing__(self, mask: int) -> int:
        low = mask & -mask
        out = self[mask] = self[mask ^ low] | self.down[low.bit_length() - 1]
        return out


@_memo("down_closures")
def _down_closures(space: EsakiaSpaceFin) -> _DownClosures:
    return _DownClosures(space.poset._down)


def _imp_row(space: EsakiaSpaceFin, u: int, targets: Sequence[int]) -> list[int]:
    """``heyting_imp_mask(space, u, v)`` for each v in targets, unchecked."""
    closures = _down_closures(space)
    full = space.poset.full_mask
    return [full & ~closures[u & ~v] for v in targets]


def heyting_imp_mask(space: EsakiaSpaceFin, u: int, v: int) -> int:
    """Implication of clopen upsets: drop the down-closure of u minus v,
    read from the space's down-closure table."""
    p = space.poset
    p.check_mask(u)
    p.check_mask(v)
    return _imp_row(space, u, (v,))[0]


def upset_algebra(space: EsakiaSpaceFin) -> FiniteLattice:
    """The lattice of clopen upsets, with implication cross-checked.

    The lattice is built order-theoretically; afterwards every implication
    is recomputed by the dual-space formula and compared against the
    sup-based table, so the two derivations stay independent.
    """
    return _upset_algebra(space, upset_masks(space.poset))


def _upset_algebra(space: EsakiaSpaceFin, masks: Sequence[int]) -> FiniteLattice:
    """``upset_algebra`` on the upsets of the space, already listed."""
    lat = _upset_lattice(space.poset, masks)
    for i, row in enumerate(lat._imp_table()):
        formula = _imp_row(space, masks[i], masks)
        sup = [masks[k] for k in row]
        if sup != formula:
            j = next(j for j, (f, m) in enumerate(zip(formula, sup)) if f != m)
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
    dual space itself, and that the dual space is the lattice's internal
    base poset, point for point.
    """
    space = dual_space(lattice)
    table = phi_table(space)
    masks = upset_masks(space.poset)
    details: list[str] = []

    bij = sorted(table) == sorted(masks)
    if not bij:
        details.append("phi is not a bijection onto the clopen upsets")

    bounds_ok = table[lattice.bot] == 0 and table[lattice.top] == space.poset.full_mask
    meet_ok = True
    join_ok = True
    imp_ok = True
    # row a of each operation, read on the Birkhoff masks against phi
    upset_of, of_mask = lattice.upset_of, lattice.of_mask
    for a, row in enumerate(lattice._imp_table()):
        mine, ta = upset_of[a], table[a]
        if [table[of_mask[mine & u]] for u in upset_of] != [ta & t for t in table]:
            meet_ok = False
        if [table[of_mask[mine | u]] for u in upset_of] != [ta | t for t in table]:
            join_ok = False
        if [table[x] for x in row] != _imp_row(space, ta, table):
            imp_ok = False
        if not (meet_ok and join_ok and imp_ok):
            break

    # counit: the double dual's filters are distinct, so one dict matches
    # each point of the space to its point (-1 if the double dual lacks it)
    double = dual_space(_upset_algebra(space, masks))
    at = {members: k for k, members in enumerate(double.filters)}
    image = [at.get(want, -1) for want in _transpose(masks, space.n)]
    counit_ok = sorted(image) == list(range(double.n)) and all(
        space.poset.leq_i(x, y) == double.poset.leq_i(image[x], image[y])
        for x in range(space.n)
        for y in range(space.n)
    )
    if not counit_ok:
        details.append("the double dual does not reproduce the space")

    base_ok = space.poset._up == lattice.base._up
    if not base_ok:
        details.append("dual space disagrees with the join-irreducible base")

    ok = bij and bounds_ok and meet_ok and join_ok and imp_ok and counit_ok and base_ok
    return DualityReport(
        ok, bij, bounds_ok, meet_ok, join_ok, imp_ok, counit_ok, base_ok, tuple(details)
    )
