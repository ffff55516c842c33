"""Nuclear points of the dual space and spatiality of the assembly.

Every check in this module is a tautology on finite frames: all points
are nuclear, the front topology is discrete, and the assembly is spatial.
The value of running the checks is agreement between independent routes,
so each quantity is computed at least twice (order-theoretically and
through the dual space) and the routes are compared rather than assuming
the constant outcome.

Subsets of the dual space are bitmasks in the dual space's point
indexing throughout, including subsets of the nuclear-point set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .duality import EsakiaSpaceFin, dual_space, phi_inverse, phi_table
from .errors import NucleusError
from .lattices import (
    FiniteLattice,
    essential_primes,
    is_spatial,
    min_primes,
    points,
)
from .nuclei import assembly_frame
from .posets import FinitePoset, iter_bits, maximal_points, upset_masks

__all__ = [
    "PointSet",
    "GammaReport",
    "SpatialReport",
    "JoinPrimeReport",
    "DualPrimeReport",
    "nuclear_points",
    "front_open_masks",
    "gamma",
    "gamma_report",
    "assembly_spatial_report",
    "join_primes_of_assembly",
    "essential_primes_dual",
]


@dataclass(frozen=True)
class PointSet:
    """The nuclear points of a dual space with their subspace topology.

    tau_opens are the traces of clopen upsets, kept in the ambient
    space's coordinates (every member is a subset of mask).
    """

    space: EsakiaSpaceFin
    mask: int
    tau_opens: tuple[int, ...]

    @property
    def count(self) -> int:
        return bin(self.mask).count("1")


def _front_opens(opens: tuple[int, ...]) -> set[int]:
    """Opens of the topology generated by differences of the given opens.

    Differences form a base (they are closed under intersection and
    include the empty set), so the unions of base elements are the whole
    topology; adding each base element to every set found so far builds
    every such union in one pass.
    """
    base = {u & ~v for u in opens for v in opens}
    fam = set(base)
    for b in base:
        fam |= {f | b for f in fam}
    return fam


def front_open_masks(poset: FinitePoset) -> tuple[int, ...]:
    """Opens of the topology generated by differences of upsets."""
    return tuple(sorted(_front_opens(upset_masks(poset))))


def _front_opens_cached(lattice: FiniteLattice, space: EsakiaSpaceFin) -> tuple[int, ...]:
    got = lattice._cache.get("front_opens")
    if got is None:
        got = front_open_masks(space.poset)
        lattice._cache["front_opens"] = got
    return got


def nuclear_points(lattice: FiniteLattice) -> PointSet:
    """Points whose singleton is nuclear, cross-checked against the
    completely prime filters, with the trace topology attached."""
    cached = lattice._cache.get("nuclear_points")
    if cached is not None:
        return cached
    space = dual_space(lattice)
    # every singleton of the discrete dual is nuclear (see is_nuclear)
    sing = space.poset.full_mask
    via_filters = 0
    for f in points(lattice):
        via_filters |= 1 << space.filters.index(f.members)
    if sing != via_filters:
        raise NucleusError(
            "nuclear singletons disagree with completely prime filters"
        )
    table = phi_table(space)
    tau = tuple(sorted({table[a] & sing for a in range(lattice.n)}))
    for y in iter_bits(sing):
        for z in iter_bits(sing):
            spec = all(not u >> y & 1 or u >> z & 1 for u in tau)
            if spec != space.poset.leq_i(y, z):
                raise NucleusError("trace topology breaks the specialization order")
        cl = 0
        for w in iter_bits(sing):
            if all(not u >> w & 1 or u >> y & 1 for u in tau):
                cl |= 1 << w
        if cl != space.poset.down_mask(y) & sing:
            raise NucleusError("closure of a point is not its downset trace")
    out = PointSet(space, sing, tau)
    lattice._cache["nuclear_points"] = out
    return out


def gamma(lattice: FiniteLattice, nuclear_mask: int) -> int:
    """Restrict a nuclear set to the nuclear points."""
    dual_space(lattice).poset.check_mask(nuclear_mask)
    return nuclear_mask & nuclear_points(lattice).mask


@dataclass(frozen=True)
class GammaReport:
    preserves_unions: bool
    preserves_meets: bool
    onto_front_closed: bool
    onto_trace_closed: bool
    meet_families_checked: int

    @property
    def ok(self) -> bool:
        return (
            self.preserves_unions
            and self.preserves_meets
            and self.onto_front_closed
            and self.onto_trace_closed
        )


def _front_closed_of_points(lattice: FiniteLattice) -> set[int]:
    pts = nuclear_points(lattice)
    opens = _front_opens_cached(lattice, pts.space)
    return {pts.mask & ~(o & pts.mask) for o in opens}


def gamma_report(lattice: FiniteLattice) -> GammaReport:
    """Verify gamma is a surjection onto the front-closed sets of the
    nuclear points that preserves unions and arbitrary meets.

    Meets of nuclear-set families are taken in the assembly (joins there,
    since the assembly order is reverse inclusion); the family scan is
    exhaustive only when the assembly is small enough.
    """
    asm = assembly_frame(lattice)
    pts = nuclear_points(lattice)
    sets = asm.sets
    unions = all(
        gamma(lattice, a | b) == (gamma(lattice, a) | gamma(lattice, b))
        for a in sets
        for b in sets
    )
    by_set = {m: i for i, m in enumerate(sets)}
    count = len(sets)
    families: list[list[int]]
    if count <= 16:
        families = [
            [i for i in range(count) if fam >> i & 1] for fam in range(1 << count)
        ]
    else:
        families = [[i, k] for i in range(count) for k in range(count)]
        families.append(list(range(count)))
        families.append([])
    meets = True
    for fam in families:
        met = sets[asm.lattice.join_all(fam)]
        inter = pts.space.poset.full_mask
        for i in fam:
            inter &= gamma(lattice, sets[i])
        if gamma(lattice, met) != inter & pts.mask:
            meets = False
            break
    image = {gamma(lattice, m) for m in sets}
    front_closed = _front_closed_of_points(lattice)
    onto_front = image == front_closed
    trace_closed = {pts.mask & ~u for u in pts.tau_opens}
    onto_trace = trace_closed <= image
    return GammaReport(unions, meets, onto_front, onto_trace, len(families))


@dataclass(frozen=True)
class SpatialReport:
    lattice_spatial: bool
    points_front_dense: bool
    nonempty_nuclear_meets_points: bool
    gamma_injective: bool
    gamma_isomorphism: bool
    assembly_spatial: bool

    @property
    def agree(self) -> bool:
        return (
            len(
                {
                    self.lattice_spatial,
                    self.points_front_dense,
                    self.nonempty_nuclear_meets_points,
                    self.gamma_injective,
                    self.gamma_isomorphism,
                    self.assembly_spatial,
                }
            )
            == 1
        )

    @property
    def ok(self) -> bool:
        return self.agree and self.lattice_spatial


def assembly_spatial_report(lattice: FiniteLattice) -> SpatialReport:
    """Evaluate each spatiality criterion independently and compare."""
    asm = assembly_frame(lattice)
    pts = nuclear_points(lattice)
    spatial, _ = is_spatial(lattice)
    fronts = _front_opens_cached(lattice, pts.space)
    dense = all(o == 0 or o & pts.mask for o in fronts)
    meets_pts = all(m == 0 or m & pts.mask for m in asm.sets)
    image = {gamma(lattice, m) for m in asm.sets}
    injective = len(image) == len(asm.sets)
    front_closed = _front_closed_of_points(lattice)
    order_faithful = all(
        (a & b == a) == (a & pts.mask & b == a & pts.mask)
        for a in asm.sets
        for b in asm.sets
    )
    iso = injective and image == front_closed and order_faithful
    asm_spatial, _ = is_spatial(asm.lattice)
    return SpatialReport(spatial, dense, meets_pts, injective, iso, asm_spatial)


@dataclass(frozen=True)
class JoinPrimeReport:
    join_primes: tuple[int, ...] = field(metadata={"json": False})
    singletons_of_nuclear_points: bool
    point_count: int
    assembly_point_count: int
    counts_match: bool

    @property
    def ok(self) -> bool:
        return self.singletons_of_nuclear_points and self.counts_match

    @property
    def join_prime_count(self) -> int:
        return len(self.join_primes)


def join_primes_of_assembly(lattice: FiniteLattice) -> JoinPrimeReport:
    """Join-primes among nuclear sets under inclusion, straight from the
    definition, compared with the singleton nuclear points; the point
    counts of the frame and its assembly are compared alongside."""
    asm = assembly_frame(lattice)
    sets = asm.sets
    jp = []
    for m in sets:
        if m == 0:
            continue
        prime = True
        for a in sets:
            for b in sets:
                u = a | b
                if m & ~u:
                    continue
                if m & ~a and m & ~b:
                    prime = False
                    break
            if not prime:
                break
        if prime:
            jp.append(m)
    want = {1 << y for y in iter_bits(nuclear_points(lattice).mask)}
    pt_l = len(points(lattice))
    pt_n = len(points(asm.lattice))
    return JoinPrimeReport(
        tuple(sorted(jp)), set(jp) == want, pt_l, pt_n, pt_l == pt_n
    )


# -- minimal and essential primes through the dual space ------------------------


@dataclass(frozen=True)
class DualPrimeReport:
    min_mask: int
    essential_mask: int
    max_trace_equal: bool
    matches_lattice_min: bool
    matches_lattice_essential: bool

    @property
    def ok(self) -> bool:
        return (
            self.max_trace_equal
            and self.matches_lattice_min
            and self.matches_lattice_essential
        )


def essential_primes_dual(lattice: FiniteLattice, a: int) -> DualPrimeReport:
    """Minimal and essential primes of a read off the dual space.

    Minimal primes come from maximal points of the nuclear-point trace of
    the complement of phi(a); essential primes from the nuclear-point
    trace of its maximal points.  The two agree on finite spaces (the
    containment is proper for some infinite ones) and both must match the
    order-theoretic computation.
    """
    space = dual_space(lattice)
    pts = nuclear_points(lattice)
    table = phi_table(space)
    full = space.poset.full_mask
    comp = full & ~table[a]
    min_pts = maximal_points(space.poset, comp & pts.mask)
    ess_pts = maximal_points(space.poset, comp) & pts.mask

    def to_primes(point_mask: int) -> int:
        out = 0
        for y in iter_bits(point_mask):
            out |= 1 << phi_inverse(space, full & ~space.poset.down_mask(y))
        return out

    dual_min = to_primes(min_pts)
    dual_ess = to_primes(ess_pts)
    lat_min = min_primes(lattice, a)
    lat_ess = essential_primes(lattice, a)
    return DualPrimeReport(
        dual_min,
        dual_ess,
        min_pts == ess_pts,
        dual_min == lat_min,
        lat_ess.meet_is_a and dual_ess == lat_ess.essential_mask,
    )
