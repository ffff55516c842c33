"""Finite topological spaces with explicit open families.

Points are indexed positions; subsets are bitmasks over those positions.
The open family is the stored data, kept literally and validated at
construction, including on non-T0 spaces.  Opens are normalized to
ascending mask order, and open_frame relies on that: lattice element i
is the i-th open.

Questions about single points read the least open neighbourhood U_x,
the meet of the opens holding x, instead of scanning the family: a
finite space is an Alexandrov space (P. Alexandroff, "Diskrete Räume",
Mat. Sb. 2 (1937) 501-519), so "some open u holding x has u & T inside
S" holds iff U_x & T lies inside S.  ``FiniteSpace.minimal_open`` is the
one place that scans the opens for a point, and ``specialization``
memoises its answers.  U_x & cl(x) = class(x), the points sharing the
closure of x, so on a finite space detached points are the weakly
isolated ones and dispersed spaces the weakly scattered ones.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from operator import attrgetter

from .bounds import topology_bound
from .duality import dual_space, phi_table
from .errors import SpaceError, SizeBoundError
from .lattices import (
    FiniteLattice,
    is_boolean,
    is_scattered_frame,
    is_spatial,
    points,
)
from .nuclei import (
    Nucleus,
    _dual_rows,
    _join_row,
    _meet_row,
    assembly_frame,
    enumerate_nuclei_oracle,
    identity_nucleus,
    top_nucleus,
    validate_nucleus,
)
from .posets import (
    FinitePoset,
    _close,
    _cover_masks,
    _extensions,
    _inclusion_masks,
    _memo,
    _opens_with_point,
    _relation_isomorphism,
    _transpose,
    _upsets,
    image_mask,
    iter_bits,
    preimage_mask,
    set_label,
)
from .spatial import _dual_front_opens, _front_opens

__all__ = [
    "FiniteSpace",
    "QuotientMap",
    "Soberification",
    "PointClassification",
    "ScatterReport",
    "CompactificationReport",
    "SimmonsIsbellReport",
    "open_frame",
    "t0_reflection",
    "soberification",
    "find_homeomorphism",
    "is_sober",
    "front_topology",
    "classify_point",
    "is_scattered",
    "is_scattered_all_subsets",
    "is_weakly_scattered",
    "is_dispersed",
    "is_t_d",
    "scatter_report",
    "sigma",
    "delta",
    "compactification_check",
    "simmons_isbell_report",
    "regular_closed",
    "enumerate_topologies",
]


class FiniteSpace:
    """A finite space as an ordered point list and a validated open family."""

    __slots__ = ("points", "opens", "_index", "_cache")

    def __init__(self, points_seq, opens_seq):
        self.points = tuple(str(p) for p in points_seq)
        if len(set(self.points)) != len(self.points):
            raise SpaceError("duplicate point names")
        self._index = {p: i for i, p in enumerate(self.points)}
        full = (1 << len(self.points)) - 1
        opens = sorted(set(opens_seq))
        for m in opens:
            if m < 0 or m > full:
                raise SpaceError(f"open {bin(m)} is not a subset of the space")
        if 0 not in opens or full not in opens:
            raise SpaceError("opens must contain the empty set and the whole space")
        members = set(opens)
        # each unordered pair once: | and & are symmetric and u | u, u & u
        # are u, so a partner v before u that failed would have failed
        # with u in v's earlier row; the first failing row therefore meets
        # its first failing partner after itself, and the first failure and
        # its message are those of the scan over every ordered pair
        for i, u in enumerate(opens):
            for v in opens[i + 1:]:
                if u | v not in members:
                    raise SpaceError(
                        "opens not closed under union: "
                        f"{set_label(self.points, u)} | {set_label(self.points, v)}"
                    )
                if u & v not in members:
                    raise SpaceError(
                        "opens not closed under intersection: "
                        f"{set_label(self.points, u)} & {set_label(self.points, v)}"
                    )
        self.opens = tuple(opens)
        self._cache = {}

    # -- basics --

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise SpaceError(f"no point named {label!r}") from None

    def check_mask(self, mask: int) -> int:
        if mask < 0 or mask > self.full_mask:
            raise SpaceError(f"mask {bin(mask)} is not a subset of the space")
        return mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.points == other.points and self.opens == other.opens

    def __hash__(self) -> int:
        return hash((self.points, self.opens))

    def __repr__(self) -> str:
        return f"FiniteSpace({len(self.points)} points, {len(self.opens)} opens)"

    # -- topology --

    @_memo("closed")
    def closed_masks(self) -> tuple[int, ...]:
        full = self.full_mask
        return tuple(sorted(full & ~u for u in self.opens))

    def interior(self, mask: int) -> int:
        """The union of the U_x inside mask."""
        self.check_mask(mask)
        out = 0
        for u in self.specialization():
            if u & ~mask == 0:
                out |= u
        return out

    def closure(self, mask: int) -> int:
        """The points y whose U_y meets mask."""
        self.check_mask(mask)
        out = 0
        for y, u in enumerate(self.specialization()):
            if u & mask:
                out |= 1 << y
        return out

    def minimal_open(self, x: int) -> int:
        out = self.full_mask
        for u in self.opens:
            if u >> x & 1:
                out &= u
        return out

    @_memo("spec")
    def specialization(self) -> tuple[int, ...]:
        """Up-masks of the specialization preorder: x <= y iff x lies in
        the closure of {y}, which here means y belongs to every open
        neighbourhood of x."""
        return tuple(self.minimal_open(x) for x in range(self.n))

    def leq(self, x: int, y: int) -> bool:
        return bool(self.specialization()[x] >> y & 1)

    def is_t0(self) -> bool:
        # antisymmetric specialization: no two points share an up-mask
        return len(set(self.specialization())) == self.n

    @_memo("closure_table")
    def _closure_table(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per point x: the closure of {x}, and the class of points that
        share it.  Memoised on the space, in its ``_cache["closure_table"]``."""
        closures = tuple(self.closure(1 << x) for x in range(self.n))
        classes = tuple(
            sum(1 << y for y, d in enumerate(closures) if d == c) for c in closures
        )
        return closures, classes

    def equiv_class(self, x: int) -> int:
        """Points sharing the closure of x."""
        return self._closure_table()[1][x]

    # -- constructors and JSON --

    @classmethod
    def from_preorder(cls, points_seq, pairs) -> "FiniteSpace":
        """The space whose opens are the up-closed sets of a preorder,
        grown one point at a time by ``posets._upsets``."""
        pts = [str(p) for p in points_seq]
        index = {p: i for i, p in enumerate(pts)}
        n = len(pts)
        if n > 16:
            raise SizeBoundError("preorder space construction is capped at 16 points")
        up = [1 << i for i in range(n)]
        for a, b in pairs:
            a, b = str(a), str(b)
            if a not in index or b not in index:
                raise SpaceError(f"relation mentions unknown point {a!r} or {b!r}")
            up[index[a]] |= 1 << index[b]
        _close(up)
        return cls(pts, _upsets(up))

    @classmethod
    def from_json_dict(cls, data: object) -> "FiniteSpace":
        if (
            not isinstance(data, dict)
            or not isinstance(data.get("points"), list)
            or not isinstance(data.get("opens"), list)
        ):
            raise SpaceError('space JSON needs "points" and "opens" lists')
        pts = [str(p) for p in data["points"]]
        index = {p: i for i, p in enumerate(pts)}
        opens = []
        for group in data["opens"]:
            if not isinstance(group, list):
                raise SpaceError("each open must be a list of point names")
            m = 0
            for p in group:
                if str(p) not in index:
                    raise SpaceError(f"open mentions unknown point {p!r}")
                m |= 1 << index[str(p)]
            opens.append(m)
        return cls(pts, opens)

    def to_json_dict(self) -> dict:
        return {
            "points": list(self.points),
            "opens": [[self.points[i] for i in iter_bits(m)] for m in self.opens],
        }


# -- the frame of opens -------------------------------------------------------


@_memo("open_frame")
def open_frame(space: FiniteSpace) -> FiniteLattice:
    """Opens under inclusion; lattice element i is space.opens[i]."""
    labels = [set_label(space.points, m) for m in space.opens]
    return FiniteLattice(FinitePoset.of_family(labels, space.opens))


# -- T0-reflection -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuotientMap:
    source: FiniteSpace
    target: FiniteSpace
    mapping: tuple[int, ...]

    def image_mask(self, mask: int) -> int:
        return image_mask(self.source.check_mask(mask), self.mapping)

    def preimage_mask(self, mask: int) -> int:
        return preimage_mask(self.target.check_mask(mask), self.mapping)


@_memo("t0_reflection")
def t0_reflection(space: FiniteSpace) -> tuple[FiniteSpace, QuotientMap]:
    """Collapse points with equal singleton closures.

    The quotient map is verified to be a continuous open closed
    surjection whose fibers are the closure classes.
    """
    classes: list[int] = []
    mapping = [0] * space.n
    for x in range(space.n):
        cls_mask = space.equiv_class(x)
        if x == next(iter_bits(cls_mask)):
            classes.append(cls_mask)
        mapping[x] = next(
            k for k, m in enumerate(classes) if m >> x & 1
        )
    names = ["|".join(space.points[i] for i in iter_bits(m)) for m in classes]
    target = FiniteSpace(names, (image_mask(u, mapping) for u in space.opens))
    rho = QuotientMap(space, target, tuple(mapping))
    if not target.is_t0():
        raise SpaceError("reflection failed to be T0")  # unreachable
    for u in space.opens:
        if rho.preimage_mask(rho.image_mask(u)) != u:
            raise SpaceError("quotient map is not continuous")  # unreachable
    closed_t = set(target.closed_masks())
    for c in space.closed_masks():
        if rho.image_mask(c) not in closed_t:
            raise SpaceError("quotient map is not closed")  # unreachable
    return target, rho


# -- soberification ------------------------------------------------------------


def find_homeomorphism(a: FiniteSpace, b: FiniteSpace) -> dict[str, str] | None:
    """A point bijection matching both specialization and open families."""
    spec_a = a.specialization()
    spec_b = b.specialization()
    perm = _relation_isomorphism(
        spec_a, _transpose(spec_a, a.n), spec_b, _transpose(spec_b, b.n)
    )
    if perm is None:
        return None
    if {image_mask(u, perm) for u in a.opens} != set(b.opens):
        return None
    return {a.points[i]: b.points[perm[i]] for i in range(a.n)}


@dataclass(frozen=True, eq=False)
class Soberification:
    space: FiniteSpace
    eps: tuple[int, ...]
    open_frame_iso: bool
    matches_t0_reflection: bool


@_memo("soberification")
def soberification(space: FiniteSpace) -> Soberification:
    """The space of completely prime filters of the open frame.

    The sober points are the points of the open frame's dual space, in
    its order, and their opens are phi of each open.  eps sends a point to
    the filter of its neighbourhoods.  The induced map of open frames is
    checked to be an isomorphism, and eps pushed through the T0-reflection
    to be a homeomorphism onto the sober space, with no search.
    """
    frame = open_frame(space)
    names = [f"y{frame.labels[f.generator]}" for f in points(frame)]
    traces = phi_table(dual_space(frame))
    sober = FiniteSpace(names, traces)
    eps = _eps_to_dual(space)
    # continuity: the preimage of each basic open is the open it came from
    for a, u in enumerate(space.opens):
        if preimage_mask(traces[a], eps) != u:
            raise SpaceError("eps is not continuous")  # unreachable
    iso = len(set(traces)) == frame.n and all(
        (u & ~v == 0) == (traces[i] & ~traces[k] == 0)
        for i, u in enumerate(space.opens)
        for k, v in enumerate(space.opens)
    )
    t0_space, _ = t0_reflection(space)
    pushed = _eps_through_reflection(space)
    homeo = sorted(pushed) == list(range(sober.n)) and set(sober.opens) == {
        image_mask(u, pushed) for u in t0_space.opens
    }
    return Soberification(sober, eps, iso, homeo)


def is_sober(space: FiniteSpace) -> bool:
    """Each irreducible closed set is the closure of exactly one point."""
    closed = space.closed_masks()
    for f in closed:
        if f == 0:
            continue
        irreducible = True
        for c in closed:
            if c == f or c & ~f:
                continue
            for d in closed:
                if d != f and d & ~f == 0 and c | d == f:
                    irreducible = False
                    break
            if not irreducible:
                break
        if not irreducible:
            continue
        generic = [x for x, c in enumerate(space._closure_table()[0]) if c == f]
        if len(generic) != 1:
            return False
    return True


# -- front topology and point classification ------------------------------------


@_memo("front")
def front_topology(space: FiniteSpace) -> FiniteSpace:
    """The topology generated by differences of opens."""
    return FiniteSpace(space.points, _front_opens(space.opens))


@_memo("front_sets")
def _front_sets(space: FiniteSpace) -> tuple[frozenset[int], frozenset[int]]:
    """The front-open and the front-closed sets, for membership tests."""
    front = front_topology(space)
    return frozenset(front.opens), frozenset(front.closed_masks())


@dataclass(frozen=True)
class PointClassification:
    isolated: bool
    weakly_isolated: bool
    detached: bool


def _classify_points(space: FiniteSpace, t_mask: int) -> tuple[int, int]:
    """The isolated and the weakly isolated points of the subset T, as
    two masks, from one trace U_x & T per point x of T.

    Every open holding x holds U_x, so some T-neighbourhood of x lies
    inside a set S iff the trace U_x & T does.  U_x & cl(x) is the
    closure class of x (y in U_x means x <= y, y in cl(x) means y <= x),
    so a trace inside cl(x) lies inside class(x): the detached points of
    T are its weakly isolated points.
    """
    up = space.specialization()
    closures = space._closure_table()[0]
    isolated = weakly = 0
    for x in iter_bits(t_mask):
        bit = 1 << x
        trace = up[x] & t_mask
        if trace == bit:
            isolated |= bit
        if trace & ~closures[x] == 0:
            weakly |= bit
    return isolated, weakly


def classify_point(space: FiniteSpace, t_mask: int, x: int) -> PointClassification:
    """Classify x inside the subset T: isolated ({x} open in T), weakly
    isolated (some T-neighbourhood inside the closure of x), detached
    (some T-neighbourhood inside the closure class of x)."""
    space.check_mask(t_mask)
    if not t_mask >> x & 1:
        raise SpaceError("the point must belong to the subset")
    isolated, weakly = (bool(m >> x & 1) for m in _classify_points(space, t_mask))
    return PointClassification(isolated, weakly, weakly)


def _scatter_flags(space: FiniteSpace) -> tuple[bool, bool]:
    """Whether every nonempty closed set has an isolated point, and
    whether every one has a weakly isolated point, in one walk."""
    masks = [_classify_points(space, f) for f in space.closed_masks() if f]
    return all(i for i, _ in masks), all(w for _, w in masks)


def is_scattered(space: FiniteSpace) -> bool:
    """Every nonempty closed subspace has an isolated point."""
    return _scatter_flags(space)[0]


def is_scattered_all_subsets(space: FiniteSpace) -> bool:
    """The all-subspaces form of scatteredness, for cross-checking."""
    return all(
        t == 0 or _classify_points(space, t)[0] for t in range(1 << space.n)
    )


def is_weakly_scattered(space: FiniteSpace) -> bool:
    """Every nonempty closed subspace has a weakly isolated point."""
    return _scatter_flags(space)[1]


# dispersed: every nonempty closed subspace has a detached point.  On a
# finite space the detached points are the weakly isolated ones (see
# ``_classify_points``), so dispersed is weakly scattered by definition.
is_dispersed = is_weakly_scattered


def is_t_d(space: FiniteSpace) -> bool:
    """Every singleton is the intersection of an open and a closed set:
    the smallest candidates are U_x and the closure of x."""
    closures = space._closure_table()[0]
    return all(
        u & closures[x] == 1 << x for x, u in enumerate(space.specialization())
    )


@dataclass(frozen=True)
class ScatterReport:
    scattered: bool
    weakly_scattered: bool
    dispersed: bool
    t_d: bool
    t0: bool


def scatter_report(space: FiniteSpace) -> ScatterReport:
    """The scatteredness hierarchy, with its exchange laws re-verified
    against the T0-reflection."""
    scattered, weakly_scattered = _scatter_flags(space)
    rep = ScatterReport(
        scattered, weakly_scattered, weakly_scattered, is_t_d(space), space.is_t0()
    )
    if rep.scattered != (rep.weakly_scattered and rep.t_d):
        raise SpaceError("scattered disagrees with weakly scattered + T_D")
    t0_scattered, t0_weakly_scattered = _scatter_flags(t0_reflection(space)[0])
    if rep.dispersed != t0_scattered:
        raise SpaceError("dispersed disagrees with scatteredness of the reflection")
    if rep.weakly_scattered != t0_weakly_scattered:
        raise SpaceError("weak scatteredness does not survive the reflection")
    return rep


# -- sigma and delta -------------------------------------------------------------


@_memo("sigma", by=attrgetter("values"))
def sigma(space: FiniteSpace, j: Nucleus) -> int:
    """Union of the growth j(U) minus U over all opens; front-open.

    Each distinct value table is validated as a nucleus once per space,
    and its mask is memoised on the space, in its ``_cache["sigma"]``,
    keyed by ``j.values``; a table that fails validation raises before
    anything is stored, so it raises on every call.
    """
    frame = open_frame(space)
    report = validate_nucleus(frame, j.values)
    if not report.ok:
        raise SpaceError("sigma expects a nucleus on the open frame")
    out = 0
    for a, u in enumerate(space.opens):
        out |= space.opens[j.values[a]] & ~u
    if out not in _front_sets(space)[0]:
        raise SpaceError("sigma produced a set that is not front-open")  # unreachable
    return out


@_memo("eps_dual")
def _eps_to_dual(space: FiniteSpace) -> tuple[int, ...]:
    """eps: each point to the dual point of the open frame whose filter is
    its neighbourhood filter.  The sober points of ``soberification`` are
    the dual points in the same order, so this is eps there too."""
    dual = dual_space(open_frame(space))
    at = {fm: k for k, fm in enumerate(dual.filters)}
    out = []
    for fm in _transpose(space.opens, space.n):
        if fm not in at:
            raise SpaceError("neighbourhood filter of a point is not prime")  # unreachable
        out.append(at[fm])
    return tuple(out)


def _eps_through_reflection(space: FiniteSpace) -> list[int]:
    """eps pushed through the T0-reflection: each class to the dual point
    of its last member."""
    _, rho = t0_reflection(space)
    out = [0] * rho.target.n
    for k, e in zip(rho.mapping, _eps_to_dual(space)):
        out[k] = e
    return out


def delta(space: FiniteSpace, nuclear_mask: int) -> int:
    """Preimage of a nuclear set under eps; front-closed."""
    dual_space(open_frame(space)).poset.check_mask(nuclear_mask)
    out = preimage_mask(nuclear_mask, _eps_to_dual(space))
    if out not in _front_sets(space)[1]:
        raise SpaceError("delta produced a set that is not front-closed")  # unreachable
    return out


# -- compactification of the reflection ------------------------------------------


@dataclass(frozen=True)
class CompactificationReport:
    factors_through_reflection: bool
    injective: bool
    front_continuous: bool
    homeomorphism_onto_image: bool
    image_front_dense: bool

    @property
    def ok(self) -> bool:
        return (
            self.factors_through_reflection
            and self.injective
            and self.front_continuous
            and self.homeomorphism_onto_image
            and self.image_front_dense
        )


def compactification_check(space: FiniteSpace) -> CompactificationReport:
    """eps, pushed through the T0-reflection, embeds the reflection into
    the dual space of the open frame with front-dense image."""
    frame = open_frame(space)
    dual = dual_space(frame)
    eps = _eps_to_dual(space)
    t0_space, rho = t0_reflection(space)
    factors = all(
        eps[x] == eps[y]
        for x in range(space.n)
        for y in range(space.n)
        if rho.mapping[x] == rho.mapping[y]
    )
    eps_prime = _eps_through_reflection(space)
    injective = len(set(eps_prime)) == t0_space.n
    front_s0 = front_topology(t0_space)
    dual_fronts = _dual_front_opens(dual)
    image = image_mask(t0_space.full_mask, eps_prime)
    front_s0_opens = set(front_s0.opens)
    continuous = all(
        preimage_mask(m, eps_prime) in front_s0_opens for m in dual_fronts
    )
    pushed = {image_mask(u, eps_prime) for u in front_s0.opens}
    traces = {m & image for m in dual_fronts}
    homeo = injective and pushed == traces
    cl = dual.poset.full_mask
    for m in dual_fronts:
        c = dual.poset.full_mask & ~m
        if image & ~c == 0:
            cl &= c
    dense = cl == dual.poset.full_mask
    return CompactificationReport(factors, injective, continuous, homeo, dense)


# -- the Simmons and Isbell dichotomies -------------------------------------------


@dataclass(frozen=True)
class SimmonsIsbellReport:
    weakly_scattered: bool
    sigma_injective: bool
    sigma_onto_front_opens: bool
    sigma_frame_hom: bool
    delta_injective: bool
    delta_onto_front_closed: bool
    delta_coframe_hom: bool
    nonempty_nuclear_hits_space: bool
    sigma_delta_identity: bool
    assembly_spatial: bool
    sober_weakly_scattered: bool
    assembly_boolean: bool
    dispersed: bool
    frame_scattered: bool

    @property
    def simmons_agree(self) -> bool:
        return (
            len(
                {
                    self.weakly_scattered,
                    self.sigma_injective,
                    self.delta_injective,
                    self.nonempty_nuclear_hits_space,
                }
            )
            == 1
        )

    @property
    def isbell_agree(self) -> bool:
        return self.assembly_spatial == self.sober_weakly_scattered

    @property
    def boolean_agree(self) -> bool:
        return len({self.assembly_boolean, self.dispersed, self.frame_scattered}) == 1

    @property
    def ok(self) -> bool:
        return (
            self.simmons_agree
            and self.isbell_agree
            and self.boolean_agree
            and self.sigma_onto_front_opens
            and self.sigma_frame_hom
            and self.delta_onto_front_closed
            and self.delta_coframe_hom
            and self.sigma_delta_identity
        )


def _irreducible_nuclei(nucs: list[Nucleus]) -> tuple[list[int], list[int]]:
    """Indices of the join- and of the meet-irreducibles of N(L) in a list
    of all nuclei, read off the list alone.

    j <= k pointwise iff Fix(k) is a subset of Fix(j), so the order is
    the inclusion order of the fixpoint bitmasks, reversed.  A
    join-irreducible has exactly one lower cover and a meet-irreducible
    exactly one upper cover.
    """
    fix = [
        sum(1 << a for a, v in enumerate(j.values) if v == a) for j in nucs
    ]
    # bit k of up[i]: Fix(i) inside Fix(k), so nucs[k] <= nucs[i]
    up, down = _inclusion_masks(fix)
    lower = _cover_masks([m & ~(1 << i) for i, m in enumerate(up)])
    upper = _cover_masks([m & ~(1 << i) for i, m in enumerate(down)])
    return (
        [i for i, c in enumerate(lower) if c.bit_count() == 1],
        [i for i, c in enumerate(upper) if c.bit_count() == 1],
    )


def _prime_pairs(primes: list[int], count: int):
    """Each unordered pair {a, p} of distinct indices below count with p
    in primes, once."""
    seen = 0
    for p in primes:
        seen |= 1 << p
        for a in range(count):
            if not seen >> a & 1:
                yield a, p


def simmons_isbell_report(space: FiniteSpace) -> SimmonsIsbellReport:
    """Each side of the Simmons and Isbell dichotomies, computed on its
    own and compared.  Nuclei come from the closure-system (NextClosure)
    oracle so that sigma's injectivity is decided on a list the assembly
    did not produce.

    The homomorphism flags check pairs in which one argument is prime.
    On a finite lattice a map f with f(0) = 0 preserves binary joins iff
    f(a v p) = f(a) v f(p) for every a and every join-irreducible p:
    write b as a join of join-irreducibles and absorb them one at a time
    (B. A. Davey and H. A. Priestley, *Introduction to Lattices and
    Order*, 2nd ed., 2002, ch. 5).  Dually for meets, f(1) = 1 and the
    meet-irreducibles.  So sigma is checked against joins with the
    join-irreducibles of N(L) and meets with its meet-irreducibles, both
    found on the oracle's list, and delta against unions with singletons
    and intersections with co-singletons.

    The pairs are taken on positions in the oracle's list.  Each nucleus
    has its packed row (``nuclei._dual_rows``), its nuclear set, read off
    that row (``_PackedRows.nuclear_set``), and its sigma computed once.
    A meet is the & of two rows (``_meet_row``); a join (``_join_row``)
    reads the intersection of two nuclear sets back into a nucleus and
    checks it against the iteration from the | of two rows, raising if
    they disagree.  The resulting row is looked up in
    the list for its sigma; a row not there is unpacked and passed to
    ``sigma``, which validates it, as any other table.
    """
    frame = open_frame(space)
    dual = dual_space(frame)
    asm = assembly_frame(frame)
    nucs = enumerate_nuclei_oracle(frame)
    packed = _dual_rows(dual)
    # packed, not stored: no caller reads these rows after the report
    rows = [packed.pack(j.values) for j in nucs]
    at = {row: i for i, row in enumerate(rows)}
    sets = [packed.nuclear_set(row) for row in rows]
    sigmas = [sigma(space, j) for j in nucs]
    sig_inj = len(set(sigmas)) == len(nucs)
    front_open, front_closed = _front_sets(space)
    sig_onto = set(sigmas) == front_open
    hom = sigma(space, identity_nucleus(frame)) == 0
    hom = hom and sigma(space, top_nucleus(frame)) == space.full_mask

    def sigma_of(row: int) -> int:
        # a row off the oracle's list is unpacked and validated by sigma
        i = at.get(row)
        return sigmas[i] if i is not None else sigma(space, Nucleus(packed.unpack(row)))

    join_irr, meet_irr = _irreducible_nuclei(nucs)
    for a, p in _prime_pairs(join_irr, len(nucs)):
        joined = _join_row(frame, dual, sets[a] & sets[p], [rows[a], rows[p]])
        if sigma_of(joined) != sigmas[a] | sigmas[p]:
            hom = False
    for a, m in _prime_pairs(meet_irr, len(nucs)):
        if sigma_of(_meet_row(frame, [rows[a], rows[m]])) != sigmas[a] & sigmas[m]:
            hom = False
    deltas = {m: delta(space, m) for m in asm.sets}
    del_inj = len(set(deltas.values())) == len(asm.sets)
    del_onto = set(deltas.values()) == front_closed
    full = dual.poset.full_mask
    del_hom = all(
        deltas[a | s] == deltas[a] | deltas[s]
        and deltas[a & ~s] == deltas[a] & deltas[full & ~s]
        for s in (1 << x for x in range(dual.n))
        for a in asm.sets
    )
    hits = all(m == 0 or deltas[m] != 0 for m in asm.sets)
    identity = all(
        sig == space.full_mask & ~deltas[m] for sig, m in zip(sigmas, sets)
    )
    asm_spatial, _ = is_spatial(asm.lattice)
    weakly_scattered = _scatter_flags(space)[1]
    return SimmonsIsbellReport(
        weakly_scattered=weakly_scattered,
        sigma_injective=sig_inj,
        sigma_onto_front_opens=sig_onto,
        sigma_frame_hom=hom,
        delta_injective=del_inj,
        delta_onto_front_closed=del_onto,
        delta_coframe_hom=del_hom,
        nonempty_nuclear_hits_space=hits,
        sigma_delta_identity=identity,
        assembly_spatial=asm_spatial,
        sober_weakly_scattered=_scatter_flags(soberification(space).space)[1],
        assembly_boolean=is_boolean(asm.lattice),
        dispersed=weakly_scattered,
        frame_scattered=is_scattered_frame(frame),
    )


# -- regular closed sets and enumeration -------------------------------------------


def regular_closed(space: FiniteSpace) -> tuple[int, ...]:
    """Closed sets equal to the closure of their interior."""
    return tuple(
        f for f in space.closed_masks() if space.closure(space.interior(f)) == f
    )


def _topologies(n: int) -> Iterator[FiniteSpace]:
    """The spaces of ``enumerate_topologies``, each built when it is asked
    for.  A level holds one family mask per preorder, and each parent's
    opens are read back off its mask to grow the next level."""
    if n < 0:
        raise ValueError(f"{n} is not a non-negative integer")
    cap = topology_bound()
    if n > cap:
        raise SizeBoundError(f"topology enumeration refused for {n} points (bound {cap})")
    level = [1]  # the family holding only the empty open
    for k in range(n):
        level = [
            sum(1 << m for m in _opens_with_point(opens, k, below, above))
            for opens in (list(iter_bits(family)) for family in level)
            for below, above in _extensions(opens, k)
        ]
    level.sort()
    pts = [str(i) for i in range(n)]
    return (FiniteSpace(pts, iter_bits(family)) for family in level)


def enumerate_topologies(n: int) -> list[FiniteSpace]:
    """All labeled topologies on points 0..n-1, in ascending order of the
    family mask (the sum of 2^m over the opens m).

    A finite topology is the family of upsets of its specialization
    preorder, so the topologies on n points are the labeled preorders
    (OEIS A000798).  They are grown one point at a time: each preorder on
    points 0..k-1 takes the new point k at every pair that
    ``posets._extensions`` reads off its opens, and the new opens come from
    the old ones through ``posets._opens_with_point``.  So the work follows
    the output, not the 2^(2^n) set families.  (Posets up to isomorphism
    need only a new maximal point over each upset, as every poset is a
    smaller poset plus a maximal point.)
    """
    return list(_topologies(n))
