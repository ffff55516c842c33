"""Finite topological spaces with explicit open families.

Points are indexed positions; subsets are bitmasks over those positions.
The open family is stored literally (every finite topology is determined
by its specialization preorder, but keeping the family explicit lets
every operation follow its definition, including on non-T0 spaces).
Opens are normalized to ascending mask order at construction, and
open_frame relies on that: lattice element i is the i-th open.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import topology_bound
from .duality import dual_space
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
    assembly_frame,
    enumerate_nuclei_oracle,
    identity_nucleus,
    nuclei_join,
    nuclei_meet,
    to_nuclear_set,
    top_nucleus,
    validate_nucleus,
)
from .posets import (
    FinitePoset,
    _close,
    _relation_isomorphism,
    inclusion_up_masks,
    iter_bits,
    set_label,
)
from .spatial import _front_opens, front_open_masks

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
        for u in opens:
            for v in opens:
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

    def closed_masks(self) -> tuple[int, ...]:
        got = self._cache.get("closed")
        if got is None:
            full = self.full_mask
            got = tuple(sorted(full & ~u for u in self.opens))
            self._cache["closed"] = got
        return got

    def interior(self, mask: int) -> int:
        self.check_mask(mask)
        out = 0
        for u in self.opens:
            if u & ~mask == 0:
                out |= u
        return out

    def closure(self, mask: int) -> int:
        self.check_mask(mask)
        out = self.full_mask
        for c in self.closed_masks():
            if mask & ~c == 0:
                out &= c
        return out

    def minimal_open(self, x: int) -> int:
        out = self.full_mask
        for u in self.opens:
            if u >> x & 1:
                out &= u
        return out

    def specialization(self) -> tuple[int, ...]:
        """Up-masks of the specialization preorder: x <= y iff x lies in
        the closure of {y}, which here means y belongs to every open
        neighbourhood of x."""
        got = self._cache.get("spec")
        if got is None:
            got = tuple(self.minimal_open(x) for x in range(self.n))
            self._cache["spec"] = got
        return got

    def leq(self, x: int, y: int) -> bool:
        return bool(self.specialization()[x] >> y & 1)

    def is_t0(self) -> bool:
        up = self.specialization()
        return all(
            not (up[x] >> y & 1 and up[y] >> x & 1)
            for x in range(self.n)
            for y in range(self.n)
            if x != y
        )

    def equiv_class(self, x: int) -> int:
        """Points sharing the closure of x."""
        cx = self.closure(1 << x)
        out = 0
        for y in range(self.n):
            if self.closure(1 << y) == cx:
                out |= 1 << y
        return out

    # -- constructors and JSON --

    @classmethod
    def from_preorder(cls, points_seq, pairs) -> "FiniteSpace":
        """The space whose opens are the up-closed sets of a preorder."""
        pts = [str(p) for p in points_seq]
        index = {p: i for i, p in enumerate(pts)}
        n = len(pts)
        if n > 16:
            raise SizeBoundError("preorder space construction is capped at 16 points")
        up = [1 << i for i in range(n)]
        for a, b in pairs:
            up[index[str(a)]] |= 1 << index[str(b)]
        _close(up)
        opens = [
            m
            for m in range(1 << n)
            if all(up[i] & ~m == 0 for i in iter_bits(m))
        ]
        return cls(pts, opens)

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


def open_frame(space: FiniteSpace) -> FiniteLattice:
    """Opens under inclusion; lattice element i is space.opens[i]."""
    got = space._cache.get("open_frame")
    if got is None:
        labels = [set_label(space.points, m) for m in space.opens]
        got = FiniteLattice(
            FinitePoset.from_up_masks(labels, inclusion_up_masks(space.opens))
        )
        space._cache["open_frame"] = got
    return got


# -- T0-reflection -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuotientMap:
    source: FiniteSpace
    target: FiniteSpace
    mapping: tuple[int, ...]

    def image_mask(self, mask: int) -> int:
        out = 0
        for i in iter_bits(self.source.check_mask(mask)):
            out |= 1 << self.mapping[i]
        return out

    def preimage_mask(self, mask: int) -> int:
        self.target.check_mask(mask)
        out = 0
        for i, c in enumerate(self.mapping):
            if mask >> c & 1:
                out |= 1 << i
        return out


def t0_reflection(space: FiniteSpace) -> tuple[FiniteSpace, QuotientMap]:
    """Collapse points with equal singleton closures.

    The quotient map is verified to be a continuous open closed
    surjection whose fibers are the closure classes.
    """
    got = space._cache.get("t0_reflection")
    if got is not None:
        return got
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

    def img(mask: int) -> int:
        out = 0
        for i in iter_bits(mask):
            out |= 1 << mapping[i]
        return out

    target = FiniteSpace(names, (img(u) for u in space.opens))
    rho = QuotientMap(space, target, tuple(mapping))
    if not target.is_t0():
        raise SpaceError("reflection failed to be T0")  # unreachable
    for u in space.opens:
        if rho.preimage_mask(img(u)) != u:
            raise SpaceError("quotient map is not continuous")  # unreachable
    closed_t = set(target.closed_masks())
    for c in space.closed_masks():
        if img(c) not in closed_t:
            raise SpaceError("quotient map is not closed")  # unreachable
    got = (target, rho)
    space._cache["t0_reflection"] = got
    return got


# -- soberification ------------------------------------------------------------


def find_homeomorphism(a: FiniteSpace, b: FiniteSpace) -> dict[str, str] | None:
    """A point bijection matching both specialization and open families."""
    perm = _relation_isomorphism(a.specialization(), b.specialization())
    if perm is None:
        return None
    mapped = set()
    for u in a.opens:
        out = 0
        for i in iter_bits(u):
            out |= 1 << perm[i]
        mapped.add(out)
    if mapped != set(b.opens):
        return None
    return {a.points[i]: b.points[perm[i]] for i in range(a.n)}


@dataclass(frozen=True, eq=False)
class Soberification:
    space: FiniteSpace
    eps: tuple[int, ...]
    open_frame_iso: bool
    matches_t0_reflection: bool


def soberification(space: FiniteSpace) -> Soberification:
    """The space of completely prime filters of the open frame.

    eps sends a point to the filter of its neighbourhoods.  The induced
    map of open frames is checked to be an isomorphism, and the result is
    checked homeomorphic to the T0-reflection.
    """
    got = space._cache.get("soberification")
    if got is not None:
        return got
    frame = open_frame(space)
    pts = points(frame)
    names = [f"y{frame.labels[f.generator]}" for f in pts]
    traces = []
    for a in range(frame.n):
        m = 0
        for k, f in enumerate(pts):
            if f.members >> a & 1:
                m |= 1 << k
        traces.append(m)
    sober = FiniteSpace(names, traces)
    by_members = {f.members: k for k, f in enumerate(pts)}
    eps = []
    for s in range(space.n):
        fm = 0
        for a, u in enumerate(space.opens):
            if u >> s & 1:
                fm |= 1 << a
        if fm not in by_members:
            raise SpaceError("neighbourhood filter of a point is not prime")  # unreachable
        eps.append(by_members[fm])
    # continuity: the preimage of each basic open is the open it came from
    for a, u in enumerate(space.opens):
        pre = 0
        for s in range(space.n):
            if traces[a] >> eps[s] & 1:
                pre |= 1 << s
        if pre != u:
            raise SpaceError("eps is not continuous")  # unreachable
    iso = len(set(traces)) == frame.n and all(
        (u & ~v == 0) == (traces[i] & ~traces[k] == 0)
        for i, u in enumerate(space.opens)
        for k, v in enumerate(space.opens)
    )
    t0_space, _ = t0_reflection(space)
    got = Soberification(
        sober, tuple(eps), iso, find_homeomorphism(sober, t0_space) is not None
    )
    space._cache["soberification"] = got
    return got


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
        generic = [x for x in range(space.n) if space.closure(1 << x) == f]
        if len(generic) != 1:
            return False
    return True


# -- front topology and point classification ------------------------------------


def front_topology(space: FiniteSpace) -> FiniteSpace:
    """The topology generated by differences of opens."""
    got = space._cache.get("front")
    if got is None:
        got = FiniteSpace(space.points, _front_opens(space.opens))
        space._cache["front"] = got
    return got


@dataclass(frozen=True)
class PointClassification:
    isolated: bool
    weakly_isolated: bool
    detached: bool


def classify_point(space: FiniteSpace, t_mask: int, x: int) -> PointClassification:
    """Classify x inside the subset T: isolated ({x} open in T), weakly
    isolated (some T-neighbourhood inside the closure of x), detached
    (some T-neighbourhood inside the closure class of x)."""
    space.check_mask(t_mask)
    if not t_mask >> x & 1:
        raise SpaceError("the point must belong to the subset")
    bit = 1 << x
    cl = space.closure(bit)
    cls_mask = space.equiv_class(x)
    isolated = any(u & t_mask == bit for u in space.opens)
    weakly = any(u >> x & 1 and (u & t_mask) & ~cl == 0 for u in space.opens)
    detached = any(u >> x & 1 and (u & t_mask) & ~cls_mask == 0 for u in space.opens)
    if (isolated and not weakly) or (detached and not weakly):
        raise SpaceError("point classification hierarchy violated")  # unreachable
    return PointClassification(isolated, weakly, detached)


def _has_with(space: FiniteSpace, t_mask: int, kind: str) -> bool:
    for x in iter_bits(t_mask):
        c = classify_point(space, t_mask, x)
        if getattr(c, kind):
            return True
    return False


def is_scattered(space: FiniteSpace) -> bool:
    """Every nonempty closed subspace has an isolated point."""
    return all(
        f == 0 or _has_with(space, f, "isolated") for f in space.closed_masks()
    )


def is_scattered_all_subsets(space: FiniteSpace) -> bool:
    """The all-subspaces form of scatteredness, for cross-checking."""
    return all(
        t == 0 or _has_with(space, t, "isolated")
        for t in range(1 << space.n)
    )


def is_weakly_scattered(space: FiniteSpace) -> bool:
    return all(
        f == 0 or _has_with(space, f, "weakly_isolated")
        for f in space.closed_masks()
    )


def is_dispersed(space: FiniteSpace) -> bool:
    return all(
        f == 0 or _has_with(space, f, "detached") for f in space.closed_masks()
    )


def is_t_d(space: FiniteSpace) -> bool:
    """Every singleton is the intersection of an open and a closed set."""
    closed = space.closed_masks()
    return all(
        any(u & c == 1 << x for u in space.opens for c in closed)
        for x in range(space.n)
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
    rep = ScatterReport(
        is_scattered(space),
        is_weakly_scattered(space),
        is_dispersed(space),
        is_t_d(space),
        space.is_t0(),
    )
    if rep.scattered != (rep.weakly_scattered and rep.t_d):
        raise SpaceError("scattered disagrees with weakly scattered + T_D")
    t0_space, _ = t0_reflection(space)
    if rep.dispersed != is_scattered(t0_space):
        raise SpaceError("dispersed disagrees with scatteredness of the reflection")
    if rep.weakly_scattered != is_weakly_scattered(t0_space):
        raise SpaceError("weak scatteredness does not survive the reflection")
    return rep


# -- sigma and delta -------------------------------------------------------------


def sigma(space: FiniteSpace, j: Nucleus) -> int:
    """Union of the growth j(U) minus U over all opens; front-open.

    Each distinct value table is validated as a nucleus once per space,
    and its mask is memoised in the space's cache by the table; a table
    that fails validation is never stored, so it raises on every call.
    """
    memo = space._cache.setdefault("sigma", {})
    out = memo.get(j.values)
    if out is not None:
        return out
    frame = open_frame(space)
    report = validate_nucleus(frame, j.values)
    if not report.ok:
        raise SpaceError("sigma expects a nucleus on the open frame")
    out = 0
    for a, u in enumerate(space.opens):
        out |= space.opens[j.values[a]] & ~u
    if out not in set(front_topology(space).opens):
        raise SpaceError("sigma produced a set that is not front-open")  # unreachable
    memo[j.values] = out
    return out


def _eps_to_dual(space: FiniteSpace) -> tuple[int, ...]:
    """eps landing in the dual space of the open frame; the sober points
    carry the same filters, so the two codomains are identified by
    matching filter members."""
    got = space._cache.get("eps_dual")
    if got is None:
        frame = open_frame(space)
        dual = dual_space(frame)
        out = []
        for s in range(space.n):
            fm = 0
            for a, u in enumerate(space.opens):
                if u >> s & 1:
                    fm |= 1 << a
            out.append(dual.filters.index(fm))
        got = tuple(out)
        space._cache["eps_dual"] = got
    return got


def delta(space: FiniteSpace, nuclear_mask: int) -> int:
    """Preimage of a nuclear set under eps; front-closed."""
    dual_space(open_frame(space)).poset.check_mask(nuclear_mask)
    eps = _eps_to_dual(space)
    out = 0
    for s in range(space.n):
        if nuclear_mask >> eps[s] & 1:
            out |= 1 << s
    front = front_topology(space)
    if out not in set(front.closed_masks()):
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
    eps_prime = [None] * t0_space.n
    for x in range(space.n):
        eps_prime[rho.mapping[x]] = eps[x]
    injective = len(set(eps_prime)) == t0_space.n
    front_s0 = front_topology(t0_space)
    dual_fronts = front_open_masks(dual.poset)
    image = 0
    for p in eps_prime:
        image |= 1 << p
    front_s0_opens = set(front_s0.opens)

    def pull(mask: int) -> int:
        out = 0
        for k, p in enumerate(eps_prime):
            if mask >> p & 1:
                out |= 1 << k
        return out

    continuous = all(pull(m) in front_s0_opens for m in dual_fronts)
    pushed = set()
    for u in front_s0.opens:
        out = 0
        for k in iter_bits(u):
            out |= 1 << eps_prime[k]
        pushed.add(out)
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


def simmons_isbell_report(space: FiniteSpace) -> SimmonsIsbellReport:
    """Each side of the Simmons and Isbell dichotomies, computed on its
    own and compared.  Nuclei come from the subset-scan oracle so that
    sigma's injectivity is decided on a list the assembly did not
    produce."""
    frame = open_frame(space)
    dual = dual_space(frame)
    asm = assembly_frame(frame)
    nucs = enumerate_nuclei_oracle(frame)
    sigmas = [sigma(space, j) for j in nucs]
    sig_inj = len(set(sigmas)) == len(nucs)
    front = front_topology(space)
    sig_onto = set(sigmas) == set(front.opens)
    hom = sigma(space, identity_nucleus(frame)) == 0
    hom = hom and sigma(space, top_nucleus(frame)) == space.full_mask
    for i, j in enumerate(nucs):
        for k in range(i + 1, len(nucs)):
            pair = [j, nucs[k]]
            if sigma(space, nuclei_meet(frame, pair)) != sigmas[i] & sigmas[k]:
                hom = False
            if sigma(space, nuclei_join(frame, dual, pair)) != sigmas[i] | sigmas[k]:
                hom = False
    deltas = {m: delta(space, m) for m in asm.sets}
    del_inj = len(set(deltas.values())) == len(asm.sets)
    front_closed = set(front.closed_masks())
    del_onto = set(deltas.values()) == front_closed
    del_hom = all(
        deltas[a | b] == (deltas[a] | deltas[b]) and deltas[a & b] == deltas[a] & deltas[b]
        for a in asm.sets
        for b in asm.sets
    )
    hits = all(m == 0 or deltas[m] != 0 for m in asm.sets)
    identity = all(
        sigma(space, j) == space.full_mask & ~deltas[to_nuclear_set(dual, j)]
        for j in nucs
    )
    asm_spatial, _ = is_spatial(asm.lattice)
    sober = soberification(space)
    sober_ws = is_weakly_scattered(sober.space)
    return SimmonsIsbellReport(
        weakly_scattered=is_weakly_scattered(space),
        sigma_injective=sig_inj,
        sigma_onto_front_opens=sig_onto,
        sigma_frame_hom=hom,
        delta_injective=del_inj,
        delta_onto_front_closed=del_onto,
        delta_coframe_hom=del_hom,
        nonempty_nuclear_hits_space=hits,
        sigma_delta_identity=identity,
        assembly_spatial=asm_spatial,
        sober_weakly_scattered=sober_ws,
        assembly_boolean=is_boolean(asm.lattice),
        dispersed=is_dispersed(space),
        frame_scattered=is_scattered_frame(frame),
    )


# -- regular closed sets and enumeration -------------------------------------------


def regular_closed(space: FiniteSpace) -> tuple[int, ...]:
    """Closed sets equal to the closure of their interior."""
    return tuple(
        f for f in space.closed_masks() if space.closure(space.interior(f)) == f
    )


def enumerate_topologies(n: int, *, bound: int | None = None) -> list[FiniteSpace]:
    """All labeled topologies on points 0..n-1, by scanning set families."""
    cap = topology_bound() if bound is None else bound
    if n > cap:
        raise SizeBoundError(f"topology enumeration refused for {n} points (bound {cap})")
    pts = [str(i) for i in range(n)]
    subsets = 1 << n
    full = subsets - 1
    out = []
    for fam in range(1 << subsets):
        if not fam & 1 or not fam >> full & 1:
            continue
        members = [m for m in range(subsets) if fam >> m & 1]
        ok = True
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if not fam >> (u | v) & 1 or not fam >> (u & v) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(FiniteSpace(pts, members))
    return out
