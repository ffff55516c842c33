"""Finite bounded distributive lattices as Heyting algebras and frames.

Every FiniteLattice is kept in a canonical internal form: the carrier is
re-represented as the family of upsets of a small base poset (the
join-irreducibles under the reversed order), so binary meet and join are
bitmask intersection and union.  Construction validates the lattice and
distributive laws; the original labels and order are kept for I/O.

Meets and joins are found by principal-mask lookup: i*j exists iff
down(i) & down(j) is the down-mask of some element, which is then the
meet (joins mirror this with up-masks), so a failed lookup is a missing
bound.  The implication table keeps the sup-based definition, a->b the
largest x with a*x <= b, solved per row over the fibres of x -> a*x
(see FiniteLattice.imp); duality.upset_algebra checks every entry
against the dual-space formula.

Conventions: the top element does not count as meet-prime and the bottom
does not count as join-irreducible.  An empty meet is the top, an empty
join is the bottom.  The one-element lattice is accepted everywhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import LatticeError, PosetError
from .posets import FinitePoset, inclusion_up_masks, iter_bits, set_label, upset_masks

__all__ = [
    "FiniteLattice",
    "LatticeReport",
    "Filter",
    "EssentialPrimes",
    "Booleanization",
    "validate_order",
    "birkhoff_lattice",
    "meet_primes",
    "join_irreducibles",
    "prime_filters",
    "completely_prime_filters",
    "points",
    "is_spatial",
    "dense_above",
    "smallest_dense",
    "is_scattered_frame",
    "min_primes",
    "essential_primes",
    "complement_of",
    "is_boolean",
    "booleanization",
    "lattice_from_json_dict",
]


def _bound_tables(
    poset: FinitePoset,
) -> tuple[list[list[int | None]], list[list[int | None]]]:
    """Meet and join tables by principal-mask lookup, None where missing.

    i*j exists iff down(i) & down(j) is the down-mask of some element,
    which is then the meet; joins mirror this with up-masks.
    """
    down = [poset.down_mask(i) for i in range(poset.n)]
    up = [poset.up_mask(i) for i in range(poset.n)]
    glb = {m: g for g, m in enumerate(down)}
    lub = {m: g for g, m in enumerate(up)}
    meet_t = [[glb.get(d & e) for e in down] for d in down]
    join_t = [[lub.get(u & v) for v in up] for u in up]
    return meet_t, join_t


def _missing_bound(
    meet_t: list[list[int | None]], join_t: list[list[int | None]]
) -> tuple[str, int, int] | None:
    """The first pair (i, j), row by row, without a meet or a join.

    The tables are symmetric, so the first row holding a gap has all its
    gaps at j >= i, and a meet gap is named before a join gap there.
    """
    for i, (mrow, jrow) in enumerate(zip(meet_t, join_t)):
        if None in mrow or None in jrow:
            for j in range(i, len(mrow)):
                if mrow[j] is None:
                    return "meet", i, j
                if jrow[j] is None:
                    return "join", i, j
    return None


class FiniteLattice:
    """A finite bounded distributive lattice over an explicit order."""

    __slots__ = (
        "poset",
        "bot",
        "top",
        "meet_t",
        "join_t",
        "base",
        "upset_of",
        "of_mask",
        "_cache",
    )

    def __init__(self, poset: FinitePoset):
        n = poset.n
        if n == 0:
            raise LatticeError("empty carrier cannot be a bounded lattice")
        meet_t, join_t = _bound_tables(poset)
        missing = _missing_bound(meet_t, join_t)
        if missing is not None:
            kind, i, j = missing
            raise LatticeError(
                f"no {kind} for {poset.elements[i]!r} and {poset.elements[j]!r}"
            )
        bot = 0
        top = 0
        for i in range(1, n):
            bot = meet_t[bot][i]
            top = join_t[top][i]

        # join-irreducible iff exactly one lower cover (finite lattices),
        # i.e. iff the strict downset is principal; the bottom's is empty
        principal = {poset.down_mask(g) for g in range(n)}
        irr = [a for a in range(n) if poset.down_mask(a) & ~(1 << a) in principal]

        upset_of = []
        for a in range(n):
            m = 0
            for k, x in enumerate(irr):
                if poset.leq_i(x, a):
                    m |= 1 << k
            upset_of.append(m)
        # the base orders irr reversed: x's up-mask is the irr below it
        base = FinitePoset.from_up_masks(
            [poset.elements[a] for a in irr], [upset_of[a] for a in irr]
        )

        masks = upset_masks(base)
        of_mask = {m: None for m in masks}
        ok = len(set(upset_of)) == n and len(masks) == n
        if ok:
            for a, m in enumerate(upset_of):
                if m not in of_mask or of_mask[m] is not None:
                    ok = False
                    break
                of_mask[m] = a
        if ok:
            ok = all(
                [of_mask[u & v] for v in upset_of] == meet_t[i]
                and [of_mask[u | v] for v in upset_of] == join_t[i]
                for i, u in enumerate(upset_of)
            )
        if not ok:
            witness = _distributivity_witness(poset.elements, meet_t, join_t)
            assert witness is not None, "non-distributive lattice without witness triple"
            raise LatticeError(
                "not distributive: a*(b+c) != (a*b)+(a*c) for "
                f"a={witness[0]!r} b={witness[1]!r} c={witness[2]!r}"
            )

        self.poset = poset
        self.bot = bot
        self.top = top
        self.meet_t = meet_t
        self.join_t = join_t
        self.base = base
        self.upset_of = tuple(upset_of)
        self.of_mask = of_mask
        self._cache: dict = {}

    # -- basic structure -------------------------------------------------

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.poset.elements

    def index(self, label: str) -> int:
        return self.poset.index(label)

    def leq(self, a: int, b: int) -> bool:
        return self.poset.leq_i(a, b)

    def meet(self, a: int, b: int) -> int:
        return self.meet_t[a][b]

    def join(self, a: int, b: int) -> int:
        return self.join_t[a][b]

    def meet_all(self, items: Iterable[int]) -> int:
        mask = self.upset_of[self.top]
        for a in items:
            mask &= self.upset_of[a]
        return self.of_mask[mask]

    def join_all(self, items: Iterable[int]) -> int:
        mask = self.upset_of[self.bot]
        for a in items:
            mask |= self.upset_of[a]
        return self.of_mask[mask]

    def imp(self, a: int, b: int) -> int:
        """Heyting implication: the largest x with a*x <= b.

        The table is built row by row from that definition.  In row a the
        carrier is grouped by the meet a*x, one element mask per value
        m <= a.  Since a*x <= b iff a*x <= a*b, a->b = a->(a*b), so only
        the targets k <= a are solved: the x with a*x <= k are the union
        of the groups of the m <= k, a downset whose generator is a->k.
        """
        table = self._cache.get("imp")
        if table is None:
            poset = self.poset
            n = self.n
            down = [poset.down_mask(k) for k in range(n)]
            below = [list(iter_bits(d)) for d in down]
            principal = {d: g for g, d in enumerate(down)}
            table = []
            for i in range(n):
                meets = self.meet_t[i]
                group = [0] * n
                for x, m in enumerate(meets):
                    group[m] |= 1 << x
                solved = {}
                for k in below[i]:
                    sat = 0
                    for m in below[k]:
                        sat |= group[m]
                    g = principal.get(sat)
                    if g is None:
                        raise LatticeError(  # unreachable
                            f"no greatest x with {self.labels[i]!r}*x <= {self.labels[k]!r}"
                        )
                    solved[k] = g
                table.append([solved[m] for m in meets])
            self._cache["imp"] = table
        return table[a][b]

    def neg(self, a: int) -> int:
        return self.imp(a, self.bot)

    def __repr__(self) -> str:
        return f"FiniteLattice({self.n} elements, bot={self.labels[self.bot]!r}, top={self.labels[self.top]!r})"

    def to_json_dict(self) -> dict:
        return {"elements": list(self.labels), "leq": [list(p) for p in self.poset.covers()]}


def _distributivity_witness(
    labels: Sequence[str], meet_t: list[list[int]], join_t: list[list[int]]
) -> tuple[str, str, str] | None:
    n = len(labels)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet_t[a][join_t[b][c]] != join_t[meet_t[a][b]][meet_t[a][c]]:
                    return (labels[a], labels[b], labels[c])
    return None


# -- validation -----------------------------------------------------------


@dataclass(frozen=True)
class LatticeReport:
    ok: bool
    is_poset: bool
    has_meets: bool
    has_joins: bool
    bounded: bool
    distributive: bool
    problems: tuple[str, ...]
    witness: tuple[str, ...] | None


def validate_order(
    elements: Sequence[str], relation: Iterable[tuple[str, str]]
) -> LatticeReport:
    """Check lattice and distributivity axioms over a raw order, reporting
    the first witness of each failure instead of raising."""
    problems: list[str] = []
    witness: tuple[str, ...] | None = None
    try:
        poset = FinitePoset(elements, relation)
    except PosetError as exc:
        return LatticeReport(False, False, False, False, False, False, (str(exc),), None)
    n = poset.n
    if n == 0:
        return LatticeReport(
            False, True, False, False, False, False, ("empty carrier",), None
        )
    meet_t, join_t = _bound_tables(poset)
    has_meets = not any(None in row for row in meet_t)
    has_joins = not any(None in row for row in join_t)
    missing = _missing_bound(meet_t, join_t)
    if missing is not None:
        kind, i, j = missing
        witness = (elements[i], elements[j])
        problems.append(f"no {kind} for {elements[i]!r}, {elements[j]!r}")
    bounded = has_meets and has_joins  # folds exist once binary ops do
    distributive = False
    if has_meets and has_joins:
        tri = _distributivity_witness(poset.elements, meet_t, join_t)
        distributive = tri is None
        if tri is not None:
            witness = tri
            problems.append(
                f"distributivity fails at a={tri[0]!r} b={tri[1]!r} c={tri[2]!r}"
            )
    ok = has_meets and has_joins and distributive
    return LatticeReport(ok, True, has_meets, has_joins, bounded, distributive,
                         tuple(problems), witness)


# -- constructors -----------------------------------------------------------


def birkhoff_lattice(poset: FinitePoset) -> FiniteLattice:
    """The lattice of upsets of a poset, ordered by inclusion.

    Carrier order is ascending upset mask; the element labels are the
    upsets rendered in set notation, so the i-th carrier element is
    upset_masks(poset)[i] and consumers may rely on that alignment.
    """
    masks = upset_masks(poset)
    labels = [set_label(poset.elements, m) for m in masks]
    return FiniteLattice(FinitePoset.from_up_masks(labels, inclusion_up_masks(masks)))


def lattice_from_json_dict(data: object) -> FiniteLattice:
    if not isinstance(data, dict):
        raise LatticeError("lattice JSON must be an object")
    elements = data.get("elements")
    leq = data.get("leq", [])
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise LatticeError('lattice JSON needs an "elements" list of strings')
    if not isinstance(leq, list):
        raise LatticeError('lattice "leq" must be a list of pairs')
    pairs = []
    for item in leq:
        if not (isinstance(item, list) and len(item) == 2
                and all(isinstance(x, str) for x in item)):
            raise LatticeError(f"bad leq pair {item!r}")
        pairs.append((item[0], item[1]))
    try:
        return FiniteLattice(FinitePoset(elements, pairs))
    except (PosetError, LatticeError):
        # JSON input keeps the report's messages, not the constructors'
        report = validate_order(elements, pairs)
        raise LatticeError("; ".join(report.problems) or "invalid lattice") from None


# -- irreducibles and primes -----------------------------------------------


def join_irreducibles(lattice: FiniteLattice) -> int:
    """Mask of elements that are not proper joins (bottom excluded): the
    carrier of the base poset the constructor built."""
    return lattice.poset.subset(lattice.base.elements)


def meet_primes(lattice: FiniteLattice) -> int:
    """Mask of p (top excluded) with a*b <= p implying a <= p or b <= p."""
    cached = lattice._cache.get("meet_primes")
    if cached is not None:
        return cached
    out = 0
    n = lattice.n
    for p in range(n):
        if p == lattice.top:
            continue
        good = True
        for a in range(n):
            if lattice.poset.leq_i(a, p):
                continue
            for b in range(n):
                if lattice.poset.leq_i(lattice.meet_t[a][b], p) and not lattice.poset.leq_i(b, p):
                    good = False
                    break
            if not good:
                break
        if good:
            out |= 1 << p
    lattice._cache["meet_primes"] = out
    return out


# -- filters and points ------------------------------------------------------


@dataclass(frozen=True)
class Filter:
    """A principal proper filter, with its primality flags."""

    generator: int
    members: int
    prime: bool
    completely_prime: bool


def _principal_prime(lattice: FiniteLattice, g: int) -> bool:
    n = lattice.n
    for x in range(n):
        if lattice.poset.leq_i(g, x):
            continue
        for y in range(x, n):
            if lattice.poset.leq_i(g, lattice.join_t[x][y]) and not lattice.poset.leq_i(g, y):
                return False
    return True


def _principal_completely_prime(lattice: FiniteLattice, g: int) -> bool:
    rest = lattice.join_all(
        x for x in range(lattice.n) if not lattice.poset.leq_i(g, x)
    )
    return not lattice.poset.leq_i(g, rest)


def prime_filters(lattice: FiniteLattice) -> list[Filter]:
    """All prime filters, as principal filters at their generators.

    Every filter of a finite lattice is principal, and a principal filter
    can only be prime when its generator is join-irreducible; primality is
    then verified against the pairwise definition.
    """
    irr = join_irreducibles(lattice)
    out = []
    for g in iter_bits(irr):
        if _principal_prime(lattice, g):
            out.append(
                Filter(
                    generator=g,
                    members=lattice.poset.up_mask(g),
                    prime=True,
                    completely_prime=_principal_completely_prime(lattice, g),
                )
            )
    return out


def completely_prime_filters(lattice: FiniteLattice) -> list[Filter]:
    """All completely prime filters, by the complement-join test over every
    proper principal filter (no irreducibility shortcut)."""
    out = []
    for g in range(lattice.n):
        if g == lattice.bot:
            continue  # the improper filter
        if _principal_completely_prime(lattice, g):
            out.append(
                Filter(
                    generator=g,
                    members=lattice.poset.up_mask(g),
                    prime=_principal_prime(lattice, g),
                    completely_prime=True,
                )
            )
    return out


def points(lattice: FiniteLattice) -> list[Filter]:
    """Prime filters, validated to coincide with the completely prime ones."""
    cached = lattice._cache.get("points")
    if cached is not None:
        return cached
    pf = prime_filters(lattice)
    cpf = completely_prime_filters(lattice)
    if [f.generator for f in pf] != [f.generator for f in cpf]:
        raise LatticeError("prime and completely prime filters disagree")
    if any(not (f.prime and f.completely_prime) for f in pf + cpf):
        raise LatticeError("primality flags disagree between the two routes")
    lattice._cache["points"] = pf
    return pf


def is_spatial(lattice: FiniteLattice) -> tuple[bool, tuple[str, str] | None]:
    """Do points separate a from b whenever a is not below b?

    For each a, the b some point containing a leaves out are the union of
    those points' complements; it must cover every b outside up(a).
    """
    pts = points(lattice)
    full = lattice.poset.full_mask
    for a in range(lattice.n):
        separated = 0
        for f in pts:
            if f.members >> a & 1:
                separated |= ~f.members
        unseparated = full & ~lattice.poset.up_mask(a) & ~separated
        if unseparated:
            b = (unseparated & -unseparated).bit_length() - 1
            return False, (lattice.labels[a], lattice.labels[b])
    return True, None


# -- density and scatteredness ----------------------------------------------


def dense_above(lattice: FiniteLattice, a: int) -> list[int]:
    """Elements d >= a with d -> a == a."""
    return [
        d
        for d in range(lattice.n)
        if lattice.poset.leq_i(a, d) and lattice.imp(d, a) == a
    ]


def smallest_dense(lattice: FiniteLattice, a: int) -> int | None:
    dense = dense_above(lattice, a)
    m = lattice.meet_all(dense)
    return m if m in dense else None


def is_scattered_frame(lattice: FiniteLattice) -> bool:
    return all(smallest_dense(lattice, a) is not None for a in range(lattice.n))


# -- minimal and essential primes ---------------------------------------------


def min_primes(lattice: FiniteLattice, a: int) -> int:
    """Mask of minimal meet-primes above a."""
    above = [p for p in iter_bits(meet_primes(lattice)) if lattice.poset.leq_i(a, p)]
    out = 0
    for p in above:
        if not any(q != p and lattice.poset.leq_i(q, p) for q in above):
            out |= 1 << p
    return out


@dataclass(frozen=True)
class EssentialPrimes:
    min_mask: int
    meet_is_a: bool
    essential_mask: int | None


def essential_primes(lattice: FiniteLattice, a: int) -> EssentialPrimes:
    """Primes that cannot be dropped from the minimal-prime meet of a.

    Only meaningful when a equals the meet of its minimal primes; when it
    does not, the result is flagged and no essential set is produced.
    """
    mins = min_primes(lattice, a)
    mem = list(iter_bits(mins))
    if lattice.meet_all(mem) != a:
        return EssentialPrimes(mins, False, None)
    ess = 0
    for p in mem:
        if lattice.meet_all(q for q in mem if q != p) != a:
            ess |= 1 << p
    return EssentialPrimes(mins, True, ess)


# -- boolean structure ---------------------------------------------------------


def complement_of(lattice: FiniteLattice, a: int) -> int | None:
    for b in range(lattice.n):
        if (
            lattice.meet_t[a][b] == lattice.bot
            and lattice.join_t[a][b] == lattice.top
        ):
            return b
    return None


def is_boolean(lattice: FiniteLattice) -> bool:
    return all(complement_of(lattice, a) is not None for a in range(lattice.n))


@dataclass(frozen=True)
class Booleanization:
    lattice: FiniteLattice
    image_mask: int
    project: tuple[int, ...]
    image_index: tuple[int, ...]


def booleanization(lattice: FiniteLattice) -> Booleanization:
    """The double-negation image as a lattice, with the projection map.

    Meets agree with the ambient lattice; the join of regular elements is
    the double negation of the ambient join, which is the least upper
    bound inside the image, so the induced order already carries the
    right lattice structure.
    """
    reg = sorted({lattice.neg(lattice.neg(a)) for a in range(lattice.n)})
    image_mask = 0
    for a in reg:
        image_mask |= 1 << a
    sub = FiniteLattice(
        FinitePoset.from_up_masks(
            [lattice.labels[a] for a in reg],
            inclusion_up_masks([lattice.poset.down_mask(a) for a in reg]),
        )
    )
    if not is_boolean(sub):
        raise LatticeError("double-negation image failed to be boolean")
    back = {a: i for i, a in enumerate(reg)}
    project = tuple(back[lattice.neg(lattice.neg(a))] for a in range(lattice.n))
    return Booleanization(sub, image_mask, project, tuple(reg))
