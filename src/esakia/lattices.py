"""Finite bounded distributive lattices as Heyting algebras and frames.

A FiniteLattice keeps the order it was given, labels and all, for I/O,
and beside it the Birkhoff representation on which it computes.  The
join-irreducibles J under the reversed order form the base poset;
upset_of[a] is the mask of the join-irreducibles below a, an upset of the
base, and of_mask inverts that map.  Meet and join are & and | of these
masks, the bottom and top are the empty and the full mask, a complement
is the complement mask when that is an upset, and the pseudo-complement
a->bot is the complement of the down-closure of a's mask.  The transpose
of upset_of, holders[k], the elements above the k-th join-irreducible,
is kept beside it.

Construction checks two conditions in O(n*|J|):
(a) a <= b iff upset_of[a] is a subset of upset_of[b], so a -> upset_of[a]
    is an order embedding (and injective, the order being antisymmetric);
(b) the base has exactly n upsets, counted by ``posets._upsets``, which
    stops as soon as the count passes n.
Together they make the map an isomorphism onto the upsets of the base.
By Birkhoff's representation theorem (Davey and Priestley, Introduction
to Lattices and Order, 2nd ed., 2002, ch. 5) that holds iff the order is
a distributive lattice.  The n x n tables meet_t and join_t are built
from the masks on first use.

The lattices derived here and elsewhere (upsets, opens, assemblies,
booleanizations, fixpoint frames) reach the
constructor as inclusion orders on a family of sets, built by
``FinitePoset.of_family``; (a) and (b) still run on each of them, so
every lattice is validated on its own route.  A family of elements of a
lattice (regular elements, fixpoints of a nucleus) is given by their
Birkhoff masks, which (a) makes an order embedding: |J| bits per set
instead of the n bits of a down-mask.  JSON lattices enter
through the pair constructor ``FinitePoset``.

Failures are named by one report, ``_order_report``, in one wording.
It builds the meet and join tables by principal-mask lookup (i*j exists
iff down(i) & down(j) is the down-mask of some element; joins mirror
this with up-masks) and names the first missing bound, else the first
distributivity witness.  validate_order returns that report; when (a)
or (b) fails, the constructor raises its problem as a LatticeError, so
lattice_from_json_dict, which adds only the pair constructor's
PosetError, reads the same report.

The implication table keeps the sup-based definition, a->b the
largest x with a*x <= b, solved per row over the fibres of x -> a*x
(see FiniteLattice._imp_table); duality.upset_algebra checks every entry
against the dual-space formula.

Conventions: the top element does not count as meet-prime and the bottom
does not count as join-irreducible.  An empty meet is the top, an empty
join is the bottom.  The one-element lattice is accepted everywhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import LatticeError, PosetError
from .posets import (
    FinitePoset,
    _join_rows,
    _memo,
    _meet_rows,
    _read_order_json,
    _transpose,
    _upsets,
    down_closure,
    iter_bits,
    set_label,
    upset_masks,
)

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

    __slots__ = ("poset", "bot", "top", "base", "upset_of", "of_mask", "holders", "_cache")

    def __init__(self, poset: FinitePoset):
        n = poset.n
        # join-irreducible iff exactly one lower cover (finite lattices),
        # i.e. iff the strict downset is principal; the bottom's is empty
        principal = {poset.down_mask(g) for g in range(n)}
        irr = [a for a in range(n) if poset.down_mask(a) & ~(1 << a) in principal]

        # irr_up[k]: the elements above irr[k], kept as holders;
        # upset_of[a], its transpose: bit k set iff irr[k] <= a
        irr_up = [poset.up_mask(x) for x in irr]
        upset_of = _transpose(irr_up, n)
        # the base orders irr reversed: x's up-mask is the irr below it
        base = FinitePoset.from_up_masks(
            [poset.elements[a] for a in irr], [upset_of[a] for a in irr]
        )

        # Birkhoff, conditions (a) and (b) of the module docstring: an order
        # embedding into the upsets of base, which number exactly n; the
        # empty order fails (b), as its empty base has one upset.  In (a),
        # the elements above every irr[k] in upset_of[a] are those above a
        full = (1 << n) - 1
        if (
            any(_meet_rows(irr_up, m, full) != u for m, u in zip(upset_of, poset._up))
            or len(_upsets(base._up, n)) != n
        ):
            raise LatticeError("; ".join(_order_report(poset).problems))

        of_mask = {m: a for a, m in enumerate(upset_of)}
        self.poset = poset
        self.bot = of_mask[0]
        self.top = of_mask[(1 << len(irr)) - 1]
        self.base = base
        self.upset_of = tuple(upset_of)
        self.of_mask = of_mask
        self.holders = tuple(irr_up)
        self._cache = {}

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
        return self.of_mask[self.upset_of[a] & self.upset_of[b]]

    def join(self, a: int, b: int) -> int:
        return self.of_mask[self.upset_of[a] | self.upset_of[b]]

    @property
    @_memo("meet_t")
    def meet_t(self) -> list[list[int]]:
        """The n x n meet table, built from the masks on first use."""
        of_mask = self.of_mask
        return [[of_mask[u & v] for v in self.upset_of] for u in self.upset_of]

    @property
    @_memo("join_t")
    def join_t(self) -> list[list[int]]:
        """The n x n join table, built from the masks on first use."""
        of_mask = self.of_mask
        return [[of_mask[u | v] for v in self.upset_of] for u in self.upset_of]

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
        """Heyting implication: the largest x with a*x <= b."""
        return self._imp_table()[a][b]

    @_memo("imp")
    def _imp_table(self) -> list[list[int]]:
        """The implication table, built row by row from its definition.

        In row a the carrier is grouped by the meet a*x, one element mask
        per value m <= a.  Since a*x <= b iff a*x <= a*b, a->b = a->(a*b),
        so only the targets k <= a are solved: the x with a*x <= k are the
        union of the groups of the m <= k, a downset whose generator is a->k.
        """
        poset = self.poset
        n = self.n
        down = [poset.down_mask(k) for k in range(n)]
        below = [list(iter_bits(d)) for d in down]
        principal = {d: g for g, d in enumerate(down)}
        meet_t = self.meet_t
        table = []
        for i in range(n):
            meets = meet_t[i]
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
        return table

    def neg(self, a: int) -> int:
        """The pseudo-complement a->bot, on the masks: the largest upset of
        the base that misses a's, the complement of its down-closure."""
        return self.of_mask[self.base.full_mask & ~down_closure(self.base, self.upset_of[a])]

    def __repr__(self) -> str:
        return f"FiniteLattice({self.n} elements, bot={self.labels[self.bot]!r}, top={self.labels[self.top]!r})"

    def to_json_dict(self) -> dict:
        return self.poset.to_json_dict()


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
    try:
        poset = FinitePoset(elements, relation)
    except PosetError as exc:
        return LatticeReport(False, False, False, False, False, False, (str(exc),), None)
    return _order_report(poset)


def _order_report(poset: FinitePoset) -> LatticeReport:
    """The lattice and distributivity axioms checked on a built order: the
    first missing bound, else the first distributivity witness."""
    if poset.n == 0:
        return LatticeReport(
            False, True, False, False, False, False, ("empty carrier",), None
        )
    elements = poset.elements
    problems: list[str] = []
    witness: tuple[str, ...] | None = None
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
        tri = _distributivity_witness(elements, meet_t, join_t)
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
    return _upset_lattice(poset, upset_masks(poset))


def _upset_lattice(poset: FinitePoset, masks: Sequence[int]) -> FiniteLattice:
    """``birkhoff_lattice`` on upsets already listed: masks are all the
    upsets of poset, ascending."""
    labels = [set_label(poset.elements, m) for m in masks]
    return FiniteLattice(FinitePoset.of_family(labels, masks))


def lattice_from_json_dict(data: object) -> FiniteLattice:
    elements, pairs = _read_order_json(data, "lattice", LatticeError)
    try:
        poset = FinitePoset(elements, pairs)
    except PosetError as exc:
        raise LatticeError(str(exc)) from None
    return FiniteLattice(poset)


# -- irreducibles and primes -----------------------------------------------


def join_irreducibles(lattice: FiniteLattice) -> int:
    """Mask of elements that are not proper joins (bottom excluded): the
    carrier of the base poset the constructor built."""
    return lattice.poset.subset(lattice.base.elements)


@_memo("meet_primes")
def meet_primes(lattice: FiniteLattice) -> int:
    """Mask of p (top excluded) with a*b <= p implying a <= p or b <= p.

    On the Birkhoff masks a*b <= p iff b's mask misses upset_of[a] &
    ~upset_of[p], the join-irreducibles below a and not below p.  With
    holders[k] the elements whose mask holds k, the b with a*b <= p are
    the complement of the join of the holders of those irreducibles, and
    p is meet-prime iff for each a not below p they all lie below p.
    """
    birkhoff, holders = lattice.upset_of, lattice.holders
    full = lattice.poset.full_mask
    down = lattice.poset._down
    out = 0
    for p, mp in enumerate(birkhoff):
        if p == lattice.top:
            continue
        outside = full & ~down[p]
        if all(
            outside & ~_join_rows(holders, ma & ~mp) == 0 for ma in birkhoff if ma & ~mp
        ):
            out |= 1 << p
    return out


# -- filters and points ------------------------------------------------------


@dataclass(frozen=True)
class Filter:
    """A principal proper filter: its generator and its member mask."""

    generator: int
    members: int


def prime_filters(lattice: FiniteLattice) -> list[Filter]:
    """All prime filters, as principal filters at the join-irreducibles.

    Every filter of a finite lattice is principal, up(g) is prime iff g
    is join-prime, and in a distributive lattice (the only kind
    FiniteLattice admits) the join-prime elements are exactly the
    join-irreducible ones.  ``points`` compares this list with
    ``completely_prime_filters``, the one place the two are compared.
    """
    up = lattice.poset.up_mask
    return [Filter(g, up(g)) for g in iter_bits(join_irreducibles(lattice))]


def _completely_prime_mask(lattice: FiniteLattice) -> int:
    """Mask of the g whose principal filter up(g) is completely prime, by
    the column-wise test of ``completely_prime_filters``.  The bottom never
    passes: its filter holds every element, so the join is the bottom's."""
    up, birkhoff = lattice.poset._up, lattice.upset_of
    out = 0
    for g, mine in enumerate(birkhoff):
        outside = ~up[g]
        join = 0
        for p, h in enumerate(lattice.holders):
            if h & outside:
                join |= 1 << p
        if mine & ~join:
            out |= 1 << g
    return out


def completely_prime_filters(lattice: FiniteLattice) -> list[Filter]:
    """All completely prime filters, by the complement-join test over every
    proper principal filter (no irreducibility shortcut): up(g) is
    completely prime iff g is not below the join of the elements outside
    up(g), i.e. g's Birkhoff mask is not inside the union of theirs.

    That union is built column by column.  With holders[p] the elements
    whose Birkhoff mask holds p (kept by the lattice), bit p of the union
    is set iff holders[p] & ~up(g) is nonzero, so the test costs O(n*|J|)
    per lattice, not n folds of up to n masks.
    """
    up = lattice.poset.up_mask
    return [Filter(g, up(g)) for g in iter_bits(_completely_prime_mask(lattice))]


@_memo("points")
def points(lattice: FiniteLattice) -> list[Filter]:
    """Prime filters, validated to coincide with the completely prime ones."""
    pf = prime_filters(lattice)
    if pf != completely_prime_filters(lattice):
        raise LatticeError("prime and completely prime filters disagree")
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
    """Elements d >= a with d -> a == a: column a of the implication
    table, read over the up-mask of a."""
    table = lattice._imp_table()
    return [d for d in iter_bits(lattice.poset.up_mask(a)) if table[d][a] == a]


def smallest_dense(lattice: FiniteLattice, a: int) -> int | None:
    dense = dense_above(lattice, a)
    m = lattice.meet_all(dense)
    return m if m in dense else None


def is_scattered_frame(lattice: FiniteLattice) -> bool:
    return all(smallest_dense(lattice, a) is not None for a in range(lattice.n))


# -- minimal and essential primes ---------------------------------------------


def min_primes(lattice: FiniteLattice, a: int) -> int:
    """Mask of minimal meet-primes above a: those p among them whose
    down-mask meets the others in p alone."""
    above = meet_primes(lattice) & lattice.poset.up_mask(a)
    down = lattice.poset._down
    out = 0
    for p in iter_bits(above):
        if down[p] & above == 1 << p:
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
    """The b with a*b = bot and a+b = top, or None: on the masks, b's is
    the complement of a's when that is an upset of the base."""
    full = lattice.upset_of[lattice.top]
    return lattice.of_mask.get(full & ~lattice.upset_of[a])


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
    nn = [lattice.neg(lattice.neg(a)) for a in range(lattice.n)]
    reg = sorted(set(nn))
    image_mask = 0
    for a in reg:
        image_mask |= 1 << a
    sub = FiniteLattice(
        FinitePoset.of_family(
            [lattice.labels[a] for a in reg], [lattice.upset_of[a] for a in reg]
        )
    )
    if not is_boolean(sub):
        raise LatticeError("double-negation image failed to be boolean")
    back = {a: i for i, a in enumerate(reg)}
    project = tuple(back[a] for a in nn)
    return Booleanization(sub, image_mask, project, tuple(reg))

