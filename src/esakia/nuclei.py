"""Nuclei on finite frames and the assembly, via nuclear subsets.

The primary representation of the assembly is dual: nuclear subsets of
the dual space under reverse inclusion.  On a finite discrete space every
subset is nuclear, so the assembly of a finite frame is boolean; the
closure-system (NextClosure) oracle below recovers the same nuclei
independently from the closure conditions on fixpoint sets, and the two
routes are compared in the test suite rather than collapsed into one
implementation.

The kernels work on whole masks: phi(a), the points whose filter holds
a, and the lattice's Birkhoff masks (``FiniteLattice.upset_of``), on
which meet and join are & and |.

* ``to_nuclear_set`` is full & ~OR_a (phi(j(a)) ^ phi(a)): the points
  that no a moves in or out of their filter.  phi(a) is a's Birkhoff mask
  position by position, so this is ``_PackedRows.nuclear_set``, the | of
  the fields of row ^ identity folded onto one field; ``_dual_rows``
  checks that equality wherever the kernel meets a dual space.
* ``from_nuclear_set`` reads phi(j(a)) as the complement of the
  down-closure of mask - phi(a), from the dual space's one down-closure
  table (``duality._down_closures``), which the Heyting formula of
  ``duality`` reads too.  The nucleus tables are compared with the
  NextClosure oracle, never with that formula.
* ``assembly_frame`` calls ``from_nuclear_set`` on the singletons only.
  The nucleus of a union of nuclear sets is the pointwise meet of
  theirs, so every other nucleus of the assembly is the & of its points'
  singleton rows (``_meet_closure``), and each row's nuclear set is read
  back by the kernel above.  Value tables are unpacked from the rows only
  when ``AssemblyFrame.nuclei`` is read.
* ``validate_nucleus`` decides the three axioms by subset tests and by
  ``_preserves_meets``, which asks that the elements sent above each
  join-irreducible form a principal filter (or none).  Only a table
  that splits a meet is scanned pair by pair, by ``_first_split_meet``,
  for the witness the report names.
* ``nucleus_leq`` and ``w_decomposition_check`` read packed rows of
  Birkhoff masks, j(0), j(1), ... side by side (``_packed_rows``).  Meets
  and joins of nuclei are kernels on those rows: ``_meet_row`` is the &
  of the rows, and ``_join_row`` reads the intersection of the nuclear
  sets back through ``from_nuclear_set`` and checks it against the
  iteration started from the | of the rows.  ``nuclei_meet`` and
  ``nuclei_join`` are thin wrappers over them, and
  ``spaces.simmons_isbell_report`` calls them on rows directly.  The
  NextClosure oracle's tables take & of Birkhoff masks.
* ``assembly_booleanization_check`` compares the booleanization with the
  regular closed sets of the discrete dual by size: both are Boolean, so
  no lattice is built for the regular closed sets and nothing is
  searched.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter, index

from .bounds import assembly_bound, oracle_bound
from .duality import EsakiaSpaceFin, _down_closures, _phi_lookup, dual_space, phi_table
from .errors import NucleusError, SizeBoundError
from .lattices import (
    FiniteLattice,
    Booleanization,
    booleanization,
    complement_of,
    is_boolean,
    is_scattered_frame,
)
from .posets import (
    FinitePoset,
    _memo,
    _meet_rows,
    image_mask,
    iter_bits,
    set_label,
)

__all__ = [
    "Nucleus",
    "NucleusReport",
    "AssemblyFrame",
    "AssemblyBooleanReport",
    "BooleanizationCheck",
    "TowerResult",
    "validate_nucleus",
    "identity_nucleus",
    "top_nucleus",
    "make_u",
    "make_v",
    "make_w",
    "nucleus_leq",
    "to_nuclear_set",
    "from_nuclear_set",
    "is_nuclear",
    "assembly_frame",
    "nuclei_meet",
    "nuclei_join",
    "nuclear_sets_meet",
    "enumerate_nuclei_oracle",
    "fixpoint_frame",
    "w_decomposition_check",
    "is_assembly_boolean",
    "assembly_booleanization_check",
    "tower",
    "nucleus_to_json_dict",
]


@dataclass(frozen=True)
class Nucleus:
    """A nucleus as its value table over the lattice carrier."""

    values: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.values[a]


@dataclass(frozen=True)
class NucleusReport:
    ok: bool
    inflationary: bool
    idempotent: bool
    preserves_meet: bool
    witness: tuple[str, ...] | None


def validate_nucleus(lattice: FiniteLattice, values: tuple[int, ...]) -> NucleusReport:
    """Check the three nucleus axioms, reporting the first witness.

    The axioms are decided on the Birkhoff masks: a <= j(a) and
    j(j(a)) <= j(a) are subset tests, and meets are decided by
    ``_preserves_meets``.  Only when that fails are the pairs (a, b),
    b >= a, scanned row by row for the first one that j splits.  The
    witness is the first element that is not inflationary, else the
    first that is not idempotent, else that pair.
    """
    n = lattice.n
    if len(values) != n or any(v < 0 or v >= n for v in values):
        return NucleusReport(False, False, False, False, ("value table malformed",))
    up = lattice.upset_of
    image = [up[v] for v in values]
    # the a with a not <= j(a), and the a with j(j(a)) not <= j(a)
    lowered = [a for a in range(n) if up[a] & ~image[a]]
    raised = [a for a in range(n) if image[values[a]] & ~image[a]]
    split = None if _preserves_meets(lattice, values) else _first_split_meet(lattice, image)
    witness: tuple[str, ...] | None = None
    if lowered:
        witness = (lattice.labels[lowered[0]],)
    elif raised:
        witness = (lattice.labels[raised[0]],)
    elif split is not None:
        witness = (lattice.labels[split[0]], lattice.labels[split[1]])
    inflationary, idempotent, meets = not lowered, not raised, split is None
    ok = inflationary and idempotent and meets
    return NucleusReport(ok, inflationary, idempotent, meets, witness)


def _preserves_meets(lattice: FiniteLattice, values: Sequence[int]) -> bool:
    """Does a -> values[a] preserve binary meets?

    It does iff, for each join-irreducible c, the elements a with
    c <= j(a) are none or a principal filter: that makes j monotone
    (every element is the join of the join-irreducibles below it), and
    then c <= j(a) * j(b) puts a * b in the filter.  A nonempty set of
    elements is a principal filter iff it is the up-set of the meet of
    its members, whose Birkhoff mask holds bit k iff the set lies in
    holders[k], the elements above the k-th join-irreducible.
    """
    holders = lattice.holders
    preimage: dict[int, int] = {}
    for a, v in enumerate(values):
        preimage[v] = preimage.get(v, 0) | 1 << a
    for h in holders:
        above = 0
        for v, pre in preimage.items():
            if h >> v & 1:
                above |= pre
        if not above:
            continue
        low = 0
        for k, g in enumerate(holders):
            if not above & ~g:
                low |= 1 << k
        if above != lattice.poset.up_mask(lattice.of_mask[low]):
            return False
    return True


def _first_split_meet(lattice: FiniteLattice, image: Sequence[int]) -> tuple[int, int] | None:
    """The first pair (a, b), b >= a, row by row, with j(a * b) != j(a) * j(b),
    on the Birkhoff masks image[a] of the values j(a)."""
    up = lattice.upset_of
    of_mask = lattice.of_mask
    for a in range(lattice.n):
        for b in range(a, lattice.n):
            if image[of_mask[up[a] & up[b]]] != image[a] & image[b]:
                return a, b
    return None


def identity_nucleus(lattice: FiniteLattice) -> Nucleus:
    return Nucleus(tuple(range(lattice.n)))


def top_nucleus(lattice: FiniteLattice) -> Nucleus:
    return Nucleus((lattice.top,) * lattice.n)


def make_u(lattice: FiniteLattice, a: int) -> Nucleus:
    return Nucleus(tuple(lattice.join(a, x) for x in range(lattice.n)))


def make_v(lattice: FiniteLattice, a: int) -> Nucleus:
    return Nucleus(tuple(lattice.imp(a, x) for x in range(lattice.n)))


@_memo("w", by=index)
def make_w(lattice: FiniteLattice, a: int) -> Nucleus:
    return Nucleus(tuple(lattice.imp(lattice.imp(x, a), a) for x in range(lattice.n)))


def nucleus_leq(lattice: FiniteLattice, j: Nucleus, k: Nucleus) -> bool:
    """Is j(a) <= k(a) for every a?  That holds iff each Birkhoff mask of
    j(a) is a subset of k(a)'s, so iff the packed row of j is a subset of
    k's row; the rows are memoised on the lattice (``_packed_rows``)."""
    rows = _packed_rows(lattice)
    return not rows[j.values] & ~rows[k.values]


class _PackedRows(dict):
    """Packed rows of value tables, keyed by the table and filled on
    demand: the Birkhoff masks of j(0), j(1), ... side by side, in fields
    of |J| bits.  ``pack`` computes a row without storing it and
    ``unpack`` reads a row back into its table; ``top`` and ``identity``
    are the rows of the top and of the identity nucleus.
    ``nuclear_set`` reads a row's nuclear set, ORing the fields together
    with one shift by each of |J|, 2|J|, 4|J|, ... bits (``folds``): the
    sums of those field counts reach every field."""

    __slots__ = ("masks", "of_mask", "width", "field", "shifts", "folds", "top", "identity")

    def __init__(self, lattice: FiniteLattice):
        super().__init__()
        self.masks = lattice.upset_of
        self.of_mask = lattice.of_mask
        self.width = width = lattice.base.n
        self.field = (1 << width) - 1
        self.shifts = tuple(a * width for a in range(lattice.n))
        self.folds = tuple(width << t for t in range((lattice.n - 1).bit_length()))
        self.top = (1 << lattice.n * width) - 1
        self.identity = self.pack(range(lattice.n))

    def __missing__(self, values: tuple[int, ...]) -> int:
        row = self[values] = self.pack(values)
        return row

    def pack(self, values: Sequence[int]) -> int:
        row = 0
        for a, v in enumerate(values):
            row |= self.masks[v] << a * self.width
        return row

    def unpack(self, row: int) -> tuple[int, ...]:
        of_mask, field = self.of_mask, self.field
        return tuple([of_mask[row >> s & field] for s in self.shifts])

    def nuclear_set(self, row: int) -> int:
        """The join-irreducibles k whose bit no field of the row moves off
        the identity's: full & ~OR_a (mask(j(a)) ^ mask(a))."""
        moved = row ^ self.identity
        for s in self.folds:
            moved |= moved >> s
        return self.field & ~moved


@_memo("nucleus_rows")
def _packed_rows(lattice: FiniteLattice) -> _PackedRows:
    return _PackedRows(lattice)


# -- nuclear subsets of the dual space --------------------------------------


def is_nuclear(space: EsakiaSpaceFin, mask: int) -> bool:
    """Is the subset nuclear: closed, with the down-closure of each of its
    clopen traces clopen?  The dual space of a finite lattice is discrete,
    so every subset is closed and every down-closure is clopen: every
    subset of the carrier is nuclear, and only the range is checked."""
    space.poset.check_mask(mask)
    return True


def _dual_rows(space: EsakiaSpaceFin) -> _PackedRows:
    """The packed rows of the space's source lattice, whose fields are
    masks of the space's points: phi(a) is a's Birkhoff mask position by
    position, as both list the join-irreducibles in ascending index (the
    correspondence ``base_matches_dual`` checks on the orders)."""
    lattice = space.source
    if phi_table(space) != lattice.upset_of:
        raise NucleusError("phi disagrees with the Birkhoff masks")  # unreachable
    return _packed_rows(lattice)


@_memo("to_nuclear_set", by=attrgetter("values"))
def to_nuclear_set(space: EsakiaSpaceFin, j: Nucleus) -> int:
    """Points whose prime filter is its own preimage under the nucleus.

    Bit y of phi(j(a)) ^ phi(a) is set iff j(a) and a disagree on the
    filter at y, so the points whose filter equals its preimage are those
    that no a moves: full & ~OR_a (phi(j(a)) ^ phi(a)), read off the
    nucleus's packed row by ``_PackedRows.nuclear_set``.  Memoised on the
    dual space, in its ``_cache["to_nuclear_set"]``, keyed by the full
    value table ``j.values``.
    """
    packed = _dual_rows(space)
    return packed.nuclear_set(packed.pack(j.values))


@_memo("from_nuclear_set", by=index)
def from_nuclear_set(space: EsakiaSpaceFin, mask: int) -> Nucleus:
    """The nucleus induced by a nuclear set, through its action on opens:
    phi(j(a)) is the complement of the down-closure of mask - phi(a).

    Memoised on the dual space, in its ``_cache["from_nuclear_set"]``,
    keyed by the mask; the range is checked before anything is stored, so
    only masks of the dual space are ever stored.
    """
    space.poset.check_mask(mask)
    closures = _down_closures(space)
    # the complement of a down-closure is an upset, and phi is onto the
    # upsets, so every lookup hits
    lookup = _phi_lookup(space)
    full = space.poset.full_mask
    return Nucleus(tuple(lookup[full & ~closures[mask & ~t]] for t in phi_table(space)))


@dataclass(frozen=True, eq=False)
class AssemblyFrame:
    """The assembly, carried by nuclear subsets under reverse inclusion.

    ``rows[i]`` is the packed row (``_packed_rows`` of ``source``) of the
    nucleus of ``sets[i]``; ``nuclei`` unpacks the rows into value tables
    on its first read."""

    source: FiniteLattice
    dual: EsakiaSpaceFin
    lattice: FiniteLattice
    sets: tuple[int, ...]
    rows: tuple[int, ...]

    @cached_property
    def nuclei(self) -> tuple[Nucleus, ...]:
        unpack = _packed_rows(self.source).unpack
        return tuple(Nucleus(unpack(row)) for row in self.rows)


def _meet_closure(top: int, generators: Sequence[int]) -> list[int]:
    """The & of every subset of the generators, the empty one being top:
    item S is the & of generators[y] over the bits y of S."""
    rows = [top]
    for g in generators:
        rows += [row & g for row in rows]
    return rows


@_memo("assembly")
def assembly_frame(lattice: FiniteLattice) -> AssemblyFrame:
    """Build the assembly of a finite frame from its nuclear subsets.

    The nucleus of a union of nuclear sets is the pointwise meet of theirs,
    phi(j_{S|T}(a)) = X - down((S|T) - phi(a)) = phi(j_S(a)) & phi(j_T(a)),
    so the row of each set's nucleus is the & of its points' singleton
    rows.  The nuclear set of every row is read back and must be its set.
    """
    space = dual_space(lattice)
    n = space.poset.n
    if n > assembly_bound():
        raise SizeBoundError(f"assembly over a {n}-point dual space exceeds the bound")
    # the dual space is discrete, so every subset is nuclear (see is_nuclear)
    sets = tuple(range(1 << n))
    names = [set_label(space.poset.elements, m) for m in sets]
    # reverse inclusion (a bigger set is a smaller nucleus): the inclusion
    # order of the complements
    full = space.poset.full_mask
    asm_lattice = FiniteLattice(FinitePoset.of_family(names, [full & ~m for m in sets]))
    packed = _dual_rows(space)
    rows = _meet_closure(
        packed.top, [packed.pack(from_nuclear_set(space, 1 << y).values) for y in range(n)]
    )
    if tuple(map(packed.nuclear_set, rows)) != sets:
        raise NucleusError("nuclear set round trip failed")  # unreachable
    return AssemblyFrame(lattice, space, asm_lattice, sets, tuple(rows))


# -- meets and joins of nuclei ------------------------------------------------


def _meet_row(lattice: FiniteLattice, rows: Sequence[int]) -> int:
    """The packed row of the pointwise meet of the nuclei with these
    packed rows: the & of the rows, as & of Birkhoff masks is the meet;
    the empty meet is the top nucleus."""
    out = _packed_rows(lattice).top
    for row in rows:
        out &= row
    return out


def nuclei_meet(lattice: FiniteLattice, js: list[Nucleus]) -> Nucleus:
    """Pointwise meet (``_meet_row`` on the packed rows); the empty meet is
    the top nucleus."""
    packed = _packed_rows(lattice)
    return Nucleus(packed.unpack(_meet_row(lattice, [packed.pack(j.values) for j in js])))


def nuclear_sets_meet(space: EsakiaSpaceFin, masks: list[int]) -> int:
    """Meet in the poset of nuclear sets: on a finite discrete space the
    intersection is itself nuclear, so no closure step is needed."""
    out = space.poset.full_mask
    for m in masks:
        out &= space.poset.check_mask(m)
    return out


def _join_row(
    lattice: FiniteLattice, space: EsakiaSpaceFin, inter: int, rows: Sequence[int]
) -> int:
    """The packed row of the join of the nuclei with these packed rows,
    whose nuclear sets meet in inter, computed dually and cross-checked
    by iteration.

    The dual route reads the nucleus off the intersection of the nuclear
    sets; the oracle starts from the pointwise sup, the | of the rows and
    of the identity's, and iterates it to its fixpoint.  The two must
    agree.
    """
    packed = _packed_rows(lattice)
    primary = from_nuclear_set(space, inter).values
    sup = packed.identity
    for row in rows:
        sup |= row
    g = h = packed.unpack(sup)
    while True:
        nxt = tuple(map(g.__getitem__, h))
        if nxt == h:
            break
        h = nxt
    if h != primary:
        raise NucleusError("join via nuclear sets disagrees with the iteration oracle")
    # a sup that is its own fixpoint is the join, and its row is sup
    return sup if h is g else packed.pack(h)


def nuclei_join(lattice: FiniteLattice, space: EsakiaSpaceFin, js: list[Nucleus]) -> Nucleus:
    """Join of nuclei (``_join_row`` on the meet of their nuclear sets and
    on their packed rows), computed dually and cross-checked by
    iteration."""
    packed = _packed_rows(lattice)
    inter = nuclear_sets_meet(space, [to_nuclear_set(space, j) for j in js])
    rows = [packed.pack(j.values) for j in js]
    return Nucleus(packed.unpack(_join_row(lattice, space, inter, rows)))


# -- the closure-system (NextClosure) oracle -----------------------------------


def enumerate_nuclei_oracle(lattice: FiniteLattice) -> list[Nucleus]:
    """Every nucleus, found by NextClosure over candidate fixpoint sets.

    A subset S containing the top, closed under binary meet and under
    implication from arbitrary elements, induces the nucleus
    j(a) = meet of {s in S : a <= s}; distinct sets induce distinct
    nuclei and all arise this way.  These sets form a closure system, so
    Ganter's NextClosure (B. Ganter, "Two basic algorithms in concept
    analysis", 1984) lists them one after another, each step costing a
    few closures instead of a scan of all 2^|L| subsets.  Bit i of a mask
    ranks above every lower bit, so the lectic order is ascending mask
    order: from a closed set A, the next one is the closure B of
    (A above i) + {i} for the least i outside A whose B gains no bit
    above i outside A.  Output is ordered by ascending fixpoint-set mask.

    NextClosure's work grows with its output, and a finite distributive
    lattice with k join-irreducibles has exactly 2^k nuclei, so the bound
    (``ESAKIA_ORACLE_BOUND``) caps that count as well as the carrier.
    """
    cap = oracle_bound()
    n = lattice.n
    if n > cap:
        raise SizeBoundError(f"nucleus oracle refused for {n} elements (bound {cap})")
    k = lattice.base.n
    if 1 << k > cap:
        raise SizeBoundError(
            f"nucleus oracle refused for {n} elements: {k} join-irreducibles"
            f" give 2^{k} nuclei (bound {cap})"
        )
    imp_into = []
    for s in range(n):
        m = 0
        for a in range(n):
            m |= 1 << lattice.imp(a, s)
        imp_into.append(m)
    meet_t = lattice.meet_t

    def close(seed: int, keep: int) -> int:
        """The closure of seed, or -1 as soon as it leaves keep."""
        closed = seed
        pending = seed
        while pending:
            low = pending & -pending
            pending ^= low
            s = low.bit_length() - 1
            add = (imp_into[s] | image_mask(closed, meet_t[s])) & ~closed
            if add & ~keep:
                return -1
            closed |= add
            pending |= add
        return closed

    full = (1 << n) - 1
    fixed = close(1 << lattice.top, full)
    found = []
    while fixed >= 0:
        found.append(fixed)
        nxt = -1
        for i in iter_bits(full & ~fixed):
            below = (2 << i) - 1
            nxt = close(fixed & ~below | 1 << i, fixed | below)
            if nxt >= 0:
                break
        fixed = nxt
    # j(a) is the meet of the members of s above a: the & of their masks
    up = lattice.poset._up
    birkhoff = lattice.upset_of
    top = birkhoff[lattice.top]
    return [
        Nucleus(tuple(lattice.of_mask[_meet_rows(birkhoff, s & up[a], top)] for a in range(n)))
        for s in found
    ]


# -- derived frames -----------------------------------------------------------


def fixpoint_frame(lattice: FiniteLattice, j: Nucleus) -> FiniteLattice:
    """The frame of fixpoints, with joins corrected through the nucleus."""
    fix = [a for a in range(lattice.n) if j.values[a] == a]
    sub = FiniteLattice(
        FinitePoset.of_family(
            [lattice.labels[a] for a in fix], [lattice.upset_of[a] for a in fix]
        )
    )
    for i, x in enumerate(fix):
        for k, y in enumerate(fix):
            if fix[sub.meet(i, k)] != lattice.meet(x, y):
                raise NucleusError("fixpoint meet differs from ambient meet")
            if fix[sub.join(i, k)] != j.values[lattice.join(x, y)]:
                raise NucleusError("fixpoint join differs from corrected ambient join")
    return sub


def w_decomposition_check(lattice: FiniteLattice, j: Nucleus) -> bool:
    """Is j the meet of the w nuclei at its fixpoints?  Packed rows are
    injective and & of rows is the row of the pointwise meet."""
    rows = _packed_rows(lattice)
    met = rows.top
    for a, v in enumerate(j.values):
        if v == a:
            met &= rows[make_w(lattice, a).values]
    return met == rows[j.values]


def _every_nucleus_w_decomposes(lattice: FiniteLattice) -> bool:
    """``w_decomposition_check`` on every nucleus the oracle lists."""
    return all(w_decomposition_check(lattice, j) for j in enumerate_nuclei_oracle(lattice))


# -- booleanness of the assembly ----------------------------------------------


@dataclass(frozen=True)
class AssemblyBooleanReport:
    direct_boolean: bool
    scattered_frame: bool

    @property
    def agree(self) -> bool:
        return self.direct_boolean == self.scattered_frame

    @property
    def ok(self) -> bool:
        return self.agree and self.direct_boolean


def is_assembly_boolean(lattice: FiniteLattice) -> AssemblyBooleanReport:
    """Booleanness of the assembly, decided directly, against scatteredness
    of the frame."""
    asm = assembly_frame(lattice)
    return AssemblyBooleanReport(is_boolean(asm.lattice), is_scattered_frame(lattice))


@dataclass(frozen=True)
class BooleanizationCheck:
    """``dually_isomorphic`` is decided from the sizes, as both sides are
    Boolean: ``ok`` is the same test."""

    ok: bool
    booleanization_size: int
    regular_closed_size: int
    dually_isomorphic: bool


def assembly_booleanization_check(lattice: FiniteLattice) -> BooleanizationCheck:
    """The booleanization of the assembly against the regular closed sets
    of the discrete dual space, compared by size with no search.

    ``booleanization`` raises unless its image is Boolean, and 2^k distinct
    subsets of the k dual points are the whole powerset.  Finite Boolean
    algebras of one size are isomorphic and self-dual (Davey and Priestley,
    Introduction to Lattices and Order, 2nd ed., 2002, ch. 5).
    """
    from .spaces import FiniteSpace, regular_closed  # spaces builds on this module

    asm = assembly_frame(lattice)
    b: Booleanization = booleanization(asm.lattice)
    rc = regular_closed(FiniteSpace.from_preorder(asm.dual.poset.elements, ()))
    dual_iso = len(rc) == 1 << asm.dual.n and b.lattice.n == len(rc)
    return BooleanizationCheck(dual_iso, b.lattice.n, len(rc), dual_iso)


# -- the tower of assemblies ----------------------------------------------------


@dataclass(frozen=True)
class TowerResult:
    stages: tuple[FiniteLattice, ...] = field(metadata={"json": False})
    embeddings: tuple[tuple[int, ...], ...] = field(metadata={"json": False})
    embeddings_injective: bool
    embeddings_preserve_frame_ops: bool
    complements_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.embeddings_injective
            and self.embeddings_preserve_frame_ops
            and self.complements_ok
        )

    @property
    def sizes(self) -> list[int]:
        return [stage.n for stage in self.stages]


def tower(lattice: FiniteLattice) -> TowerResult:
    """Iterate the assembly twice, embedding each stage by a -> u_a.

    On a finite frame the first assembly is Boolean, so the second stage
    repeats its size 2^|dual points|.
    """
    if dual_space(lattice).n > 3:
        raise SizeBoundError("tower depth 2 is limited to dual spaces of 3 points")
    stages = [lattice]
    embeddings: list[tuple[int, ...]] = []
    injective = True
    frame_ops = True
    complements = True
    cur = lattice
    for _ in range(2):
        asm = assembly_frame(cur)
        by_set = {m: i for i, m in enumerate(asm.sets)}
        emb = []
        for a in range(cur.n):
            u = make_u(cur, a)
            emb.append(by_set[to_nuclear_set(asm.dual, u)])
        embeddings.append(tuple(emb))
        if len(set(emb)) != cur.n:
            injective = False
        # the bottom is the empty join, the first step of the join loop
        if emb[cur.top] != asm.lattice.top:
            frame_ops = False
        for a in range(cur.n):
            for b in range(cur.n):
                if emb[cur.meet(a, b)] != asm.lattice.meet(emb[a], emb[b]):
                    frame_ops = False
        for subset in range(1 << cur.n):
            members = list(iter_bits(subset))
            if emb[cur.join_all(members)] != asm.lattice.join_all(emb[x] for x in members):
                frame_ops = False
                break
        for a in range(cur.n):
            ui = emb[a]
            vi = by_set[to_nuclear_set(asm.dual, make_v(cur, a))]
            if (
                asm.lattice.meet(ui, vi) != asm.lattice.bot
                or asm.lattice.join(ui, vi) != asm.lattice.top
            ):
                complements = False
            if complement_of(asm.lattice, ui) is None:
                complements = False
        cur = asm.lattice
        stages.append(cur)
    return TowerResult(
        tuple(stages), tuple(embeddings), injective, frame_ops, complements
    )


# -- JSON -----------------------------------------------------------------------


def nucleus_to_json_dict(lattice: FiniteLattice, j: Nucleus) -> dict:
    return {
        "values": {
            lattice.labels[a]: lattice.labels[j.values[a]] for a in range(lattice.n)
        }
    }
