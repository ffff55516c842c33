"""Nuclei on finite frames and the assembly, via nuclear subsets.

The primary representation of the assembly is dual: nuclear subsets of
the dual space under reverse inclusion.  On a finite discrete space every
subset is nuclear, so the assembly of a finite frame is boolean; the
subset-scan oracle below recovers the same nuclei independently from the
closure conditions on fixpoint sets, and the two routes are compared in
the test suite rather than collapsed into one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import assembly_bound, oracle_bound, tower_bound
from .duality import EsakiaSpaceFin, dual_space, phi_inverse, phi_table
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
    down_closure,
    find_isomorphism,
    inclusion_up_masks,
    is_downset,
    iter_bits,
    maximal_points,
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
    "make_nucleus",
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
    """Check the three nucleus axioms, reporting the first witness."""
    n = lattice.n
    if len(values) != n or any(v < 0 or v >= n for v in values):
        return NucleusReport(False, False, False, False, ("value table malformed",))
    inflationary = True
    idempotent = True
    meets = True
    witness: tuple[str, ...] | None = None
    for a in range(n):
        if not lattice.poset.leq_i(a, values[a]):
            inflationary = False
            if witness is None:
                witness = (lattice.labels[a],)
    for a in range(n):
        if not lattice.poset.leq_i(values[values[a]], values[a]):
            idempotent = False
            if witness is None:
                witness = (lattice.labels[a],)
    for a in range(n):
        for b in range(a, n):
            if values[lattice.meet(a, b)] != lattice.meet(values[a], values[b]):
                meets = False
                if witness is None:
                    witness = (lattice.labels[a], lattice.labels[b])
                break
        if not meets:
            break
    ok = inflationary and idempotent and meets
    return NucleusReport(ok, inflationary, idempotent, meets, witness)


def make_nucleus(lattice: FiniteLattice, values: tuple[int, ...]) -> Nucleus:
    report = validate_nucleus(lattice, values)
    if not report.ok:
        raise NucleusError(f"not a nucleus: {report}")
    return Nucleus(tuple(values))


def identity_nucleus(lattice: FiniteLattice) -> Nucleus:
    return Nucleus(tuple(range(lattice.n)))


def top_nucleus(lattice: FiniteLattice) -> Nucleus:
    return Nucleus((lattice.top,) * lattice.n)


def make_u(lattice: FiniteLattice, a: int) -> Nucleus:
    return Nucleus(tuple(lattice.join(a, x) for x in range(lattice.n)))


def make_v(lattice: FiniteLattice, a: int) -> Nucleus:
    return Nucleus(tuple(lattice.imp(a, x) for x in range(lattice.n)))


def make_w(lattice: FiniteLattice, a: int) -> Nucleus:
    return Nucleus(tuple(lattice.imp(lattice.imp(x, a), a) for x in range(lattice.n)))


def nucleus_leq(lattice: FiniteLattice, j: Nucleus, k: Nucleus) -> bool:
    return all(lattice.poset.leq_i(j.values[a], k.values[a]) for a in range(lattice.n))


# -- nuclear subsets of the dual space --------------------------------------


def is_nuclear(space: EsakiaSpaceFin, mask: int) -> bool:
    """Is the subset nuclear: closed, with the down-closure of each of its
    clopen traces clopen?  The dual space of a finite lattice is discrete,
    so every subset is closed and every down-closure is clopen: every
    subset of the carrier is nuclear, and only the range is checked."""
    space.poset.check_mask(mask)
    return True


def to_nuclear_set(space: EsakiaSpaceFin, j: Nucleus) -> int:
    """Points whose prime filter is its own preimage under the nucleus.

    Memoised in the source lattice's ``_cache["to_nuclear_set"]``, keyed
    by the full value table ``j.values``.
    """
    if space.filters is None or space.source is None:
        raise NucleusError("space has no source lattice attached")
    lattice = space.source
    memo = lattice._cache.setdefault("to_nuclear_set", {})
    out = memo.get(j.values)
    if out is not None:
        return out
    out = 0
    for k, members in enumerate(space.filters):
        pre = 0
        for a in range(lattice.n):
            if members >> j.values[a] & 1:
                pre |= 1 << a
        if pre == members:
            out |= 1 << k
    memo[j.values] = out
    return out


def from_nuclear_set(space: EsakiaSpaceFin, mask: int) -> Nucleus:
    """The nucleus induced by a nuclear set, through its action on opens.

    Memoised in the source lattice's ``_cache["from_nuclear_set"]``, keyed
    by the mask; the range is checked before the lookup, so only masks of
    the dual space are ever stored.
    """
    space.poset.check_mask(mask)
    lattice = space.source
    if lattice is None:
        raise NucleusError("space has no source lattice attached")
    memo = lattice._cache.setdefault("from_nuclear_set", {})
    out = memo.get(mask)
    if out is not None:
        return out
    table = phi_table(space)
    full = space.poset.full_mask
    values = []
    for a in range(lattice.n):
        img = full & ~down_closure(space.poset, mask & ~table[a])
        values.append(phi_inverse(space, img))
    out = memo[mask] = Nucleus(tuple(values))
    return out


@dataclass(frozen=True, eq=False)
class AssemblyFrame:
    """The assembly, carried by nuclear subsets under reverse inclusion."""

    source: FiniteLattice
    dual: EsakiaSpaceFin
    lattice: FiniteLattice
    sets: tuple[int, ...]
    nuclei: tuple[Nucleus, ...]


def assembly_frame(lattice: FiniteLattice) -> AssemblyFrame:
    """Build the assembly of a finite frame from its nuclear subsets."""
    cached = lattice._cache.get("assembly")
    if cached is not None:
        return cached
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
    asm_lattice = FiniteLattice(
        FinitePoset.from_up_masks(names, inclusion_up_masks([full & ~m for m in sets]))
    )
    nuclei = tuple(from_nuclear_set(space, m) for m in sets)
    for k, j in enumerate(nuclei):
        if to_nuclear_set(space, j) != sets[k]:
            raise NucleusError("nuclear set round trip failed")  # unreachable
    out = AssemblyFrame(lattice, space, asm_lattice, sets, nuclei)
    lattice._cache["assembly"] = out
    return out


# -- meets and joins of nuclei ------------------------------------------------


def nuclei_meet(lattice: FiniteLattice, js: list[Nucleus]) -> Nucleus:
    """Pointwise meet; the empty meet is the top nucleus."""
    top_row = (lattice.top,) * lattice.n
    return Nucleus(tuple(map(lattice.meet_all, zip(top_row, *(j.values for j in js)))))


def nuclear_sets_meet(space: EsakiaSpaceFin, masks: list[int]) -> int:
    """Meet in the poset of nuclear sets: on a finite discrete space the
    intersection is itself nuclear, so no closure step is needed."""
    out = space.poset.full_mask
    for m in masks:
        out &= space.poset.check_mask(m)
    return out


def nuclei_join(lattice: FiniteLattice, space: EsakiaSpaceFin, js: list[Nucleus]) -> Nucleus:
    """Join of nuclei, computed dually and cross-checked by iteration.

    The dual route intersects the nuclear sets; the oracle iterates the
    pointwise-sup map to its fixpoint.  The two must agree.
    """
    inter = nuclear_sets_meet(space, [to_nuclear_set(space, j) for j in js])
    primary = from_nuclear_set(space, inter)
    g = tuple(map(lattice.join_all, zip(range(lattice.n), *(j.values for j in js))))
    h = g
    while True:
        nxt = tuple(g[x] for x in h)
        if nxt == h:
            break
        h = nxt
    if h != primary.values:
        raise NucleusError("join via nuclear sets disagrees with the iteration oracle")
    return primary


# -- the subset-scan oracle ---------------------------------------------------


def enumerate_nuclei_oracle(lattice: FiniteLattice, *, bound: int | None = None) -> list[Nucleus]:
    """Every nucleus, found by scanning candidate fixpoint sets.

    A subset S containing the top, closed under binary meet and under
    implication from arbitrary elements, induces the nucleus
    j(a) = meet of {s in S : a <= s}; distinct sets induce distinct
    nuclei and all arise this way.  Output is ordered by ascending
    fixpoint-set mask.
    """
    cap = oracle_bound() if bound is None else bound
    n = lattice.n
    if n > cap:
        raise SizeBoundError(f"nucleus oracle refused for {n} elements (bound {cap})")
    imp_into = []
    for s in range(n):
        m = 0
        for a in range(n):
            m |= 1 << lattice.imp(a, s)
        imp_into.append(m)
    meet_t = lattice.meet_t
    up = lattice.poset._up
    top_bit = 1 << lattice.top
    out = []
    for cand in range(1 << n):
        if not cand & top_bit:
            continue
        members = list(iter_bits(cand))
        ok = True
        for s in members:
            if imp_into[s] & ~cand:
                ok = False
                break
        if ok:
            for ai, s in enumerate(members):
                row = meet_t[s]
                for bi in range(ai + 1, len(members)):
                    if not cand >> row[members[bi]] & 1:
                        ok = False
                        break
                if not ok:
                    break
        if not ok:
            continue
        values = tuple(lattice.meet_all(iter_bits(cand & up[a])) for a in range(n))
        report = validate_nucleus(lattice, values)
        if not report.ok:
            raise NucleusError("oracle induced a non-nucleus")  # unreachable
        out.append(Nucleus(values))
    return out


# -- derived frames -----------------------------------------------------------


def fixpoint_frame(lattice: FiniteLattice, j: Nucleus) -> FiniteLattice:
    """The frame of fixpoints, with joins corrected through the nucleus."""
    fix = [a for a in range(lattice.n) if j.values[a] == a]
    sub = FiniteLattice(
        FinitePoset.from_up_masks(
            [lattice.labels[a] for a in fix],
            inclusion_up_masks([lattice.poset.down_mask(a) for a in fix]),
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
    """Is j the meet of the w nuclei at its fixpoints?"""
    fix = [a for a in range(lattice.n) if j.values[a] == a]
    met = nuclei_meet(lattice, [make_w(lattice, a) for a in fix])
    return met.values == j.values


# -- booleanness of the assembly ----------------------------------------------


@dataclass(frozen=True)
class AssemblyBooleanReport:
    direct_boolean: bool
    nuclear_equals_regular_closed: bool
    max_of_clopen_downsets_clopen: bool
    scattered_frame: bool

    @property
    def agree(self) -> bool:
        vals = {
            self.direct_boolean,
            self.nuclear_equals_regular_closed,
            self.max_of_clopen_downsets_clopen,
            self.scattered_frame,
        }
        return len(vals) == 1

    @property
    def ok(self) -> bool:
        return self.agree and self.direct_boolean


def _discrete_space(space: EsakiaSpaceFin):
    from .spaces import FiniteSpace  # runtime import; spaces builds on this module

    n = space.poset.n
    return FiniteSpace(space.poset.elements, range(1 << n))


def is_assembly_boolean(lattice: FiniteLattice) -> AssemblyBooleanReport:
    """Four routes to booleanness of the assembly, kept separate."""
    from .spaces import regular_closed

    asm = assembly_frame(lattice)
    direct = is_boolean(asm.lattice)

    disc = _discrete_space(asm.dual)
    rc = set(regular_closed(disc))
    nuclear = set(asm.sets)
    rc_equal = nuclear == rc

    full = asm.dual.poset.full_mask
    clopen = set(asm.dual.clopen_masks())
    max_ok = True
    for d in range(full + 1):
        if d not in clopen or not is_downset(asm.dual.poset, d):
            continue
        if maximal_points(asm.dual.poset, d) not in clopen:
            max_ok = False
            break
    scattered = is_scattered_frame(lattice)
    return AssemblyBooleanReport(direct, rc_equal, max_ok, scattered)


@dataclass(frozen=True)
class BooleanizationCheck:
    ok: bool
    booleanization_size: int
    regular_closed_size: int
    dually_isomorphic: bool


def assembly_booleanization_check(lattice: FiniteLattice) -> BooleanizationCheck:
    """The booleanization of the assembly against the regular closed sets,
    compared through an order-reversing isomorphism."""
    from .spaces import regular_closed

    asm = assembly_frame(lattice)
    b: Booleanization = booleanization(asm.lattice)
    disc = _discrete_space(asm.dual)
    rc = sorted(regular_closed(disc))
    names = [set_label(asm.dual.poset.elements, m) for m in rc]
    rc_lattice = FiniteLattice(FinitePoset.from_up_masks(names, inclusion_up_masks(rc)))
    dual_iso = (
        find_isomorphism(b.lattice.poset, rc_lattice.poset.dual()) is not None
    )
    ok = dual_iso and b.lattice.n == rc_lattice.n
    return BooleanizationCheck(ok, b.lattice.n, rc_lattice.n, dual_iso)


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


def tower(lattice: FiniteLattice, k: int = 2, *, bound: int | None = None) -> TowerResult:
    """Iterate the assembly k times, embedding each stage by a -> u_a.

    On a finite frame the first assembly is Boolean, so every later stage
    repeats its size 2^|dual points|.
    """
    cap = tower_bound() if bound is None else bound
    if k > cap:
        raise SizeBoundError(f"tower depth {k} exceeds bound {cap}")
    if k >= 2 and dual_space(lattice).n > 3:
        raise SizeBoundError("tower depth 2 is limited to dual spaces of 3 points")
    stages = [lattice]
    embeddings: list[tuple[int, ...]] = []
    injective = True
    frame_ops = True
    complements = True
    cur = lattice
    for _ in range(k):
        asm = assembly_frame(cur)
        by_set = {m: i for i, m in enumerate(asm.sets)}
        emb = []
        for a in range(cur.n):
            u = make_u(cur, a)
            emb.append(by_set[to_nuclear_set(asm.dual, u)])
        embeddings.append(tuple(emb))
        if len(set(emb)) != cur.n:
            injective = False
        if emb[cur.bot] != asm.lattice.bot or emb[cur.top] != asm.lattice.top:
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
            ui = by_set[to_nuclear_set(asm.dual, make_u(cur, a))]
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
