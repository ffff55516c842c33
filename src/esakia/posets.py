"""Finite posets with bit-vector subset algebra.

Conventions used by the whole package:

* Elements are opaque string ids kept in construction order; all order
  data lives in per-element bitmasks.  Bit j of ``up_mask(i)`` is set
  iff ``elements[i] <= elements[j]``.
* A subset of the carrier is a plain int bitmask; bit i stands for
  ``elements[i]``.  Masks are range-checked where they enter the API.
* Listings of subsets are always emitted in ascending mask order, which
  is the canonical tie-break everywhere output must be reproducible.
* Families of sets (prime filters, nuclear sets, opens, upsets, regular
  elements) enter through ``FinitePoset.of_family``,
  which orders them by inclusion.  It checks only that the sets are
  distinct: inclusion among distinct sets is reflexive, transitive and
  antisymmetric, so there is nothing else to check.  Up- and down-masks
  come from one kernel, ``_inclusion_masks``.
* The converse of a relation given by rows is ``_transpose``, and the
  Hasse covers of a strict relation are ``_cover_masks``.  Down-masks,
  the holders of a family, phi, the neighbourhood filters of a space and
  the Birkhoff masks of a lattice and their holders in the completely
  prime filter test and ``meet_primes`` are all transposes; ``covers``,
  the solid edges of ``space_dot`` and the irreducibles of N(L) are all
  cover masks.  The union and the intersection of the rows that a mask
  selects are ``_join_rows`` and ``_meet_rows``: ``_cover_masks``,
  ``down_closure`` (so ``neg``) and ``meet_primes``, over those holders,
  join rows; ``inclusion_up_masks``, ``_extensions``, the
  order-embedding test of ``FiniteLattice`` and the nucleus values of
  ``enumerate_nuclei_oracle`` meet them.  The Heyting implication of a
  dual space and ``from_nuclear_set`` read instead the one down-closure
  table of that space (``duality._down_closures``), which builds each
  closure from the closure of the mask without its lowest point.
* Masks and pairs enter through ``FinitePoset.from_up_masks``, which
  checks reflexivity, transitivity and antisymmetry of the masks it is
  given.  Label pairs come only from JSON input, ``chain``/``antichain``
  and tests: the pair constructor takes the reflexive transitive closure
  of any generating relation (cover pairs or more) and hands the masks to
  the same checks.
* An order is extended by one point in one place: ``_opens_with_point``
  grows the upsets, ``_upsets`` lists those of a preorder point by point,
  and ``_extensions`` yields every way to place a new point in a preorder
  (topologies, ``upset_masks``, ``FiniteSpace.from_preorder``).  Posets
  grow by a new maximal point above the complement of each upset of a
  representative, which reaches every class: every poset is a smaller
  poset plus a maximal point.
* Isomorphisms of orders and of specialization preorders are searched
  by ``_relation_isomorphism``, which takes the up- and down-masks of
  both relations.  It runs only behind ``find_isomorphism`` and
  ``spaces.find_homeomorphism``, for callers and tests: no report
  searches, each compares along the map its construction gives.
  Each distinct ``_invariants`` tuple gets a small class id and the
  candidates of a class are one mask; a candidate is tested by two mask
  comparisons, the used points above and below it against the images of
  the placed points above and below the source.
* Whatever is derived from a lattice, a dual space or a topological
  space is memoised in one place, ``_memo``, on the object it describes.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from functools import lru_cache, wraps
from itertools import chain, islice, permutations

from .bounds import poset_bound
from .errors import PosetError, SizeBoundError, SubsetError

__all__ = [
    "FinitePoset",
    "iter_bits",
    "inclusion_up_masks",
    "set_label",
    "down_closure",
    "maximal_points",
    "image_mask",
    "preimage_mask",
    "upset_masks",
    "find_isomorphism",
    "enumerate_posets",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_label(elements: Sequence[str], mask: int) -> str:
    """A subset in set notation, members in ascending index order."""
    return "{" + ",".join(elements[i] for i in iter_bits(mask)) + "}"


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """The converse of a relation given by rows: bit i of out[p] is set iff
    bit p of rows[i] is set, for p below width.  Walks only the set bits."""
    out = [0] * width
    for i, m in enumerate(rows):
        bit = 1 << i
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= bit
            m ^= low
    return out


def _join_rows(rows: Sequence[int], mask: int) -> int:
    """The union of rows[i] over the set bits i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _meet_rows(rows: Sequence[int], mask: int, top: int) -> int:
    """top intersected with rows[i] for each set bit i of mask."""
    while mask:
        low = mask & -mask
        top &= rows[low.bit_length() - 1]
        mask ^= low
    return top


def _cover_masks(strict: Sequence[int]) -> list[int]:
    """Hasse covers of a strict relation given by rows: entry i holds the
    members of strict[i] that lie in no strict[k] with k in strict[i]."""
    return [m & ~_join_rows(strict, m) for m in strict]


def _inclusion_masks(family: Sequence[int]) -> tuple[list[int], list[int]]:
    """Up- and down-masks of a family of distinct subsets ordered by inclusion.

    The holders of bit p, the indices k with p in family[k], are the
    ``_transpose`` of the family.  Bit k of up[i] is set iff family[k]
    holds every member of family[i]: the meet of the holders of the bits
    inside family[i].  Bit k of down[i] is set iff family[k] holds no bit
    outside family[i]: the complement of the join of the holders of those
    bits.  As every bit position is inside or outside, one shift loop over
    the holders serves both halves.
    """
    holders = _transpose(family, max(family, default=0).bit_length())
    every = (1 << len(family)) - 1
    up = []
    down = []
    for m in family:
        meet = every
        join = 0
        for h in holders:
            if m & 1:
                meet &= h
            else:
                join |= h
            m >>= 1
        up.append(meet)
        down.append(every & ~join)
    return up, down


def inclusion_up_masks(family: Sequence[int]) -> list[int]:
    """Up-masks of a family of distinct subsets ordered by inclusion: bit k
    of entry i is set iff family[i] <= family[k].  The up half of
    ``_inclusion_masks``, walking only the bits inside each set.
    """
    holders = _transpose(family, max(family, default=0).bit_length())
    every = (1 << len(family)) - 1
    return [_meet_rows(holders, m, every) for m in family]


def _memo(key: str, by: Callable[[object], Hashable] | None = None):
    """Memoise a function of an object in that object's ``_cache`` dict.

    ``fn(obj)`` is stored at ``obj._cache[key]``; with ``by``, ``fn(obj, x)``
    is stored at ``obj._cache[key][by(x)]``.  A call that raises stores
    no value, so a function that validates its input before it returns is
    memoised only on valid input.  Nothing is kept outside the object, so
    a memo lives exactly as long as the object it describes.
    """

    missing = object()

    def decorate(fn):
        if by is None:

            def memoised(obj):
                cache = obj._cache
                if key in cache:
                    return cache[key]
                out = cache[key] = fn(obj)
                return out

        else:

            def memoised(obj, x):
                cache = obj._cache
                if key not in cache:
                    cache[key] = {}
                memo = cache[key]
                k = by(x)
                # one lookup on a hit, as a tuple does not cache its hash,
                # and no exception on a miss
                out = memo.get(k, missing)
                if out is missing:
                    out = memo[k] = fn(obj, x)
                return out

        memoised = wraps(fn)(memoised)
        memoised.memo_key = key
        return memoised

    return decorate


def _index_of(elements: tuple[str, ...]) -> dict[str, int]:
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        raise PosetError("duplicate element ids")
    return index


def _close(up: list[int]) -> None:
    """Transitive closure of reflexive up-masks in place (bitset Warshall)."""
    n = len(up)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if up[i] & bit:
                up[i] |= up[k]


def _read_order_json(
    data: object, noun: str, error: type[Exception]
) -> tuple[list[str], list[tuple[str, str]]]:
    """The elements and the leq pairs of an {"elements", "leq"} JSON object.
    A malformed shape raises error, its message naming the model as noun."""
    if not isinstance(data, dict):
        raise error(f"{noun} JSON must be an object")
    elements = data.get("elements")
    leq = data.get("leq", [])
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise error(f'{noun} JSON needs an "elements" list of strings')
    if not isinstance(leq, list):
        raise error(f'{noun} "leq" must be a list of pairs')
    pairs = []
    for item in leq:
        if not (isinstance(item, list) and len(item) == 2
                and all(isinstance(x, str) for x in item)):
            raise error(f"bad leq pair {item!r}")
        pairs.append((item[0], item[1]))
    return elements, pairs


class FinitePoset:
    """An immutable finite partial order."""

    __slots__ = ("elements", "_index", "_up", "_down")

    def __init__(self, elements: Sequence[str], relation: Iterable[tuple[str, str]] = ()):
        """The order generated by the pairs (a, b) of relation, read a <= b."""
        elements = tuple(elements)
        index = _index_of(elements)
        up = [1 << i for i in range(len(elements))]
        for a, b in relation:
            if a not in index or b not in index:
                raise PosetError(f"relation mentions unknown element {a!r} or {b!r}")
            up[index[a]] |= 1 << index[b]
        _close(up)
        self._init_order(elements, index, up)

    @classmethod
    def from_up_masks(cls, elements: Sequence[str], up: Sequence[int]) -> "FinitePoset":
        """The order with elements[i] <= elements[j] iff bit j of up[i] is set.

        The masks are checked, not closed: a row that misses its own bit,
        leaves the carrier or misses a bit of a row it holds, or two
        elements above each other, raise PosetError.
        """
        elements = tuple(elements)
        poset = cls.__new__(cls)
        poset._init_order(elements, _index_of(elements), up)
        return poset

    @classmethod
    def of_family(cls, elements: Sequence[str], family: Sequence[int]) -> "FinitePoset":
        """The inclusion order: elements[i] <= elements[j] iff family[i] is a
        subset of family[j].

        One set per element, all distinct, or PosetError; inclusion among
        distinct sets is a partial order, so the masks are not re-checked.
        """
        elements = tuple(elements)
        if len(family) != len(elements):
            raise PosetError(f"{len(family)} sets for {len(elements)} elements")
        index = _index_of(elements)
        if len(set(family)) != len(family):
            first: dict[int, int] = {}
            for j, m in enumerate(family):
                i = first.setdefault(m, j)
                if i != j:
                    raise PosetError(
                        f"{elements[i]!r} and {elements[j]!r} are the same set"
                    )
        up, down = _inclusion_masks(family)
        poset = cls.__new__(cls)
        poset.elements = elements
        poset._index = index
        poset._up = tuple(up)
        poset._down = tuple(down)
        return poset

    def _init_order(
        self, elements: tuple[str, ...], index: dict[str, int], up: Sequence[int]
    ) -> None:
        up = tuple(up)
        n = len(elements)
        if len(up) != n:
            raise PosetError(f"{len(up)} up-masks for {n} elements")
        for i, m in enumerate(up):
            if not m >> i & 1:
                raise PosetError(f"reflexivity fails at {elements[i]!r}")
            if m >> n:
                raise PosetError(f"up-mask of {elements[i]!r} leaves the {n}-element carrier")
        for i, m in enumerate(up):
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                missing = up[j] & ~m
                if missing:
                    k = (missing & -missing).bit_length() - 1
                    raise PosetError(
                        f"transitivity fails: {elements[i]!r} <= {elements[j]!r} <= "
                        f"{elements[k]!r} but not {elements[i]!r} <= {elements[k]!r}"
                    )
        down = _transpose(up, n)
        for i, m in enumerate(up):
            # on a transitive relation the first i with a partner above and
            # below it is the smaller of the first such pair, its lowest
            # partner the larger
            both = m & down[i] & ~(1 << i)
            if both:
                j = (both & -both).bit_length() - 1
                raise PosetError(
                    f"antisymmetry fails between {elements[i]!r} and {elements[j]!r}"
                )
        self.elements = elements
        self._index = index
        self._up = up
        self._down = tuple(down)

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.elements)) - 1

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise PosetError(f"unknown element {x!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return bool(self._up[self.index(a)] >> self.index(b) & 1)

    def leq_i(self, i: int, j: int) -> bool:
        return bool(self._up[i] >> j & 1)

    def up_mask(self, i: int) -> int:
        return self._up[i]

    def down_mask(self, i: int) -> int:
        return self._down[i]

    def check_mask(self, mask: int) -> int:
        if mask < 0 or mask >> len(self.elements):
            raise SubsetError(f"mask {mask:#x} is not a subset of a {self.n}-element carrier")
        return mask

    def subset(self, ids: Iterable[str]) -> int:
        mask = 0
        for x in ids:
            mask |= 1 << self.index(x)
        return mask

    def members(self, mask: int) -> tuple[str, ...]:
        self.check_mask(mask)
        return tuple(self.elements[i] for i in iter_bits(mask))

    def covers(self) -> list[tuple[str, str]]:
        """Hasse diagram edges (a, b) with b covering a."""
        strict = [m & ~(1 << i) for i, m in enumerate(self._up)]
        return [
            (self.elements[i], self.elements[j])
            for i, m in enumerate(_cover_masks(strict))
            for j in iter_bits(m)
        ]

    def dual(self) -> "FinitePoset":
        return FinitePoset.from_up_masks(self.elements, self._down)

    # -- value semantics ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __hash__(self) -> int:
        return hash((self.elements, self._up))

    def __repr__(self) -> str:
        return f"FinitePoset({list(self.elements)!r}, covers={self.covers()!r})"

    # -- constructors ---------------------------------------------------

    @classmethod
    def chain(cls, n: int, prefix: str = "c") -> "FinitePoset":
        labels = [f"{prefix}{i}" for i in range(n)]
        return cls(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])

    @classmethod
    def antichain(cls, n: int, prefix: str = "a") -> "FinitePoset":
        return cls([f"{prefix}{i}" for i in range(n)], ())

    @classmethod
    def from_json_dict(cls, data: object) -> "FinitePoset":
        return cls(*_read_order_json(data, "poset", PosetError))

    def to_json_dict(self) -> dict:
        return {"elements": list(self.elements), "leq": [list(p) for p in self.covers()]}


# -- subset operations ----------------------------------------------------


def down_closure(poset: FinitePoset, mask: int) -> int:
    return _join_rows(poset._down, poset.check_mask(mask))


def maximal_points(poset: FinitePoset, mask: int) -> int:
    poset.check_mask(mask)
    out = 0
    for i in iter_bits(mask):
        if poset._up[i] & mask == 1 << i:
            out |= 1 << i
    return out


def image_mask(mask: int, mapping: Sequence[int]) -> int:
    """The image of a subset under the index map i -> mapping[i]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << mapping[low.bit_length() - 1]
        mask ^= low
    return out


def preimage_mask(mask: int, mapping: Sequence[int]) -> int:
    """The indices i with mapping[i] in the subset."""
    out = 0
    for i, c in enumerate(mapping):
        if mask >> c & 1:
            out |= 1 << i
    return out


_UPSET_CAP = 1 << 20


def upset_masks(poset: FinitePoset) -> tuple[int, ...]:
    """All upsets of the poset, ascending by mask value.

    Refused as soon as the list being grown passes 2^20 entries, so a
    long chain lists its few upsets while a wide antichain is refused.
    """
    masks = _upsets(poset._up, _UPSET_CAP)
    if len(masks) > _UPSET_CAP:
        raise SizeBoundError(
            f"refusing to enumerate upsets of a {poset.n}-element poset:"
            " more than 2^20 upsets"
        )
    return tuple(masks)


# -- extending an order by one point --------------------------------------


def _opens_with_point(
    opens: Sequence[int], k: int, below: int, above: int, limit: int | None = None
) -> list[int]:
    """The upsets of a preorder on points 0..k-1 extended by a point k.

    below and above are the old points x <= k and k <= x, a downset and an
    upset of the old preorder with every member of below under every member
    of above (points in both become equivalent to k).  A new upset either
    misses k, and then misses every point below it, or holds k and every
    point above it.  Ascending input gives ascending output.  With a limit,
    only the first limit upsets are made.
    """
    bit = 1 << k
    grown = chain(
        (v for v in opens if not v & below), (v | bit for v in opens if not above & ~v)
    )
    return list(islice(grown, limit))


def _upsets(up: Sequence[int], cap: int | None = None) -> list[int]:
    """All upsets of a preorder given by its up-masks, ascending by mask,
    grown point by point so the work follows the output.

    With a cap, growth stops as soon as a level holds cap + 1 upsets and
    that partial level is returned: a level has at least as many upsets
    as the one before, so a result longer than cap means the preorder
    has more than cap upsets.
    """
    down = _transpose(up, len(up))
    limit = None if cap is None else cap + 1
    opens = [0]
    for k in range(len(up)):
        old = (1 << k) - 1
        opens = _opens_with_point(opens, k, down[k] & old, up[k] & old, limit)
        if cap is not None and len(opens) > cap:
            break
    return opens


def _extensions(opens: Sequence[int], k: int) -> Iterator[tuple[int, int]]:
    """Every (below, above) pair that places a new point k on the preorder
    on points 0..k-1 whose upsets are opens.

    below is the complement of an upset (a downset), above an upset under
    every point of below, which is exactly what keeps the extension
    transitive; points in both become equivalent to k.
    """
    full = (1 << k) - 1
    # minimal[x]: the smallest upset holding x, the points above x, is the
    # meet of the opens that hold x
    minimal = [_meet_rows(opens, h, full) for h in _transpose(opens, k)]
    for v in opens:
        below = full & ~v
        common = _meet_rows(minimal, below, full)
        for above in opens:
            if not above & ~common:
                yield below, above


# -- isomorphism ----------------------------------------------------------


def _heights(up: Sequence[int], down: Sequence[int]) -> list[int]:
    """The length of the longest strict chain below each point, found by
    peeling off the minimal points of what is left, one layer at a time.
    Strict dominance keeps this well-founded on preorders as well."""
    strict = [d & ~u for u, d in zip(up, down)]
    h = [0] * len(up)
    left = list(range(len(up)))
    rest = (1 << len(up)) - 1
    height = 0
    while left:
        layer = 0
        keep = []
        for i in left:
            if strict[i] & rest:
                keep.append(i)
            else:
                h[i] = height
                layer |= 1 << i
        rest ^= layer
        left = keep
        height += 1
    return h


def _invariants(up: Sequence[int], down: Sequence[int]) -> list[tuple]:
    """Per-element isomorphism invariants, refined once by neighbourhood.

    Each element's base invariant is (down count, up count, height,
    depth); the refinement adds the sorted base invariants of the other
    elements above it and below it.  Those multisets are counted off the
    mask of each base class in ascending class order, which lists them
    already sorted.
    """
    n = len(up)
    heights = _heights(up, down)
    depths = _heights(down, up)
    base = [
        (down[i].bit_count(), up[i].bit_count(), heights[i], depths[i])
        for i in range(n)
    ]
    members: dict[tuple, int] = {}
    for i, b in enumerate(base):
        members[b] = members.get(b, 0) | 1 << i
    classes = sorted(members.items())
    out = []
    for i in range(n):
        above = up[i] & ~(1 << i)
        below = down[i] & ~(1 << i)
        ups: list[tuple] = []
        downs: list[tuple] = []
        for b, m in classes:
            if above & m:
                ups += [b] * (above & m).bit_count()
            if below & m:
                downs += [b] * (below & m).bit_count()
        out.append((base[i], tuple(ups), tuple(downs)))
    return out


def _relation_isomorphism(
    up_a: Sequence[int], down_a: Sequence[int], up_b: Sequence[int], down_b: Sequence[int]
) -> list[int] | None:
    """Backtracking search for a relation isomorphism between two reflexive
    relations given by their up- and down-masks.  Works for preorders as
    well as posets.  Returns the image index for each source index, or None.

    The partial map is a bijection from the placed source indices onto the
    used target indices, so a candidate j for i agrees with it on every
    placed pair iff the used points above and below j are the images of the
    placed points above and below i: two mask comparisons per candidate.
    """
    n = len(up_a)
    if len(up_b) != n:
        return None
    inv_a = _invariants(up_a, down_a)
    inv_b = _invariants(up_b, down_b)
    if sorted(inv_a) != sorted(inv_b):
        return None
    # each distinct invariant gets a class id; the candidates of a class
    # are one mask of target indices
    ids: dict[tuple, int] = {}
    cls = [ids.setdefault(v, len(ids)) for v in inv_a]
    pool = [0] * len(ids)
    for j, v in enumerate(inv_b):
        pool[ids[v]] |= 1 << j
    # most-constrained-first: rare invariants and high degree early
    order = sorted(
        range(n),
        key=lambda i: (pool[cls[i]].bit_count(), -(up_a[i] | down_a[i]).bit_count(), i),
    )
    image = [0] * n

    def extend(pos: int, placed: int, used: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        above = image_mask(up_a[i] & placed, image)
        below = image_mask(down_a[i] & placed, image)
        rest = pool[cls[i]] & ~used
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            if up_b[j] & used == above and down_b[j] & used == below:
                image[i] = j
                if extend(pos + 1, placed | 1 << i, used | low):
                    return True
        return False

    return image if extend(0, 0, 0) else None


def find_isomorphism(a: FinitePoset, b: FinitePoset) -> dict[str, str] | None:
    """An order isomorphism a -> b as an element mapping, or None."""
    image = _relation_isomorphism(a._up, a._down, b._up, b._down)
    if image is None:
        return None
    return {a.elements[i]: b.elements[image[i]] for i in range(a.n)}


# -- exhaustive enumeration up to isomorphism -----------------------------


def _group_perms(groups: list[list[int]], n: int) -> Iterator[tuple[int, ...]]:
    """All relabelings old-index -> new-index that respect the invariant
    grouping; group order fixes which block of new indices each group gets."""
    def rec(gi: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if gi == len(groups):
            perm = [0] * n
            for pos, old in enumerate(acc):
                perm[old] = pos
            yield tuple(perm)
            return
        for variant in permutations(groups[gi]):
            yield from rec(gi + 1, acc + list(variant))

    yield from rec(0, [])


def _canonical(up: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical labeled form: the minimum relabeling over all permutations
    consistent with the per-element invariants."""
    n = len(up)
    inv = _invariants(up, _transpose(up, n))
    keyed = sorted(range(n), key=lambda i: (inv[i], i))
    groups: list[list[int]] = []
    for i in keyed:
        if groups and inv[groups[-1][-1]] == inv[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    best: tuple[int, ...] | None = None
    for perm in _group_perms(groups, n):
        relabeled = [0] * n
        for i in range(n):
            relabeled[perm[i]] = image_mask(up[i], perm)
        key = tuple(relabeled)
        if best is None or key < best:
            best = key
    assert best is not None
    return best


@lru_cache(maxsize=None)
def _poset_reps(n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical up-mask tuples, one per isomorphism class of n-posets.

    Grows representatives one element at a time: a new maximal element k
    goes above the points outside each upset of each smaller
    representative, and the result is kept in ``_canonical`` form.  Every
    class is reached, as an n-poset less a maximal point m is isomorphic
    to a representative, which takes the points below m to a downset.
    """
    if n == 0:
        return ((),)
    bit = 1 << n - 1
    seen: set[tuple[int, ...]] = set()
    for up in _poset_reps(n - 1):
        for v in _upsets(up):
            new_up = [m if v >> i & 1 else m | bit for i, m in enumerate(up)]
            seen.add(_canonical((*new_up, bit)))
    return tuple(sorted(seen))


def _posets(n: int) -> Iterator[FinitePoset]:
    """``enumerate_posets`` one poset at a time; the size is checked at the call."""
    if n < 0:
        raise ValueError(f"{n} is not a non-negative integer")
    cap = poset_bound()
    if n > cap:
        raise SizeBoundError(f"enumerate_posets({n}) exceeds bound {cap}")
    labels = [f"p{i}" for i in range(n)]
    return (FinitePoset.from_up_masks(labels, up) for up in _poset_reps(n))


def enumerate_posets(n: int) -> list[FinitePoset]:
    """All posets on n elements up to isomorphism, deterministically ordered."""
    return list(_posets(n))
