"""Finite posets with bit-vector subset algebra.

Conventions used by the whole package:

* Elements are opaque string ids kept in construction order; all order
  data lives in per-element bitmasks.  Bit j of ``up_mask(i)`` is set
  iff ``elements[i] <= elements[j]``.
* A subset of the carrier is a plain int bitmask; bit i stands for
  ``elements[i]``.  Masks are range-checked where they enter the API.
* Listings of subsets are always emitted in ascending mask order, which
  is the canonical tie-break everywhere output must be reproducible.
* Input relations may be cover pairs or any generating subset of the
  order; the reflexive transitive closure is taken and antisymmetry is
  re-validated either way.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import permutations

from .bounds import poset_bound
from .errors import PosetError, SizeBoundError, SubsetError

__all__ = [
    "FinitePoset",
    "iter_bits",
    "up_closure",
    "down_closure",
    "maximal_points",
    "minimal_points",
    "is_upset",
    "is_downset",
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


class FinitePoset:
    """An immutable finite partial order."""

    __slots__ = ("elements", "_index", "_up", "_down")

    def __init__(self, elements: Sequence[str], relation: Iterable[tuple[str, str]] = ()):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise PosetError("duplicate element ids")
        index = {x: i for i, x in enumerate(elements)}
        n = len(elements)
        up = [1 << i for i in range(n)]
        for a, b in relation:
            if a not in index or b not in index:
                raise PosetError(f"relation mentions unknown element {a!r} or {b!r}")
            up[index[a]] |= 1 << index[b]
        # reflexive-transitive closure, one pass of bitset Warshall
        for k in range(n):
            bit = 1 << k
            for i in range(n):
                if up[i] & bit:
                    up[i] |= up[k]
        for i in range(n):
            for j in range(i + 1, n):
                if up[i] >> j & 1 and up[j] >> i & 1:
                    raise PosetError(
                        f"antisymmetry fails between {elements[i]!r} and {elements[j]!r}"
                    )
        down = [0] * n
        for i in range(n):
            rest = up[i]
            while rest:
                j = (rest & -rest).bit_length() - 1
                down[j] |= 1 << i
                rest &= rest - 1
        self.elements = elements
        self._index = index
        self._up = tuple(up)
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
        out = []
        for i in range(self.n):
            strict = self._up[i] & ~(1 << i)
            for j in iter_bits(strict):
                between = strict & self._down[j] & ~(1 << j)
                if not between:
                    out.append((self.elements[i], self.elements[j]))
        return out

    def dual(self) -> "FinitePoset":
        pairs = []
        for i in range(self.n):
            for j in iter_bits(self._up[i] & ~(1 << i)):
                pairs.append((self.elements[j], self.elements[i]))
        return FinitePoset(self.elements, pairs)

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
        if not isinstance(data, dict):
            raise PosetError("poset JSON must be an object")
        elements = data.get("elements")
        leq = data.get("leq", [])
        if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
            raise PosetError('poset JSON needs an "elements" list of strings')
        if not isinstance(leq, list):
            raise PosetError('poset "leq" must be a list of pairs')
        pairs = []
        for item in leq:
            if not (isinstance(item, list) and len(item) == 2
                    and all(isinstance(x, str) for x in item)):
                raise PosetError(f"bad leq pair {item!r}")
            pairs.append((item[0], item[1]))
        return cls(elements, pairs)

    def to_json_dict(self) -> dict:
        return {"elements": list(self.elements), "leq": [list(p) for p in self.covers()]}


# -- subset operations ----------------------------------------------------


def up_closure(poset: FinitePoset, mask: int) -> int:
    poset.check_mask(mask)
    out = 0
    for i in iter_bits(mask):
        out |= poset._up[i]
    return out


def down_closure(poset: FinitePoset, mask: int) -> int:
    poset.check_mask(mask)
    out = 0
    for i in iter_bits(mask):
        out |= poset._down[i]
    return out


def maximal_points(poset: FinitePoset, mask: int) -> int:
    poset.check_mask(mask)
    out = 0
    for i in iter_bits(mask):
        if poset._up[i] & mask == 1 << i:
            out |= 1 << i
    return out


def minimal_points(poset: FinitePoset, mask: int) -> int:
    poset.check_mask(mask)
    out = 0
    for i in iter_bits(mask):
        if poset._down[i] & mask == 1 << i:
            out |= 1 << i
    return out


def is_upset(poset: FinitePoset, mask: int) -> bool:
    return up_closure(poset, mask) == mask


def is_downset(poset: FinitePoset, mask: int) -> bool:
    return down_closure(poset, mask) == mask


def upset_masks(poset: FinitePoset) -> tuple[int, ...]:
    """All upsets of the poset, ascending by mask value."""
    n = poset.n
    if n > 20:
        raise SizeBoundError(f"refusing to enumerate upsets of a {n}-element poset")
    out = []
    for mask in range(1 << n):
        for i in iter_bits(mask):
            if poset._up[i] & ~mask:
                break
        else:
            out.append(mask)
    return tuple(out)


# -- isomorphism ----------------------------------------------------------


def _heights(up: Sequence[int], down: Sequence[int]) -> list[int]:
    # strict dominance keeps this well-founded on preorders as well
    n = len(up)
    strict = [down[i] & ~up[i] for i in range(n)]
    order = sorted(range(n), key=lambda i: bin(strict[i]).count("1"))
    h = [0] * n
    for i in order:
        h[i] = 1 + max((h[j] for j in iter_bits(strict[i])), default=-1)
    return h


def _invariants(up: Sequence[int], down: Sequence[int]) -> list[tuple]:
    """Per-element isomorphism invariants, refined once by neighbourhood."""
    n = len(up)
    heights = _heights(up, down)
    depths = _heights(down, up)
    base = [
        (bin(down[i]).count("1"), bin(up[i]).count("1"), heights[i], depths[i])
        for i in range(n)
    ]
    out = []
    for i in range(n):
        ups = tuple(sorted(base[j] for j in iter_bits(up[i]) if j != i))
        downs = tuple(sorted(base[j] for j in iter_bits(down[i]) if j != i))
        out.append((base[i], ups, downs))
    return out


def _relation_isomorphism(
    up_a: Sequence[int], up_b: Sequence[int]
) -> list[int] | None:
    """Backtracking search for a relation isomorphism between two reflexive
    relations given as up-masks.  Works for preorders as well as posets.
    Returns the image index for each source index, or None."""
    n = len(up_a)
    if len(up_b) != n:
        return None
    down_a = [0] * n
    down_b = [0] * n
    for i in range(n):
        for j in iter_bits(up_a[i]):
            down_a[j] |= 1 << i
        for j in iter_bits(up_b[i]):
            down_b[j] |= 1 << i
    inv_a = _invariants(up_a, down_a)
    inv_b = _invariants(up_b, down_b)
    if sorted(inv_a) != sorted(inv_b):
        return None
    # most-constrained-first: rare invariants and high degree early
    counts: dict[tuple, int] = {}
    for v in inv_a:
        counts[v] = counts.get(v, 0) + 1
    order = sorted(range(n), key=lambda i: (counts[inv_a[i]], -bin(up_a[i] | down_a[i]).count("1"), i))
    image = [-1] * n
    used = 0

    def extend(pos: int) -> bool:
        nonlocal used
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if used >> j & 1 or inv_b[j] != inv_a[i]:
                continue
            ok = True
            for pos2 in range(pos):
                i2 = order[pos2]
                j2 = image[i2]
                if (up_a[i] >> i2 & 1) != (up_b[j] >> j2 & 1) or (
                    up_a[i2] >> i & 1
                ) != (up_b[j2] >> j & 1):
                    ok = False
                    break
            if not ok:
                continue
            image[i] = j
            used |= 1 << j
            if extend(pos + 1):
                return True
            used &= ~(1 << j)
            image[i] = -1
        return False

    if not extend(0):
        return None
    return image


def find_isomorphism(a: FinitePoset, b: FinitePoset) -> dict[str, str] | None:
    """An order isomorphism a -> b as an element mapping, or None."""
    image = _relation_isomorphism(a._up, b._up)
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
            pos = 0
            for old in acc:
                perm[old] = pos
                pos += 1
            yield tuple(perm)
            return
        for variant in permutations(groups[gi]):
            yield from rec(gi + 1, acc + list(variant))

    yield from rec(0, [])


def _canonical(up: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical labeled form: the minimum relabeling over all permutations
    consistent with the per-element invariants."""
    n = len(up)
    down = [0] * n
    for i in range(n):
        for j in iter_bits(up[i]):
            down[j] |= 1 << i
    inv = _invariants(up, down)
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
            m = 0
            for j in iter_bits(up[i]):
                m |= 1 << perm[j]
            relabeled[perm[i]] = m
        key = tuple(relabeled)
        if best is None or key < best:
            best = key
    assert best is not None
    return best


@lru_cache(maxsize=None)
def _poset_reps(n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical up-mask tuples, one per isomorphism class of n-posets.

    Grows representatives one element at a time: a new top-labeled element
    z is glued onto each smaller representative by choosing its strict
    down-set D (a downset) and strict up-set U (an upset) with every member
    of D below every member of U, which is exactly the condition for the
    extension to stay transitive.
    """
    if n == 0:
        return ((),)
    k = n - 1
    seen: set[tuple[int, ...]] = set()
    for up in _poset_reps(k):
        downsets = []
        upsets = []
        for mask in range(1 << k):
            good_down = True
            good_up = True
            for i in iter_bits(mask):
                if down_bits(up, i) & ~mask:
                    good_down = False
                if up[i] & ~mask:
                    good_up = False
                if not (good_down or good_up):
                    break
            if good_down:
                downsets.append(mask)
            if good_up:
                upsets.append(mask)
        for d_mask in downsets:
            common = (1 << k) - 1
            for x in iter_bits(d_mask):
                common &= up[x] & ~(1 << x)
            for u_mask in upsets:
                if u_mask & d_mask or u_mask & ~common:
                    continue
                new_up = [up[i] | (1 << k if d_mask >> i & 1 else 0) for i in range(k)]
                new_up.append(1 << k | u_mask)
                seen.add(_canonical(tuple(new_up)))
    return tuple(sorted(seen))


def down_bits(up: Sequence[int], i: int) -> int:
    """Down-set mask of element i computed from up-masks."""
    out = 0
    for j in range(len(up)):
        if up[j] >> i & 1:
            out |= 1 << j
    return out


def enumerate_posets(n: int, *, bound: int | None = None) -> list[FinitePoset]:
    """All posets on n elements up to isomorphism, deterministically ordered."""
    cap = poset_bound() if bound is None else bound
    if n > cap:
        raise SizeBoundError(f"enumerate_posets({n}) exceeds bound {cap}")
    labels = [f"p{i}" for i in range(n)]
    out = []
    for up in _poset_reps(n):
        pairs = []
        for i in range(n):
            for j in iter_bits(up[i] & ~(1 << i)):
                pairs.append((labels[i], labels[j]))
        out.append(FinitePoset(labels, pairs))
    return out
