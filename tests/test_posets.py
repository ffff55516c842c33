import hashlib
import json
import random
import sys
from functools import reduce
from itertools import permutations
from operator import and_, or_

import pytest
from hypothesis import example, given, strategies as st

from esakia import dot
from esakia.duality import dual_space
from esakia.errors import PosetError, SizeBoundError
from esakia.lattices import booleanization
from esakia.nuclei import assembly_booleanization_check, fixpoint_frame, identity_nucleus
from esakia.posets import (
    FinitePoset,
    _canonical,
    _cover_masks,
    _extensions,
    _heights,
    _inclusion_masks,
    _invariants,
    _join_rows,
    _meet_rows,
    _poset_reps,
    _relation_isomorphism,
    _transpose,
    _upsets,
    down_closure,
    enumerate_posets,
    find_isomorphism,
    image_mask,
    inclusion_up_masks,
    iter_bits,
    maximal_points,
    preimage_mask,
    upset_masks,
)
from esakia.spaces import enumerate_topologies

from conftest import posets, reference_frames, scan_preorder_opens


def minimal_points(poset, mask):
    """The literal oracle: members of mask with no other member below."""
    poset.check_mask(mask)
    out = 0
    for i in iter_bits(mask):
        if poset._down[i] & mask == 1 << i:
            out |= 1 << i
    return out


def up_closure(poset, mask):
    """The literal helper: the union of the up-masks of the members."""
    poset.check_mask(mask)
    out = 0
    for i in iter_bits(mask):
        out |= poset._up[i]
    return out


def is_upset(poset, mask):
    """The literal oracle: mask equals its own up-closure."""
    return up_closure(poset, mask) == mask


def is_downset(poset, mask):
    """The literal oracle: mask equals its own down-closure."""
    return down_closure(poset, mask) == mask

# isomorphism classes of posets on 1..6 points, OEIS A000112
POSET_COUNTS = [1, 2, 5, 16, 63, 318]


def test_enumeration_counts():
    for n, want in enumerate(POSET_COUNTS, start=1):
        assert len(enumerate_posets(n)) == want


def test_enumeration_classes_are_pairwise_nonisomorphic():
    seen = enumerate_posets(4)
    for i, a in enumerate(seen):
        for b in seen[i + 1 :]:
            assert find_isomorphism(a, b) is None


def test_enumeration_bound():
    with pytest.raises(SizeBoundError):
        enumerate_posets(99)


def test_enumeration_refuses_a_negative_size():
    with pytest.raises(ValueError, match="^-1 is not a non-negative integer$"):
        enumerate_posets(-1)


def test_chain_and_antichain():
    c = FinitePoset.chain(3)
    assert c.covers() == [("c0", "c1"), ("c1", "c2")]
    assert c.leq("c0", "c2")
    a = FinitePoset.antichain(3)
    assert a.covers() == []
    assert not a.leq("a0", "a1")


def test_constructor_rejects_cycles():
    with pytest.raises(PosetError):
        FinitePoset(["a", "b"], [("a", "b"), ("b", "a")])


def test_constructor_rejects_duplicates():
    with pytest.raises(PosetError):
        FinitePoset(["a", "a"], [])


def test_closures_on_fence():
    # a < b > c: up of {a} is {a,b}, down of {b} is all
    p = FinitePoset(["a", "b", "c"], [("a", "b"), ("c", "b")])
    ma, mb, mc = (1 << p.index(x) for x in "abc")
    assert up_closure(p, ma) == ma | mb
    assert down_closure(p, mb) == ma | mb | mc
    assert maximal_points(p, p.full_mask) == mb
    assert minimal_points(p, p.full_mask) == ma | mc
    assert is_upset(p, mb)
    assert not is_upset(p, ma)
    assert is_downset(p, ma | mc)


def test_dual_is_involutive():
    p = FinitePoset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    assert p.dual().dual() == p
    assert p.dual().leq("b", "a")


def test_json_round_trip():
    p = FinitePoset(["x", "y", "z"], [("x", "y")])
    data = json.loads(json.dumps(p.to_json_dict()))
    assert FinitePoset.from_json_dict(data) == p


def test_find_isomorphism_relabels():
    p = FinitePoset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    q = FinitePoset(["u", "v", "w"], [("w", "u"), ("w", "v")])
    iso = find_isomorphism(p, q)
    assert iso is not None
    assert iso["a"] == "w"
    assert find_isomorphism(p, FinitePoset.chain(3)) is None


def pair_loop_isomorphism(up_a, up_b):
    """The literal oracle for the first mapping the search finds: the same
    candidate order, each candidate checked against every placed pair."""
    n = len(up_a)
    if len(up_b) != n:
        return None
    down_a = _transpose(up_a, n)
    inv_a = _invariants(up_a, down_a)
    inv_b = _invariants(up_b, _transpose(up_b, n))
    if sorted(inv_a) != sorted(inv_b):
        return None
    counts = {v: inv_a.count(v) for v in inv_a}
    order = sorted(
        range(n), key=lambda i: (counts[inv_a[i]], -bin(up_a[i] | down_a[i]).count("1"), i)
    )
    image = [-1] * n

    def extend(pos):
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if j in image or inv_b[j] != inv_a[i]:
                continue
            if all(
                (up_a[i] >> i2 & 1) == (up_b[j] >> image[i2] & 1)
                and (up_a[i2] >> i & 1) == (up_b[image[i2]] >> j & 1)
                for i2 in order[:pos]
            ):
                image[i] = j
                if extend(pos + 1):
                    return True
                image[i] = -1
        return False

    return image if extend(0) else None


def is_relation_isomorphism(up_a, up_b, image):
    n = len(up_a)
    return sorted(image) == list(range(n)) and all(
        (up_a[i] >> k & 1) == (up_b[image[i]] >> image[k] & 1)
        for i in range(n)
        for k in range(n)
    )


def relabel(up, perm):
    """The relation carried along i -> perm[i]."""
    out = [0] * len(up)
    for i, m in enumerate(up):
        out[perm[i]] = image_mask(m, perm)
    return tuple(out)


def labelled_preorders(n):
    """Every reflexive transitive relation on n points, by brute force."""
    pairs = [(i, k) for i in range(n) for k in range(n) if i != k]
    found = set()
    for chosen in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        for b, (i, k) in enumerate(pairs):
            if chosen >> b & 1:
                up[i] |= 1 << k
        if all(up[k] & ~up[i] == 0 for i in range(n) for k in iter_bits(up[i])):
            found.add(tuple(up))
    return sorted(found)


def check_search(up_a, up_b, exists):
    n = len(up_a)
    got = _relation_isomorphism(up_a, _transpose(up_a, n), up_b, _transpose(up_b, len(up_b)))
    assert got == pair_loop_isomorphism(up_a, up_b)
    assert (got is not None) == exists
    if got is not None:
        assert is_relation_isomorphism(up_a, up_b, got)


def scan_exists(up_a, up_b):
    """The literal oracle: some permutation is a relation isomorphism."""
    n = len(up_a)
    return len(up_b) == n and any(
        is_relation_isomorphism(up_a, up_b, perm) for perm in permutations(range(n))
    )


def test_the_search_agrees_with_the_permutation_scan():
    rng = random.Random(7)
    orders = [up for n in range(5) for up in _poset_reps(n)]
    orders += [up for n in range(4) for up in labelled_preorders(n)]
    assert len(orders) == 25 + 35
    for up_a in orders:
        for up_b in orders:
            # a random relabelling of b moves the search off the identity
            perm = list(range(len(up_b)))
            rng.shuffle(perm)
            up_b = relabel(up_b, perm)
            check_search(up_a, up_b, scan_exists(up_a, up_b))


def test_the_search_finds_every_random_relabelling():
    rng = random.Random(11)
    orders = [up for n in (5, 6) for up in _poset_reps(n)]
    orders += [s.specialization() for s in enumerate_topologies(4)]
    for up in orders:
        perm = list(range(len(up)))
        rng.shuffle(perm)
        check_search(up, relabel(up, perm), True)


def test_upset_masks_match_the_scan():
    assert upset_masks(FinitePoset.chain(2)) == (0b00, 0b10, 0b11)
    for n in range(7):
        labels = [f"p{i}" for i in range(n)]
        for up in _poset_reps(n):
            p = FinitePoset.from_up_masks(labels, up)
            assert upset_masks(p) == tuple(scan_preorder_opens(p._up))


def test_upset_cap_counts_the_output_not_the_carrier():
    # a capped grow stops at the first level past the cap, and only then
    three = FinitePoset.antichain(3)._up
    assert _upsets(three, 8) == list(range(8))
    assert len(_upsets(three, 7)) > 7
    # and it stops inside that level, at cap + 1 upsets
    assert len(_upsets(FinitePoset.antichain(5)._up, 5)) == 6
    assert len(upset_masks(FinitePoset.chain(21))) == 22
    with pytest.raises(SizeBoundError) as exc:
        upset_masks(FinitePoset.antichain(21))
    assert str(exc.value) == (
        "refusing to enumerate upsets of a 21-element poset: more than 2^20 upsets"
    )


def grow_at_every_position(level, k, antisymmetric):
    """The canonical forms of every order on points 0..k that puts the new
    point k at an ``_extensions`` pair of an order in level; antisymmetric
    keeps only the pairs that make k equivalent to no old point."""
    grown = set()
    for up in level:
        for below, above in _extensions(_upsets(up), k):
            if antisymmetric and below & above:
                continue
            new_up = [m | 1 << k if below >> i & 1 else m for i, m in enumerate(up)]
            grown.add(_canonical((*new_up, 1 << k | above)))
    return grown


def test_preorder_growth_counts_the_preorder_classes():
    # the preorders up to isomorphism, OEIS A001930
    level = {()}
    counts = [1]
    for k in range(5):
        level = grow_at_every_position(level, k, antisymmetric=False)
        counts.append(len(level))
    assert counts == [1, 1, 3, 9, 33, 139]


def test_growth_by_a_maximal_point_matches_growth_at_every_position():
    # the oracle grows its own levels, putting the new point anywhere
    level = {()}
    for n in range(1, 7):
        level = grow_at_every_position(level, n - 1, antisymmetric=True)
        assert tuple(sorted(level)) == _poset_reps(n)


@given(posets())
def test_up_closure_is_a_closure_operator(p):
    for mask in range(1 << min(p.n, 5)):
        up = up_closure(p, mask)
        assert up & mask == mask
        assert up_closure(p, up) == up
        assert is_upset(p, up)


@given(posets())
def test_down_closure_mirrors_up_closure_of_dual(p):
    d = p.dual()
    for mask in range(1 << min(p.n, 5)):
        assert down_closure(p, mask) == up_closure(d, mask)


@given(posets())
def test_extremal_points_lie_in_the_set(p):
    full = p.full_mask
    mx = maximal_points(p, full)
    mn = minimal_points(p, full)
    assert mx and mn
    assert mx & full == mx and mn & full == mn
    # every element sits below some maximal point
    for i in range(p.n):
        assert any(p.leq_i(i, j) for j in iter_bits(mx))


@given(posets(), st.integers(min_value=0))
def test_upsets_are_exactly_the_up_closed_masks(p, seed):
    mask = seed % (p.full_mask + 1)
    assert is_upset(p, mask) == (up_closure(p, mask) == mask)
    assert (mask in upset_masks(p)) == is_upset(p, mask)


def strict_pairs(labels, up):
    return [(labels[i], labels[j]) for i, m in enumerate(up) for j in iter_bits(m) if j != i]


def test_from_up_masks_agrees_with_the_pair_constructor():
    for n in range(7):
        labels = [f"p{i}" for i in range(n)]
        for up in _poset_reps(n):
            got = FinitePoset.from_up_masks(labels, up)
            want = FinitePoset(labels, strict_pairs(labels, up))
            assert (got._up, got._down) == (want._up, want._down)
            assert got == want and hash(got) == hash(want)
            flipped = FinitePoset(labels, [(b, a) for a, b in strict_pairs(labels, up)])
            assert got.dual() == want.dual() == flipped
            assert got.dual()._down == want._up


def literal_closure(n: int, pairs: list[tuple[int, int]]) -> list[int]:
    """Reflexive transitive closure by repeated composition to a fixpoint."""
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        up[i] |= 1 << j
    while True:
        nxt = [m for m in up]
        for i in range(n):
            for j in iter_bits(up[i]):
                nxt[i] |= up[j]
        if nxt == up:
            return up
        up = nxt


def outcome(build):
    try:
        p = build()
    except PosetError as exc:
        return str(exc)
    return p.elements, p._up, p._down


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        )
    )
)
def test_both_constructors_agree_on_random_relations(drawn):
    n, pairs = drawn
    labels = list("abcde"[:n])
    by_pairs = outcome(lambda: FinitePoset(labels, [(labels[i], labels[j]) for i, j in pairs]))
    by_masks = outcome(lambda: FinitePoset.from_up_masks(labels, literal_closure(n, pairs)))
    assert by_pairs == by_masks


@pytest.mark.parametrize(
    "labels, up, message",
    [
        ("ab", [0b01, 0b00], "reflexivity fails at 'b'"),
        ("abc", [0b011, 0b110, 0b100], "transitivity fails: 'a' <= 'b' <= 'c' but not 'a' <= 'c'"),
        ("abc", [0b001, 0b110, 0b110], "antisymmetry fails between 'b' and 'c'"),
        ("abc", [0b001, 0b1010, 0b100], "up-mask of 'b' leaves the 3-element carrier"),
        ("ab", [0b01, 0b10, 0b100], "3 up-masks for 2 elements"),
        ("aa", [0b01, 0b10], "duplicate element ids"),
    ],
)
def test_from_up_masks_rejects_bad_masks(labels, up, message):
    with pytest.raises(PosetError) as exc:
        FinitePoset.from_up_masks(list(labels), up)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "labels, pairs, message",
    [
        ("aab", [("a", "z"), ("a", "b"), ("b", "a")], "duplicate element ids"),
        (
            "ab",
            [("a", "b"), ("b", "a"), ("a", "z")],
            "relation mentions unknown element 'a' or 'z'",
        ),
        (
            "abcd",
            [("d", "b"), ("b", "d"), ("c", "a"), ("a", "c")],
            "antisymmetry fails between 'a' and 'c'",
        ),
        ("abc", [("a", "c"), ("c", "b"), ("b", "a")], "antisymmetry fails between 'a' and 'b'"),
    ],
)
def test_pair_constructor_keeps_its_messages_and_their_order(labels, pairs, message):
    with pytest.raises(PosetError) as exc:
        FinitePoset(list(labels), pairs)
    assert str(exc.value) == message


@given(st.sets(st.integers(0, 63), max_size=12))
def test_inclusion_up_masks_match_the_literal_order(family):
    family = sorted(family)
    up, down = _inclusion_masks(family)
    assert inclusion_up_masks(family) == up
    for i, u in enumerate(family):
        assert up[i] == sum(1 << k for k, v in enumerate(family) if u & ~v == 0)
        assert down[i] == sum(1 << k for k, v in enumerate(family) if v & ~u == 0)


@given(
    st.lists(st.integers(0, 255), max_size=10),
    st.integers(0, 4),
)
def test_transpose_matches_the_literal_bit_definition(rows, extra):
    # zero rows, no rows, and widths up to four past the highest set bit
    width = max(rows, default=0).bit_length() + extra
    out = _transpose(rows, width)
    assert out == [
        sum(1 << i for i, m in enumerate(rows) if m >> p & 1) for p in range(width)
    ]


@given(st.integers(0, 8).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
))
def test_transposing_a_square_matrix_twice_gives_it_back(rows):
    n = len(rows)
    assert _transpose(_transpose(rows, n), n) == rows


@given(
    st.lists(st.integers(0, 255), max_size=10).flatmap(
        lambda rows: st.tuples(st.just(rows), st.integers(0, (1 << len(rows)) - 1))
    ),
    st.integers(0, 255),
)
@example(([], 0), 0b110)
@example(([0b011, 0b101, 0b110], 0), 0b110)
@example(([0b011, 0b101, 0b110], 0b111), 0b111)
def test_join_and_meet_rows_match_a_literal_reduce(drawn, top):
    # the empty mask gives 0 and top
    rows, mask = drawn
    picked = [rows[i] for i in range(len(rows)) if mask >> i & 1]
    assert _join_rows(rows, mask) == reduce(or_, picked, 0)
    assert _meet_rows(rows, mask, top) == reduce(and_, picked, top)


def literal_covers(strict):
    """The literal oracle: k covers i iff i < k and no j has i < j < k."""
    n = len(strict)
    return [
        sum(
            1 << k
            for k in iter_bits(strict[i])
            if not any(strict[i] >> j & 1 and strict[j] >> k & 1 for j in range(n))
        )
        for i in range(n)
    ]


def test_cover_masks_match_the_literal_covers():
    # every poset with n <= 5, then the strict specialization order of
    # every labelled topology with n <= 4, equivalent pairs removed
    stricts = [
        [m & ~(1 << i) for i, m in enumerate(p._up)]
        for n in range(6)
        for p in enumerate_posets(n)
    ]
    for n in range(5):
        for s in enumerate_topologies(n):
            up = s.specialization()
            stricts.append(
                [sum(1 << k for k in iter_bits(m) if not up[k] >> i & 1)
                 for i, m in enumerate(up)]
            )
    assert len(stricts) == 88 + 390
    for strict in stricts:
        assert _cover_masks(strict) == literal_covers(strict)


def scan_space_dot(space):
    """The per-edge cover filter ``space_dot`` used before it read
    ``_cover_masks``, kept as an oracle."""
    up = space.specialization()
    n = space.n
    q = dot._quote
    nodes = [f"{q(p)};" for p in space.points]
    strict = [up[i] & ~(1 << i) for i in range(n)]
    equiv = [
        (i, k)
        for i in range(n)
        for k in range(i + 1, n)
        if up[i] >> k & 1 and up[k] >> i & 1
    ]
    for i, k in equiv:
        strict[i] &= ~(1 << k)
        strict[k] &= ~(1 << i)
    edges = []
    for i in range(n):
        for k in iter_bits(strict[i]):
            between = strict[i] & ~(1 << k)
            if any(strict[j] >> k & 1 for j in iter_bits(between)):
                continue  # not a cover
            edges.append(f"{q(space.points[i])} -> {q(space.points[k])};")
    for i, k in equiv:
        edges.append(f"{q(space.points[i])} -> {q(space.points[k])} [dir=none, style=dashed];")
    return dot._digraph("space", nodes, sorted(edges))


def test_space_dot_matches_the_per_edge_cover_filter():
    spaces = [s for n in range(5) for s in enumerate_topologies(n)]
    assert len(spaces) == 390
    for s in spaces:
        assert dot.space_dot(s) == scan_space_dot(s)


INCLUSION_SITES = {
    "_upset_lattice",
    "open_frame",
    "dual_space",
    "booleanization",
    "fixpoint_frame",
    "assembly_frame",
}


def test_of_family_matches_the_checked_mask_route(monkeypatch):
    # every family the inclusion-order sites build from the reference
    # frames: upsets, opens, prime filters, regular elements, the
    # fixpoints of the identity and assembly complements, each through
    # of_family and through from_up_masks, which re-checks the order; the
    # booleanization check builds no order for the regular closed sets
    of_family = FinitePoset.of_family.__func__
    built = []

    def recording(cls, elements, family):
        built.append((sys._getframe(1).f_code.co_name, list(elements), list(family)))
        return of_family(cls, elements, family)

    monkeypatch.setattr(FinitePoset, "of_family", classmethod(recording))
    frames = 0
    for _, lat in reference_frames():
        dual_space(lat)
        booleanization(lat)
        fixpoint_frame(lat, identity_nucleus(lat))
        assembly_booleanization_check(lat)
        frames += 1
    assert frames == 406 + 390
    assert {site for site, _, _ in built} == INCLUSION_SITES
    # the Birkhoff lattice or the open frame, then one order per other
    # site and one for the booleanization of the assembly
    assert len(built) == 6 * frames
    for _, labels, family in built:
        got = of_family(FinitePoset, labels, family)
        want = FinitePoset.from_up_masks(labels, inclusion_up_masks(family))
        assert (got.elements, got._up, got._down) == (want.elements, want._up, want._down)


@pytest.mark.parametrize(
    "labels, family, message",
    [
        ("ab", [0b11, 0b11], "'a' and 'b' are the same set"),
        ("abcd", [0b01, 0b10, 0b00, 0b10], "'b' and 'd' are the same set"),
        ("abc", [0b01, 0b10], "2 sets for 3 elements"),
        ("aa", [0b01, 0b10], "duplicate element ids"),
    ],
)
def test_of_family_rejects_a_repeated_set_or_a_length_mismatch(labels, family, message):
    with pytest.raises(PosetError) as exc:
        FinitePoset.of_family(list(labels), family)
    assert str(exc.value) == message


@given(st.data())
def test_image_and_preimage_match_the_literal_bit_loops(data):
    n = data.draw(st.integers(0, 8))
    m = data.draw(st.integers(1, 8))
    mapping = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    target = data.draw(st.integers(0, (1 << m) - 1))
    image = 0
    for i in range(n):
        if mask >> i & 1:
            image |= 1 << mapping[i]
    pre = 0
    for i in range(n):
        if target >> mapping[i] & 1:
            pre |= 1 << i
    assert image_mask(mask, mapping) == image
    assert preimage_mask(target, mapping) == pre


def scan_heights(up, down):
    """The literal oracle: one more than the highest point strictly
    below, taken in order of the number of points strictly below."""
    n = len(up)
    strict = [down[i] & ~up[i] for i in range(n)]
    order = sorted(range(n), key=lambda i: bin(strict[i]).count("1"))
    h = [0] * n
    for i in order:
        h[i] = 1 + max((h[j] for j in iter_bits(strict[i])), default=-1)
    return h


def longest_chain_heights(up, down):
    """The literal definition: the number of steps in the longest strict
    chain ending at each point, found by trying every chain."""
    strict = [d & ~u for u, d in zip(up, down)]

    def longest(i):
        return max((1 + longest(j) for j in iter_bits(strict[i])), default=0)

    return [longest(i) for i in range(len(up))]


def test_heights_match_the_longest_chain_count():
    # every poset with n <= 5, and the specialization preorders of the
    # 4-point spaces, which are not antisymmetric
    orders = [p._up for n in range(6) for p in enumerate_posets(n)]
    orders += [s.specialization() for s in enumerate_topologies(4)]
    assert len(orders) == 1 + 1 + 2 + 5 + 16 + 63 + 355
    for up in orders:
        down = _transpose(up, len(up))
        assert _heights(up, down) == longest_chain_heights(up, down)
        assert _heights(down, up) == longest_chain_heights(down, up)


def scan_invariants(up, down):
    """The literal oracle: base invariants of the neighbours, sorted."""
    n = len(up)
    heights = scan_heights(up, down)
    depths = scan_heights(down, up)
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


def test_invariants_match_the_sorted_scan():
    # posets, their Birkhoff lattices, open frames, and the specialization
    # preorders of the topologies, which are not antisymmetric
    orders = []
    for p, lat in reference_frames():
        orders += [lat.poset._up] if p is None else [p._up, lat.poset._up]
    for n in range(5):
        for s in enumerate_topologies(n):
            orders.append(s.specialization())
    assert len(orders) == 2 * 406 + 2 * 390
    for up in orders:
        down = _transpose(up, len(up))
        assert _heights(up, down) == scan_heights(up, down)
        assert _heights(down, up) == scan_heights(down, up)
        assert _invariants(up, down) == scan_invariants(up, down)


def test_poset_representatives_keep_their_order():
    # the goldens, the benchmark's picks and the sweeps' first-failure
    # messages all depend on this order
    reps = repr([_poset_reps(n) for n in range(7)])
    assert hashlib.sha1(reps.encode()).hexdigest()[:12] == "1ae673f3094f"


def test_seven_point_representatives_keep_their_order():
    # 2,045 classes, OEIS A000112
    reps = _poset_reps(7)
    assert len(reps) == 2045
    assert hashlib.sha1(repr(reps).encode()).hexdigest()[:12] == "bab599d9ff8b"
