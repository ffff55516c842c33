import json

import pytest
from hypothesis import given, strategies as st

from esakia.errors import PosetError, SizeBoundError
from esakia.posets import (
    FinitePoset,
    _poset_reps,
    down_closure,
    enumerate_posets,
    find_isomorphism,
    inclusion_up_masks,
    is_downset,
    is_upset,
    iter_bits,
    maximal_points,
    minimal_points,
    up_closure,
    upset_masks,
)

from conftest import posets

# isomorphism classes of posets on 1..5 points
POSET_COUNTS = [1, 2, 5, 16, 63]


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


def test_upset_masks_of_chain():
    masks = upset_masks(FinitePoset.chain(2))
    assert sorted(masks) == [0b00, 0b10, 0b11]


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
    up = inclusion_up_masks(family)
    for i, u in enumerate(family):
        assert up[i] == sum(1 << k for k, v in enumerate(family) if u & ~v == 0)
