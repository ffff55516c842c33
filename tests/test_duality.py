from hypothesis import given

from esakia import duality, lattices
from esakia.duality import (
    dual_space,
    heyting_imp_mask,
    phi,
    phi_inverse,
    phi_table,
    unit_counit_check,
    upset_algebra,
)
from esakia.lattices import birkhoff_lattice, lattice_from_json_dict
from esakia.posets import (
    FinitePoset,
    down_closure,
    enumerate_posets,
    find_isomorphism,
    upset_masks,
)

from conftest import posets, reference_frames


def lat3():
    return lattice_from_json_dict(
        {"elements": ["0", "m", "1"], "leq": [["0", "m"], ["m", "1"]]}
    )


def test_dual_of_three_chain():
    lat = lat3()
    space = dual_space(lat)
    assert space.poset.elements == ("x_m", "x_1")
    assert space.poset.leq("x_1", "x_m")
    table = phi_table(space)
    z, m, o = (lat.index(x) for x in ("0", "m", "1"))
    assert table[z] == 0
    assert table[m] == 1 << space.poset.index("x_m")
    assert table[o] == space.poset.full_mask


def test_dual_of_diamond_is_antichain():
    lat = birkhoff_lattice(FinitePoset.antichain(2))
    space = dual_space(lat)
    assert space.n == 2
    assert space.poset.covers() == []


def test_phi_inverse_inverts_phi():
    lat = lat3()
    space = dual_space(lat)
    for a in range(lat.n):
        assert phi_inverse(space, phi(space, a)) == a


def test_phi_turns_implication_into_the_boundary_formula():
    lat = lat3()
    space = dual_space(lat)
    for a in range(lat.n):
        for b in range(lat.n):
            assert phi(space, lat.imp(a, b)) == heyting_imp_mask(
                space, phi(space, a), phi(space, b)
            )


def test_upset_algebra_recovers_the_lattice():
    lat = lat3()
    up = upset_algebra(dual_space(lat))
    assert up.n == lat.n
    assert find_isomorphism(up.poset, lat.poset) is not None


def test_round_trip_all_posets_up_to_four():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            rep = unit_counit_check(birkhoff_lattice(p))
            assert rep.ok, rep.details


def test_base_of_dual_matches_source_base():
    rep = unit_counit_check(lat3())
    assert rep.base_matches_dual and rep.counit_order_iso


def test_positional_base_check_agrees_with_the_isomorphism_search():
    # the search is the reference: the check compares the dual's order
    # with the base position by position, which implies an isomorphism
    frames = 0
    for _, lat in reference_frames():
        searched = find_isomorphism(dual_space(lat).poset, lat.base) is not None
        assert unit_counit_check(lat).base_matches_dual == searched
        frames += 1
    assert frames == 406 + 390


@given(posets(max_size=4))
def test_duality_round_trip_property(p):
    assert unit_counit_check(birkhoff_lattice(p)).ok


def test_a_round_trip_lists_the_upsets_of_the_dual_once(monkeypatch):
    # the check, its upset algebra and that algebra's lattice share one list
    lat = birkhoff_lattice(FinitePoset(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("b", "d")]))
    sizes = []

    def counting(poset):
        sizes.append(poset.n)
        return upset_masks(poset)

    for module in (duality, lattices):
        monkeypatch.setattr(module, "upset_masks", counting)
    assert unit_counit_check(lat).ok
    assert sizes == [4]


def pair_loop_imp(space, u: int, v: int) -> int:
    """The Heyting formula with the down-closure of u - v walked afresh."""
    p = space.poset
    return p.full_mask & ~down_closure(p, u & ~v)


def pair_loop_flags(lat) -> tuple[bool, bool, bool]:
    """Whether phi preserves meet, join and implication, pair by pair
    through the lattice's methods and ``pair_loop_imp``."""
    space = dual_space(lat)
    table = phi_table(space)
    pairs = [(a, b) for a in range(lat.n) for b in range(lat.n)]
    return (
        all(table[lat.meet(a, b)] == table[a] & table[b] for a, b in pairs),
        all(table[lat.join(a, b)] == table[a] | table[b] for a, b in pairs),
        all(
            table[lat.imp(a, b)] == pair_loop_imp(space, table[a], table[b])
            for a, b in pairs
        ),
    )


def test_the_down_closure_table_matches_the_per_pair_loop():
    # on every reference frame: the flags of the round trip, the upset
    # algebra (the Birkhoff lattice of the dual) when the dual has at most
    # five points, and every pair of masks, upsets or not, on duals of at
    # most four points
    for _, lat in reference_frames():
        space = dual_space(lat)
        rep = unit_counit_check(lat)
        assert rep.ok
        assert (
            rep.phi_preserves_meet, rep.phi_preserves_join, rep.phi_preserves_imp
        ) == pair_loop_flags(lat)
        ups = upset_masks(space.poset)
        if space.n <= 5:
            algebra = upset_algebra(space)
            for i, u in enumerate(ups):
                for j, v in enumerate(ups):
                    assert ups[algebra.imp(i, j)] == pair_loop_imp(space, u, v)
        masks = range(space.poset.full_mask + 1) if space.n <= 4 else ups
        for u in masks:
            for v in masks:
                assert heyting_imp_mask(space, u, v) == pair_loop_imp(space, u, v)
