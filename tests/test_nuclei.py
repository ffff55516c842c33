import json

import pytest
from hypothesis import given, settings, strategies as st

from esakia.duality import dual_space, phi
from esakia.errors import NucleusError, SizeBoundError, SubsetError
from esakia.lattices import (
    birkhoff_lattice,
    complement_of,
    is_boolean,
    lattice_from_json_dict,
)
from esakia.nuclei import (
    assembly_booleanization_check,
    assembly_frame,
    enumerate_nuclei_oracle,
    fixpoint_frame,
    from_nuclear_set,
    identity_nucleus,
    is_assembly_boolean,
    is_nuclear,
    make_nucleus,
    make_u,
    make_v,
    make_w,
    nuclear_sets_meet,
    nuclei_join,
    nuclei_meet,
    nucleus_from_json_dict,
    nucleus_leq,
    nucleus_to_json_dict,
    to_nuclear_set,
    top_nucleus,
    tower,
    validate_nucleus,
    w_decomposition_check,
)
from esakia.posets import FinitePoset, enumerate_posets, find_isomorphism

from conftest import posets


def lat3():
    return lattice_from_json_dict(
        {"elements": ["0", "m", "1"], "leq": [["0", "m"], ["m", "1"]]}
    )


def chain_frame(n):
    return birkhoff_lattice(FinitePoset.chain(n - 1))


def test_three_chain_has_exactly_four_nuclei():
    lat = lat3()
    got = sorted(j.values for j in enumerate_nuclei_oracle(lat))
    assert got == [
        (0, 1, 2),  # identity
        (0, 2, 2),  # double negation
        (1, 1, 2),  # join with the middle
        (2, 2, 2),  # collapse to the top
    ]


def test_four_chain_has_eight_nuclei():
    assert len(enumerate_nuclei_oracle(chain_frame(4))) == 8


def test_closed_open_boundary_nuclei_on_three_chain():
    lat = lat3()
    z, m, o = (lat.index(x) for x in ("0", "m", "1"))
    assert make_u(lat, z).values == identity_nucleus(lat).values
    assert make_u(lat, o).values == top_nucleus(lat).values
    assert make_v(lat, z).values == top_nucleus(lat).values
    assert make_v(lat, o).values == identity_nucleus(lat).values
    assert make_u(lat, m).values == (m, m, o)
    assert make_v(lat, m).values == (z, o, o)
    assert make_w(lat, z).values == (z, o, o)
    assert make_w(lat, m).values == (m, m, o)


def test_validate_nucleus_witnesses():
    lat = lat3()
    z, m, o = (lat.index(x) for x in ("0", "m", "1"))
    rep = validate_nucleus(lat, (z, z, z))
    assert not rep.ok and not rep.inflationary and rep.witness is not None
    lat4 = chain_frame(4)
    shift = tuple(min(a + 1, lat4.n - 1) for a in range(lat4.n))
    rep = validate_nucleus(lat4, shift)
    assert not rep.ok and rep.inflationary and not rep.idempotent
    dia = birkhoff_lattice(FinitePoset.antichain(2))
    blowup = tuple(dia.top if a != dia.bot else dia.bot for a in range(dia.n))
    rep = validate_nucleus(dia, blowup)
    assert not rep.ok and rep.inflationary and rep.idempotent
    assert not rep.preserves_meet
    with pytest.raises(NucleusError):
        make_nucleus(dia, blowup)


def test_nuclear_set_round_trip():
    lat = lat3()
    space = dual_space(lat)
    for j in enumerate_nuclei_oracle(lat):
        mask = to_nuclear_set(space, j)
        assert is_nuclear(space, mask)
        assert from_nuclear_set(space, mask).values == j.values
    for mask in range(space.poset.full_mask + 1):
        assert to_nuclear_set(space, from_nuclear_set(space, mask)) == mask


def test_every_subset_is_nuclear_on_an_eleven_point_dual():
    space = dual_space(birkhoff_lattice(FinitePoset.chain(11)))
    assert space.n == 11
    for mask in [0, space.poset.full_mask] + [1 << y for y in range(11)]:
        assert is_nuclear(space, mask)
    with pytest.raises(SubsetError):
        is_nuclear(space, 1 << 11)


def test_boundary_nuclei_match_their_point_sets():
    lat = lat3()
    space = dual_space(lat)
    full = space.poset.full_mask
    for a in range(lat.n):
        assert to_nuclear_set(space, make_u(lat, a)) == full & ~phi(space, a)
        assert to_nuclear_set(space, make_v(lat, a)) == phi(space, a)
    # the boundary of the bottom is the maximal points of the whole space
    from esakia.posets import maximal_points

    assert to_nuclear_set(space, make_w(lat, lat.bot)) == maximal_points(
        space.poset, full
    )


def test_assembly_of_three_chain_is_the_four_diamond():
    lat = lat3()
    asm = assembly_frame(lat)
    assert asm.lattice.n == 4
    assert asm.lattice.labels == ("{}", "{x_m}", "{x_1}", "{x_m,x_1}")
    # reverse inclusion: the full set is the identity nucleus, the bottom
    assert asm.lattice.bot == asm.index_of_set(asm.dual.poset.full_mask)
    assert asm.lattice.top == asm.index_of_set(0)
    assert is_boolean(asm.lattice)


def test_assembly_order_reverses_nuclear_inclusion():
    lat = lat3()
    asm = assembly_frame(lat)
    for i, ji in enumerate(asm.nuclei):
        for k, jk in enumerate(asm.nuclei):
            assert nucleus_leq(lat, ji, jk) == (
                asm.sets[k] & asm.sets[i] == asm.sets[k]
            )


def test_meet_and_join_of_nuclei():
    lat = lat3()
    space = dual_space(lat)
    z, m, o = (lat.index(x) for x in ("0", "m", "1"))
    um, dneg = make_u(lat, m), make_w(lat, z)
    assert nuclei_meet(lat, [um, dneg]).values == identity_nucleus(lat).values
    assert nuclei_join(lat, space, [um, dneg]).values == top_nucleus(lat).values
    # nuclei order-reverse their point sets: meet of nuclei is union of
    # sets, join of nuclei is the set-side meet, here plain intersection
    s1 = to_nuclear_set(space, um)
    s2 = to_nuclear_set(space, dneg)
    assert to_nuclear_set(space, nuclei_meet(lat, [um, dneg])) == s1 | s2
    assert nuclear_sets_meet(space, [s1, s2]) == s1 & s2
    assert nuclei_meet(lat, []).values == top_nucleus(lat).values


def test_fixpoint_frames_on_three_chain():
    lat = lat3()
    assert fixpoint_frame(lat, make_w(lat, 0)).labels == ("0", "1")
    assert fixpoint_frame(lat, make_u(lat, 1)).labels == ("m", "1")
    assert fixpoint_frame(lat, identity_nucleus(lat)).n == lat.n
    assert fixpoint_frame(lat, top_nucleus(lat)).n == 1


def test_w_decomposition_small():
    for lat in (lat3(), chain_frame(4), birkhoff_lattice(FinitePoset.antichain(2))):
        for j in enumerate_nuclei_oracle(lat):
            assert w_decomposition_check(lat, j)


def test_beazer_macnab_fixed_points():
    # the assembly of a powerset is that powerset again, witnessed by u
    for n in range(1, 4):
        lat = birkhoff_lattice(FinitePoset.antichain(n))
        asm = assembly_frame(lat)
        assert asm.lattice.n == lat.n
        space = asm.dual
        emb = [asm.index_of_set(to_nuclear_set(space, make_u(lat, a))) for a in range(lat.n)]
        assert sorted(emb) == list(range(lat.n))
        for a in range(lat.n):
            for b in range(lat.n):
                assert emb[lat.meet(a, b)] == asm.lattice.meet(emb[a], emb[b])
                assert emb[lat.join(a, b)] == asm.lattice.join(emb[a], emb[b])


def test_assembly_booleanness_reports():
    rep = is_assembly_boolean(lat3())
    assert rep.ok and rep.agree and rep.direct_boolean
    check = assembly_booleanization_check(lat3())
    assert check.ok and check.dually_isomorphic


def test_tower_on_three_chain():
    result = tower(lat3(), k=2)
    assert [stage.n for stage in result.stages] == [3, 4, 4]
    assert result.ok
    assert result.embeddings_injective
    assert result.embeddings_preserve_frame_ops
    assert result.complements_ok


def test_tower_bound():
    with pytest.raises(SizeBoundError):
        tower(lat3(), k=9)
    with pytest.raises(SizeBoundError):
        tower(birkhoff_lattice(FinitePoset.antichain(4)), k=2)


def test_u_and_v_are_complements_in_the_assembly():
    lat = lat3()
    asm = assembly_frame(lat)
    space = asm.dual
    for a in range(lat.n):
        iu = asm.index_of_set(to_nuclear_set(space, make_u(lat, a)))
        iv = asm.index_of_set(to_nuclear_set(space, make_v(lat, a)))
        assert complement_of(asm.lattice, iu) == iv


def test_nucleus_json_round_trip():
    lat = lat3()
    for j in enumerate_nuclei_oracle(lat):
        data = json.loads(json.dumps(nucleus_to_json_dict(lat, j)))
        assert nucleus_from_json_dict(lat, data).values == j.values


def test_nucleus_json_rejects_bad_values():
    lat = lat3()
    with pytest.raises(NucleusError):
        nucleus_from_json_dict(lat, {"values": {"0": "0", "m": "0", "1": "1"}})


@given(posets(max_size=3))
@settings(deadline=None)
def test_oracle_count_is_two_to_the_base(p):
    lat = birkhoff_lattice(p)
    assert len(enumerate_nuclei_oracle(lat)) == 1 << p.n


@given(posets(max_size=3), st.integers(min_value=0))
@settings(deadline=None)
def test_meet_and_join_stay_nuclear(p, seed):
    lat = birkhoff_lattice(p)
    space = dual_space(lat)
    js = enumerate_nuclei_oracle(lat)
    a = js[seed % len(js)]
    b = js[(seed // len(js)) % len(js)]
    met = nuclei_meet(lat, [a, b])
    assert validate_nucleus(lat, met.values).ok
    assert to_nuclear_set(space, met) == to_nuclear_set(space, a) | to_nuclear_set(
        space, b
    )
    joined = nuclei_join(lat, space, [a, b])
    assert validate_nucleus(lat, joined.values).ok
    assert to_nuclear_set(space, joined) == to_nuclear_set(
        space, a
    ) & to_nuclear_set(space, b)
