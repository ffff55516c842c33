import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from esakia import lattices, nuclei, spaces, sweeps
from esakia import posets as posets_module
from esakia.duality import dual_space, phi, phi_inverse
from esakia.errors import NucleusError, SizeBoundError, SubsetError
from esakia.lattices import (
    FiniteLattice,
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
    make_u,
    make_v,
    make_w,
    nuclear_sets_meet,
    nuclei_join,
    nuclei_meet,
    nucleus_leq,
    to_nuclear_set,
    top_nucleus,
    tower,
    validate_nucleus,
    w_decomposition_check,
)
from esakia.posets import (
    FinitePoset,
    down_closure,
    enumerate_posets,
    find_isomorphism,
    iter_bits,
)
from esakia.spaces import enumerate_topologies, open_frame

from conftest import posets, reference_frames


def make_nucleus(lattice, values):
    """A validated nucleus, raising on a table that fails an axiom."""
    report = validate_nucleus(lattice, values)
    if not report.ok:
        raise NucleusError(f"not a nucleus: {report}")
    return nuclei.Nucleus(tuple(values))


def scan_nuclei_oracle(lattice):
    """The literal small-n oracle: every subset of the carrier that
    contains the top and is closed under binary meet and under a -> s
    induces the nucleus a -> meet of its members above a; candidates are
    scanned in ascending mask order."""
    n = lattice.n
    imp_into = []
    for s in range(n):
        m = 0
        for a in range(n):
            m |= 1 << lattice.imp(a, s)
        imp_into.append(m)
    up = lattice.poset._up
    out = []
    for cand in range(1 << n):
        if not cand >> lattice.top & 1:
            continue
        members = list(iter_bits(cand))
        if any(imp_into[s] & ~cand for s in members):
            continue
        if any(
            not cand >> lattice.meet(s, t) & 1 for s in members for t in members
        ):
            continue
        out.append(
            tuple(lattice.meet_all(iter_bits(cand & up[a])) for a in range(n))
        )
    return out


def scan_validate_nucleus(lattice, values):
    """The literal oracle: each axiom checked element by element, the
    meet one pair (a, b), b >= a, at a time, with the first witness."""
    n = lattice.n
    if len(values) != n or any(v < 0 or v >= n for v in values):
        return nuclei.NucleusReport(False, False, False, False, ("value table malformed",))
    inflationary = True
    idempotent = True
    meets = True
    witness = None
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
    return nuclei.NucleusReport(ok, inflationary, idempotent, meets, witness)


def scan_to_nuclear_set(space, j):
    """The literal oracle: the points whose filter equals its preimage,
    one filter at a time."""
    lattice = space.source
    out = 0
    for k, members in enumerate(space.filters):
        pre = 0
        for a in range(lattice.n):
            if members >> j.values[a] & 1:
                pre |= 1 << a
        if pre == members:
            out |= 1 << k
    return out


def scan_from_nuclear_set(space, mask):
    """The literal oracle: phi(j(a)) is the complement of the
    down-closure of mask - phi(a), one element at a time."""
    full = space.poset.full_mask
    return tuple(
        phi_inverse(space, full & ~down_closure(space.poset, mask & ~phi(space, a)))
        for a in range(space.source.n)
    )


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


def test_next_closure_matches_the_literal_scan():
    # same list in the same order, on every open frame of a topology and
    # every Birkhoff lattice with n <= 4
    frames = 0
    for lat in small_frames(max_topology_n=4):
        got = [j.values for j in enumerate_nuclei_oracle(lat)]
        assert got == scan_nuclei_oracle(lat)
        frames += 1
    assert frames == 390 + 25


@given(posets(max_size=4))
@settings(deadline=None)
def test_next_closure_matches_the_literal_scan_on_random_posets(p):
    lat = birkhoff_lattice(p)
    got = [j.values for j in enumerate_nuclei_oracle(lat)]
    assert got == scan_nuclei_oracle(lat)


def test_every_oracle_nucleus_is_a_nucleus():
    # a closed fixpoint set induces a nucleus: the oracle itself does not
    # validate what it returns, so the theorem is checked here
    lats = [birkhoff_lattice(p) for n in range(6) for p in enumerate_posets(n)]
    lats += [open_frame(s) for n in range(5) for s in enumerate_topologies(n)]
    for lat in lats:
        for j in enumerate_nuclei_oracle(lat):
            assert validate_nucleus(lat, j.values).ok


def test_oracle_reaches_the_sixty_four_element_bound(monkeypatch):
    lat = birkhoff_lattice(FinitePoset.antichain(6))
    assert lat.n == 64
    js = enumerate_nuclei_oracle(lat)
    assert len(js) == 64
    assert js[0] == top_nucleus(lat) and js[-1] == identity_nucleus(lat)
    monkeypatch.setenv("ESAKIA_ORACLE_BOUND", "63")
    with pytest.raises(SizeBoundError, match=r"refused for 64 elements \(bound 63\)"):
        enumerate_nuclei_oracle(lat)


def test_oracle_bound_caps_the_nucleus_count(monkeypatch):
    # a 7-chain has 7 elements but 6 join-irreducibles, so 64 nuclei
    lat = birkhoff_lattice(FinitePoset.chain(6))
    monkeypatch.setenv("ESAKIA_ORACLE_BOUND", "64")
    assert len(enumerate_nuclei_oracle(lat)) == 64
    monkeypatch.setenv("ESAKIA_ORACLE_BOUND", "63")
    with pytest.raises(SizeBoundError, match=r"6 join-irreducibles give 2\^6 nuclei \(bound 63\)"):
        enumerate_nuclei_oracle(lat)


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


def small_frames(max_topology_n=3):
    for n in range(max_topology_n + 1):
        for s in enumerate_topologies(n):
            yield open_frame(s)
    for n in range(5):
        for p in enumerate_posets(n):
            yield birkhoff_lattice(p)


def test_nuclear_set_memos_agree_with_a_fresh_lattice():
    for lat in small_frames():
        space = dual_space(lat)
        js = enumerate_nuclei_oracle(lat)
        masks = range(space.poset.full_mask + 1)
        for j in js:
            to_nuclear_set(space, j)
        for mask in masks:
            from_nuclear_set(space, mask)
        # each cold value comes from a lattice whose memos are empty
        for j in reversed(js):
            cold = to_nuclear_set(dual_space(FiniteLattice(lat.poset)), j)
            assert to_nuclear_set(space, j) == cold
        for mask in reversed(masks):
            cold = from_nuclear_set(dual_space(FiniteLattice(lat.poset)), mask)
            assert from_nuclear_set(space, mask) == cold
        assert sorted(to_nuclear_set(space, j) for j in js) == list(masks)
        assert sorted(from_nuclear_set(space, m).values for m in masks) == sorted(
            j.values for j in js
        )


def test_from_nuclear_set_rejects_an_outside_mask_before_and_after_the_memo_fills():
    space = dual_space(lat3())
    outside = 1 << space.n
    with pytest.raises(SubsetError):
        from_nuclear_set(space, outside)
    for mask in range(outside):
        from_nuclear_set(space, mask)
    with pytest.raises(SubsetError):
        from_nuclear_set(space, outside)


def test_the_top_nucleus_round_trips_through_the_empty_set():
    lat = lat3()
    space = dual_space(lat)
    top = top_nucleus(lat)
    for _ in range(2):
        assert to_nuclear_set(space, top) == 0
        assert from_nuclear_set(space, 0) == top


def test_nuclei_join_cross_check_reads_past_the_memo():
    lat = lat3()
    space = dual_space(lat)
    um, dneg = make_u(lat, lat.index("m")), make_w(lat, lat.bot)
    joined = nuclei_join(lat, space, [um, dneg])
    memo = space._cache["from_nuclear_set"]
    memo[to_nuclear_set(space, joined)] = identity_nucleus(lat)
    with pytest.raises(NucleusError, match="disagrees with the iteration oracle"):
        nuclei_join(lat, space, [um, dneg])


def test_assembly_frame_catches_a_broken_round_trip(monkeypatch):
    convert = nuclei.to_nuclear_set
    monkeypatch.setattr(
        nuclei, "to_nuclear_set", lambda space, j: convert(space, j) ^ 1
    )
    with pytest.raises(NucleusError, match="nuclear set round trip failed"):
        assembly_frame(lat3())


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
    assert asm.lattice.bot == asm.sets.index(asm.dual.poset.full_mask)
    assert asm.lattice.top == asm.sets.index(0)
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
    assert nuclei_join(lat, space, []).values == identity_nucleus(lat).values


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
        emb = [asm.sets.index(to_nuclear_set(space, make_u(lat, a))) for a in range(lat.n)]
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


def test_the_regular_closed_sets_of_the_discrete_dual_are_the_powerset(monkeypatch):
    # the booleanization check compares sizes and searches nothing; the
    # discrete dual it builds is the powerset of the k dual points, every
    # subset of which is regular closed
    def refuse(*relations):
        raise AssertionError("the booleanization check ran an isomorphism search")

    for mod in (posets_module, lattices, nuclei, spaces):
        if hasattr(mod, "_relation_isomorphism"):
            monkeypatch.setattr(mod, "_relation_isomorphism", refuse)
    frames = 0
    for _, lat in reference_frames():
        asm = assembly_frame(lat)
        k = asm.dual.n
        disc = spaces.FiniteSpace.from_preorder(asm.dual.poset.elements, ())
        assert disc.opens == tuple(range(1 << k))
        assert sorted(spaces.regular_closed(disc)) == list(range(1 << k))
        check = assembly_booleanization_check(lat)
        assert check.ok and check.dually_isomorphic
        assert check.booleanization_size == check.regular_closed_size == 1 << k
        frames += 1
    assert frames == 406 + 390


def test_tower_on_three_chain():
    result = tower(lat3())
    assert [stage.n for stage in result.stages] == [3, 4, 4]
    assert result.ok
    assert result.embeddings_injective
    assert result.embeddings_preserve_frame_ops
    assert result.complements_ok


def test_tower_bound():
    with pytest.raises(SizeBoundError):
        tower(birkhoff_lattice(FinitePoset.antichain(4)))


def test_u_and_v_are_complements_in_the_assembly():
    lat = lat3()
    asm = assembly_frame(lat)
    space = asm.dual
    for a in range(lat.n):
        iu = asm.sets.index(to_nuclear_set(space, make_u(lat, a)))
        iv = asm.sets.index(to_nuclear_set(space, make_v(lat, a)))
        assert complement_of(asm.lattice, iu) == iv


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


def test_nuclear_set_kernels_match_the_literal_scans():
    # every mask through from_nuclear_set, every nucleus and a few tables
    # that are not nuclei through to_nuclear_set, each on a cold lattice
    frames = 0
    for _, lat in reference_frames():
        space = dual_space(lat)
        for mask in range(space.poset.full_mask + 1):
            assert from_nuclear_set(space, mask).values == scan_from_nuclear_set(space, mask)
        tables = [j.values for j in enumerate_nuclei_oracle(lat)]
        tables += [(lat.bot,) * lat.n, tuple(reversed(range(lat.n)))]
        for values in tables:
            j = nuclei.Nucleus(values)
            assert to_nuclear_set(space, j) == scan_to_nuclear_set(space, j)
        frames += 1
    assert frames == 406 + 390


def small_lattice_frames():
    """Every lattice with at most 5 elements: the Birkhoff lattices of
    posets and the open frames of topologies, so labels come in more
    than one order."""
    for n in range(5):
        for p in enumerate_posets(n):
            lat = birkhoff_lattice(p)
            if lat.n <= 5:
                yield lat
    for n in range(4):
        for s in enumerate_topologies(n):
            lat = open_frame(s)
            if lat.n <= 5:
                yield lat


def test_validate_nucleus_matches_the_element_scan_on_every_table():
    tables = 0
    for lat in small_lattice_frames():
        for values in itertools.product(range(lat.n), repeat=lat.n):
            assert validate_nucleus(lat, values) == scan_validate_nucleus(lat, values)
            tables += 1
        for bad in ((0,) * (lat.n + 1), (lat.n,) * lat.n, (-1,) * lat.n):
            assert validate_nucleus(lat, bad) == scan_validate_nucleus(lat, bad)
    assert tables == 31_458


def test_validate_nucleus_matches_the_element_scan_near_nuclei():
    # larger lattices: every oracle nucleus, then each with one value moved
    rng = random.Random(14)
    for p, lat in reference_frames():
        if p is None or p.n > 5:
            continue
        for j in enumerate_nuclei_oracle(lat):
            assert validate_nucleus(lat, j.values) == scan_validate_nucleus(lat, j.values)
            for _ in range(3):
                values = list(j.values)
                values[rng.randrange(lat.n)] = rng.randrange(lat.n)
                values = tuple(values)
                assert validate_nucleus(lat, values) == scan_validate_nucleus(lat, values)


def test_nucleus_leq_is_the_pointwise_order():
    for n in range(5):
        for p in enumerate_posets(n):
            lat = birkhoff_lattice(p)
            tables = [j.values for j in enumerate_nuclei_oracle(lat)]
            tables += [make_u(lat, a).values for a in range(lat.n)]
            for x in tables:
                for y in tables:
                    want = all(lat.leq(a, b) for a, b in zip(x, y))
                    assert nucleus_leq(lat, nuclei.Nucleus(x), nuclei.Nucleus(y)) == want


def test_assembly_sweep_check_fails_on_one_flipped_bit_of_a_packed_row(monkeypatch):
    poset = FinitePoset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    lat = birkhoff_lattice(poset)
    assert sweeps._check_assembly(poset, lat)
    rows = nuclei._packed_rows(lat)
    flipped = {j.values: rows[j.values] for j in assembly_frame(lat).nuclei}
    # every nucleus sends the top to the top, so with one bit of that field
    # gone the top nucleus is no longer above the others
    flipped[top_nucleus(lat).values] ^= 1 << lat.top * lat.base.n
    monkeypatch.setattr(sweeps, "_packed_rows", lambda lattice: flipped)
    assert not sweeps._check_assembly(poset, lat)
