import pytest
from hypothesis import given, settings

from esakia import lattices
from esakia.duality import dual_space, phi, phi_inverse
from esakia.errors import LatticeError, SubsetError
from esakia.lattices import (
    birkhoff_lattice,
    essential_primes,
    lattice_from_json_dict,
    meet_primes,
    min_primes,
    points,
)
from esakia.nuclei import assembly_frame, make_u, to_nuclear_set
from esakia.posets import (
    FinitePoset,
    enumerate_posets,
    inclusion_up_masks,
    iter_bits,
)
from esakia.spatial import (
    assembly_spatial_report,
    essential_primes_dual,
    front_open_masks,
    gamma,
    gamma_report,
    join_primes_of_assembly,
    nuclear_points,
)

from conftest import posets, reference_frames


def lat3():
    return lattice_from_json_dict(
        {"elements": ["0", "m", "1"], "leq": [["0", "m"], ["m", "1"]]}
    )


def test_front_opens_of_a_two_chain_are_all_subsets():
    p = FinitePoset.chain(2)
    assert sorted(front_open_masks(p)) == [0b00, 0b01, 0b10, 0b11]


def test_front_opens_contain_upsets_and_their_differences():
    p = FinitePoset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    fronts = set(front_open_masks(p))
    from esakia.posets import upset_masks

    ups = set(upset_masks(p))
    assert ups <= fronts
    for u in ups:
        for v in ups:
            assert u & ~v in fronts


def test_nuclear_points_of_three_chain():
    lat = lat3()
    pts = nuclear_points(lat)
    space = dual_space(lat)
    assert pts.mask == space.poset.full_mask
    assert pts.count == 2
    assert pts.tau_opens == tuple(
        sorted({phi(space, a) & pts.mask for a in range(lat.n)})
    )


def test_every_finite_dual_point_is_nuclear():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            lat = birkhoff_lattice(p)
            assert nuclear_points(lat).mask == dual_space(lat).poset.full_mask


def test_a_missing_completely_prime_filter_is_caught_where_points_are_made(monkeypatch):
    complete = lattices.completely_prime_filters
    monkeypatch.setattr(
        lattices, "completely_prime_filters", lambda lat: complete(lat)[1:]
    )
    for build in (points, dual_space, nuclear_points):
        with pytest.raises(LatticeError, match="prime and completely prime filters disagree"):
            build(lat3())


def test_gamma_sends_singletons_to_singletons():
    lat = lat3()
    space = dual_space(lat)
    for i in range(space.n):
        assert gamma(lat, 1 << i) == 1 << i


def test_gamma_rejects_a_mask_outside_the_dual_space():
    lat = lat3()
    n = dual_space(lat).n
    for bad in (1 << n, -1):
        with pytest.raises(SubsetError):
            gamma(lat, bad)


def test_gamma_report_on_three_chain():
    rep = gamma_report(lat3())
    assert rep.ok
    assert rep.preserves_unions and rep.preserves_meets
    assert rep.onto_front_closed and rep.onto_trace_closed
    assert rep.meet_families_checked >= 16


def test_spatial_report_on_small_frames():
    for p in (FinitePoset.chain(2), FinitePoset.antichain(3)):
        rep = assembly_spatial_report(birkhoff_lattice(p))
        assert rep.ok and rep.agree
        assert rep.lattice_spatial and rep.assembly_spatial
        assert rep.gamma_injective and rep.gamma_isomorphism
        assert rep.points_front_dense and rep.nonempty_nuclear_meets_points


def test_join_primes_are_singletons():
    lat = lat3()
    rep = join_primes_of_assembly(lat)
    assert rep.ok and rep.counts_match
    assert sorted(rep.join_primes) == [0b01, 0b10]
    assert rep.point_count == rep.assembly_point_count == 2


def scan_join_primes(sets) -> list[int]:
    """The literal oracle: the nonempty m such that no pair (a, b) of sets
    has m <= a | b with m <= neither."""
    out = []
    for m in sets:
        if m and not any(
            not m & ~(a | b) and m & ~a and m & ~b for a in sets for b in sets
        ):
            out.append(m)
    return out


def test_join_primes_match_the_pair_scan():
    for _, lat in reference_frames():
        sets = assembly_frame(lat).sets
        assert join_primes_of_assembly(lat).join_primes == tuple(scan_join_primes(sets))


def test_assembly_down_masks_are_the_sets_holding_each_set():
    # join_primes_of_assembly reads held from the assembly's order
    for _, lat in reference_frames():
        asm = assembly_frame(lat)
        assert asm.lattice.poset._down == tuple(inclusion_up_masks(asm.sets))


def meet_primes_via_dual(lat) -> set[int]:
    """Meet-primes read off the dual space: the preimages of the
    complements of point downsets, taken at nuclear points."""
    space = dual_space(lat)
    full = space.poset.full_mask
    return {
        phi_inverse(space, full & ~space.poset.down_mask(y))
        for y in iter_bits(nuclear_points(lat).mask)
    }


def test_meet_prime_characterization():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            lat = birkhoff_lattice(p)
            assert meet_primes_via_dual(lat) == set(iter_bits(meet_primes(lat)))


def test_essential_primes_dual_agrees_with_lattice():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            lat = birkhoff_lattice(p)
            for a in range(lat.n):
                rep = essential_primes_dual(lat, a)
                assert rep.ok
                assert rep.matches_lattice_min and rep.matches_lattice_essential
                assert rep.max_trace_equal
                assert rep.min_mask == min_primes(lat, a)
                assert rep.essential_mask == essential_primes(lat, a).essential_mask


def test_minimal_primes_on_the_diamond():
    lat = birkhoff_lattice(FinitePoset.antichain(2))
    a, b = (x for x in range(lat.n) if x not in (lat.bot, lat.top))
    assert set(iter_bits(min_primes(lat, lat.bot))) == {a, b}
    rep = essential_primes_dual(lat, lat.bot)
    assert rep.min_mask == min_primes(lat, lat.bot)


@given(posets(max_size=4))
@settings(deadline=None)
def test_spatial_report_property(p):
    assert assembly_spatial_report(birkhoff_lattice(p)).ok


@given(posets(max_size=4))
@settings(deadline=None)
def test_gamma_on_closed_nuclei_tracks_phi(p):
    # closed nuclei miss exactly the points of their element
    lat = birkhoff_lattice(p)
    space = dual_space(lat)
    full = space.poset.full_mask
    for a in range(lat.n):
        mask = to_nuclear_set(space, make_u(lat, a))
        assert gamma(lat, mask) == full & ~phi(space, a)
