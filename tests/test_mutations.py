"""The mutant registry: each row names a report, one of its flags, a
corruption of the code that report reads, and the instance it runs on.
The flag must hold on the instance, and the corruption must flip it;
a flag that no corruption can flip checks nothing."""

import pytest

from esakia import duality, nuclei, spaces
from esakia.duality import EsakiaSpaceFin, unit_counit_check
from esakia.lattices import FiniteLattice, birkhoff_lattice, lattice_from_json_dict
from esakia.nuclei import assembly_booleanization_check, tower
from esakia.posets import FinitePoset
from esakia.spaces import FiniteSpace, soberification


def lat3():
    return lattice_from_json_dict(
        {"elements": ["0", "m", "1"], "leq": [["0", "m"], ["m", "1"]]}
    )


def sierpinski():
    return FiniteSpace.from_json_dict(
        {"points": ["0", "1"], "opens": [[], ["1"], ["0", "1"]]}
    )


def reversed_dual_space(monkeypatch):
    """Filters ordered by reverse inclusion.  The base of lat3 is a
    two-chain, which is self-dual, so an isomorphism search would still
    match it."""
    real = duality.dual_space

    def mutant(lattice):
        space = real(lattice)
        return EsakiaSpaceFin(space.poset.dual(), space.filters, lattice)

    monkeypatch.setattr(duality, "dual_space", mutant)


def phi_merging_top_into_bottom(monkeypatch):
    real = duality.phi_table

    def mutant(space):
        table = list(real(space))
        table[space.source.top] = table[space.source.bot]
        return tuple(table)

    monkeypatch.setattr(duality, "phi_table", mutant)


def upset_algebra_upside_down(monkeypatch):
    real = duality._upset_algebra

    def mutant(space, masks):
        return FiniteLattice(real(space, masks).poset.dual())

    monkeypatch.setattr(duality, "_upset_algebra", mutant)


def pushed_eps_with_two_classes_swapped(monkeypatch):
    real = spaces._eps_through_reflection

    def mutant(space):
        out = real(space)
        out[0], out[1] = out[1], out[0]
        return out

    monkeypatch.setattr(spaces, "_eps_through_reflection", mutant)


def pushed_eps_onto_one_point(monkeypatch):
    real = spaces._eps_through_reflection
    monkeypatch.setattr(spaces, "_eps_through_reflection", lambda s: [0] * len(real(s)))


def regular_closed_without_the_empty_set(monkeypatch):
    real = spaces.regular_closed
    monkeypatch.setattr(spaces, "regular_closed", lambda s: real(s)[1:])


def booleanization_of_a_two_element_frame(monkeypatch):
    real = nuclei.booleanization
    two = birkhoff_lattice(FinitePoset.chain(1))
    monkeypatch.setattr(nuclei, "booleanization", lambda lattice: real(two))


def u_sending_the_bottom_to_the_top_nucleus(monkeypatch):
    real = nuclei.make_u

    def mutant(lattice, a):
        return nuclei.top_nucleus(lattice) if a == lattice.bot else real(lattice, a)

    monkeypatch.setattr(nuclei, "make_u", mutant)


def duality_flag(flag):
    return lambda: getattr(unit_counit_check(lat3()), flag)


def sober_flag(flag):
    return lambda: getattr(soberification(sierpinski()), flag)


def boolean_flag(flag):
    return lambda: getattr(assembly_booleanization_check(lat3()), flag)


def tower_flag(flag):
    return lambda: getattr(tower(lat3()), flag)


# (row id, flag read on a fresh instance, corruption)
MUTANTS = [
    ("base_matches_dual", duality_flag("base_matches_dual"), reversed_dual_space),
    ("phi_bijective", duality_flag("phi_bijective"), phi_merging_top_into_bottom),
    ("counit_order_iso", duality_flag("counit_order_iso"), upset_algebra_upside_down),
    (
        "matches_t0_reflection-swap",
        sober_flag("matches_t0_reflection"),
        pushed_eps_with_two_classes_swapped,
    ),
    (
        "matches_t0_reflection-collapse",
        sober_flag("matches_t0_reflection"),
        pushed_eps_onto_one_point,
    ),
    ("boolean-ok", boolean_flag("ok"), regular_closed_without_the_empty_set),
    (
        "dually_isomorphic",
        boolean_flag("dually_isomorphic"),
        booleanization_of_a_two_element_frame,
    ),
    (
        "embeddings_preserve_frame_ops",
        tower_flag("embeddings_preserve_frame_ops"),
        u_sending_the_bottom_to_the_top_nucleus,
    ),
]


@pytest.mark.parametrize("flag,corrupt", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_the_corruption_flips_the_flag(monkeypatch, flag, corrupt):
    # each read builds a fresh instance, so no memo carries a result over
    assert flag() is True
    corrupt(monkeypatch)
    assert flag() is False
