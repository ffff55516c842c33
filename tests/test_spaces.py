import itertools
import json

import pytest

from esakia import spaces
from esakia.duality import dual_space
from esakia.errors import SizeBoundError, SpaceError, SubsetError
from esakia.lattices import is_scattered_frame
from esakia.nuclei import (
    Nucleus,
    enumerate_nuclei_oracle,
    identity_nucleus,
    make_w,
    to_nuclear_set,
    top_nucleus,
)
from esakia.spaces import (
    FiniteSpace,
    classify_point,
    compactification_check,
    delta,
    enumerate_topologies,
    find_homeomorphism,
    front_topology,
    is_dispersed,
    is_scattered,
    is_scattered_all_subsets,
    is_sober,
    is_t_d,
    is_weakly_scattered,
    open_frame,
    regular_closed,
    scatter_report,
    sigma,
    simmons_isbell_report,
    soberification,
    t0_reflection,
)


def sierpinski() -> FiniteSpace:
    return FiniteSpace.from_json_dict(
        {"points": ["0", "1"], "opens": [[], ["1"], ["0", "1"]]}
    )


def indiscrete(labels) -> FiniteSpace:
    return FiniteSpace.from_json_dict(
        {"points": list(labels), "opens": [[], list(labels)]}
    )


def test_validation_rejects_broken_families():
    with pytest.raises(SpaceError):
        FiniteSpace.from_json_dict({"points": ["a"], "opens": [["a"]]})  # no empty set
    with pytest.raises(SpaceError):
        FiniteSpace.from_json_dict({"points": ["a", "b"], "opens": [[], ["a"]]})
    with pytest.raises(SpaceError):
        FiniteSpace.from_json_dict(
            {
                "points": ["a", "b", "c"],
                "opens": [[], ["a"], ["b"], ["a", "b", "c"]],
            }
        )  # missing the union {a,b}
    with pytest.raises(SpaceError):
        FiniteSpace.from_json_dict({"points": ["a", "a"], "opens": [[], ["a"]]})
    with pytest.raises(SpaceError):
        FiniteSpace.from_json_dict({"points": ["a"], "opens": [[], ["z"]]})


def test_json_round_trip():
    s = sierpinski()
    assert FiniteSpace.from_json_dict(json.loads(json.dumps(s.to_json_dict()))) == s


def test_interior_closure_specialization():
    s = sierpinski()
    z, o = s.index("0"), s.index("1")
    assert s.closure(1 << o) == s.full_mask
    assert s.closure(1 << z) == 1 << z
    assert s.interior(1 << z) == 0
    assert s.minimal_open(o) == 1 << o
    assert s.leq(z, o) and not s.leq(o, z)
    assert s.is_t0()


def test_from_preorder_round_trips_the_specialization():
    s = FiniteSpace.from_preorder(["a", "b", "c"], [("a", "b"), ("b", "c")])
    up = s.specialization()
    assert up[s.index("a")] == s.full_mask
    again = FiniteSpace.from_preorder(
        s.points,
        [
            (s.points[x], s.points[y])
            for x in range(s.n)
            for y in range(s.n)
            if s.leq(x, y)
        ],
    )
    assert again == s


def test_open_frame_of_sierpinski_is_three_chain():
    frame = open_frame(sierpinski())
    assert frame.n == 3
    assert frame.labels == ("{}", "{1}", "{0,1}")


def test_t0_reflection_collapses_indistinguishable_points():
    s = FiniteSpace.from_json_dict(
        {"points": ["0", "1", "2"], "opens": [[], ["2"], ["0", "1", "2"]]}
    )
    target, q = t0_reflection(s)
    assert target.points == ("0|1", "2")
    assert q.mapping == (0, 0, 1)
    assert target.is_t0()
    assert find_homeomorphism(target, sierpinski()) == {"0|1": "0", "2": "1"}
    # reflection of a T0 space is a relabeling of itself
    t2, _ = t0_reflection(sierpinski())
    assert find_homeomorphism(t2, sierpinski()) is not None


def test_soberification_matches_reflection_on_finite_spaces():
    for s in enumerate_topologies(3):
        sob = soberification(s)
        assert sob.open_frame_iso
        assert sob.matches_t0_reflection
        assert is_sober(s) == s.is_t0()


def test_sober_points_of_sierpinski():
    sob = soberification(sierpinski())
    assert sob.space.points == ("y{1}", "y{0,1}")
    assert sob.eps == (1, 0)


def test_front_topology_of_sierpinski_is_discrete():
    assert front_topology(sierpinski()).opens == (0, 1, 2, 3)


def test_front_topology_of_indiscrete_is_indiscrete():
    s = indiscrete("ab")
    assert front_topology(s).opens == s.opens


def test_point_classification_hierarchy():
    s = sierpinski()
    full = s.full_mask
    c0 = classify_point(s, full, s.index("0"))
    c1 = classify_point(s, full, s.index("1"))
    assert c1.isolated and c1.weakly_isolated and c1.detached
    # the closed point's only neighbourhood is everything
    assert not c0.isolated and not c0.weakly_isolated and not c0.detached
    ind = classify_point(indiscrete("ab"), 0b11, 0)
    assert not ind.isolated and ind.weakly_isolated and ind.detached


def test_scatter_report_on_indiscrete():
    rep = scatter_report(indiscrete("ab"))
    assert not rep.scattered and rep.weakly_scattered
    assert rep.dispersed and not rep.t_d and not rep.t0


def test_scattered_iff_t0_finitely():
    for s in enumerate_topologies(3):
        assert is_scattered(s) == s.is_t0()
        assert is_scattered(s) == is_scattered_all_subsets(s)
        assert is_weakly_scattered(s) and is_dispersed(s)
        assert is_t_d(s) == s.is_t0()


def test_sigma_delta_on_sierpinski():
    s = sierpinski()
    frame = open_frame(s)
    w0 = make_w(frame, 0)
    assert sigma(s, w0) == s.check_mask(1 << s.index("0"))
    d = dual_space(frame)
    xm = 1 << d.poset.index("x_{1}")
    assert delta(s, xm) == 1 << s.index("1")
    # the dichotomy glue: sigma(j) is the complement of delta of its set
    for j in enumerate_nuclei_oracle(frame):
        assert sigma(s, j) == s.full_mask & ~delta(s, to_nuclear_set(d, j))


def test_delta_rejects_a_mask_outside_the_dual_space():
    s = sierpinski()
    n = dual_space(open_frame(s)).n
    for bad in (1 << n, -1):
        with pytest.raises(SubsetError):
            delta(s, bad)


def test_sigma_rejects_a_non_nucleus_before_and_after_the_memo_fills():
    s = sierpinski()
    frame = open_frame(s)
    shrinking = Nucleus((frame.bot,) * frame.n)  # not inflationary
    with pytest.raises(SpaceError, match="sigma expects a nucleus"):
        sigma(s, shrinking)
    for j in enumerate_nuclei_oracle(frame):
        sigma(s, j)
    with pytest.raises(SpaceError, match="sigma expects a nucleus"):
        sigma(s, shrinking)


def test_sigma_validates_each_table_once_per_space(monkeypatch):
    validated = []
    tables = set()
    validate = spaces.validate_nucleus
    original = spaces.sigma

    def counting_validate(frame, values):
        validated.append(values)
        return validate(frame, values)

    def recording_sigma(space, j):
        tables.add(j.values)
        return original(space, j)

    monkeypatch.setattr(spaces, "validate_nucleus", counting_validate)
    monkeypatch.setattr(spaces, "sigma", recording_sigma)
    for n in (1, 2, 3):
        for s in enumerate_topologies(n):
            validated.clear()
            tables.clear()
            simmons_isbell_report(s)
            assert len(validated) == len(tables)
            fresh = FiniteSpace(s.points, s.opens)
            for j in enumerate_nuclei_oracle(open_frame(s)):
                before = len(validated)
                assert original(s, j) == original(fresh, j)
                assert len(validated) == before + 1


def test_sigma_frame_hom_catches_a_wrong_meet(monkeypatch):
    monkeypatch.setattr(
        spaces, "nuclei_meet", lambda frame, js: top_nucleus(frame)
    )
    rep = simmons_isbell_report(sierpinski())
    assert not rep.sigma_frame_hom
    assert not rep.ok


def test_sigma_frame_hom_catches_a_wrong_join(monkeypatch):
    monkeypatch.setattr(
        spaces, "nuclei_join", lambda frame, dual, js: identity_nucleus(frame)
    )
    rep = simmons_isbell_report(sierpinski())
    assert not rep.sigma_frame_hom
    assert not rep.ok


def test_sigma_is_injective_on_every_small_space():
    for s in enumerate_topologies(3):
        frame = open_frame(s)
        seen = {}
        for j in enumerate_nuclei_oracle(frame):
            mask = sigma(s, j)
            assert mask not in seen
            seen[mask] = j


def test_regular_closed_of_sierpinski():
    assert regular_closed(sierpinski()) == (0, 3)


def test_simmons_isbell_report_small():
    for s in (sierpinski(), indiscrete("ab")):
        rep = simmons_isbell_report(s)
        assert rep.ok
        assert rep.sigma_delta_identity and rep.sigma_frame_hom
        assert rep.weakly_scattered and rep.dispersed


def test_compactification_check_small():
    for s in enumerate_topologies(3):
        rep = compactification_check(s)
        assert rep.factors_through_reflection
        assert rep.injective and rep.front_continuous
        assert rep.homeomorphism_onto_image and rep.image_front_dense


def test_enumeration_counts():
    assert [len(enumerate_topologies(n)) for n in (1, 2, 3)] == [1, 4, 29]


def test_enumeration_matches_preorder_count():
    # finite duality: labeled topologies biject with labeled preorders
    n = 3
    count = 0
    for bits in range(1 << (n * n)):
        rel = [[bool(bits >> (i * n + j) & 1) for j in range(n)] for i in range(n)]
        if not all(rel[i][i] for i in range(n)):
            continue
        if any(
            rel[i][j] and rel[j][k] and not rel[i][k]
            for i, j, k in itertools.product(range(n), repeat=3)
        ):
            continue
        count += 1
    assert count == len(enumerate_topologies(n))


def test_enumeration_bound():
    with pytest.raises(SizeBoundError):
        enumerate_topologies(9)


def test_open_frame_scattered_iff_assembly_boolean_side():
    for s in enumerate_topologies(3):
        rep = simmons_isbell_report(s)
        assert rep.assembly_boolean == rep.dispersed == rep.frame_scattered
        assert is_scattered_frame(open_frame(s)) == rep.frame_scattered
