import json

import pytest
from hypothesis import given

from esakia import duality, lattices
from esakia.duality import dual_space, upset_algebra
from esakia.errors import LatticeError
from esakia.lattices import (
    FiniteLattice,
    birkhoff_lattice,
    booleanization,
    complement_of,
    completely_prime_filters,
    dense_above,
    essential_primes,
    is_boolean,
    is_scattered_frame,
    is_spatial,
    join_irreducibles,
    lattice_from_json_dict,
    meet_primes,
    min_primes,
    points,
    prime_filters,
    smallest_dense,
    validate_order,
)
from esakia.posets import FinitePoset, enumerate_posets, iter_bits, maximal_points
from esakia.spaces import enumerate_topologies, open_frame

from conftest import posets


def lat3() -> FiniteLattice:
    return lattice_from_json_dict(
        {"elements": ["0", "m", "1"], "leq": [["0", "m"], ["m", "1"]]}
    )


def diamond() -> FiniteLattice:
    return birkhoff_lattice(FinitePoset.antichain(2))


def glb_of_downset(poset: FinitePoset, cand: int) -> int | None:
    """The greatest element of a downset mask, or None: a nonempty downset
    is principal iff it has exactly one maximal point."""
    if not cand:
        return None
    top = maximal_points(poset, cand)
    if top & (top - 1):
        return None
    return top.bit_length() - 1


def lub_of_upset(poset: FinitePoset, cand: int) -> int | None:
    """The least element of an upset mask, or None (mirror of the above)."""
    if not cand:
        return None
    mins = 0
    for x in iter_bits(cand):
        if poset.down_mask(x) & cand == 1 << x:
            mins |= 1 << x
    if not mins or mins & (mins - 1):
        return None
    return mins.bit_length() - 1


def oracle_tables(poset: FinitePoset):
    """Meet and join tables by maximal/minimal point scans, None where the
    bound is missing."""
    r = range(poset.n)
    meet = [
        [glb_of_downset(poset, poset.down_mask(i) & poset.down_mask(j)) for j in r]
        for i in r
    ]
    join = [
        [lub_of_upset(poset, poset.up_mask(i) & poset.up_mask(j)) for j in r]
        for i in r
    ]
    return meet, join


def oracle_imp(poset: FinitePoset, meet, a: int, b: int) -> int:
    """The greatest x with a*x <= b, by a scan of the whole carrier."""
    sat = [x for x in range(poset.n) if poset.leq_i(meet[a][x], b)]
    greatest = [r for r in sat if all(poset.leq_i(x, r) for x in sat)]
    assert len(greatest) == 1
    return greatest[0]


def oracle_error(poset: FinitePoset, meet, join) -> str | None:
    """The LatticeError message the first failing pair or triple predicts."""
    n = poset.n
    labels = poset.elements
    for i in range(n):
        for j in range(i, n):
            for kind, table in (("meet", meet), ("join", join)):
                if table[i][j] is None:
                    return f"no {kind} for {labels[i]!r} and {labels[j]!r}"
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return (
                        "not distributive: a*(b+c) != (a*b)+(a*c) for "
                        f"a={labels[a]!r} b={labels[b]!r} c={labels[c]!r}"
                    )
    return None


def assert_matches_oracle(lat: FiniteLattice) -> None:
    meet, join = oracle_tables(lat.poset)
    assert lat.meet_t == meet
    assert lat.join_t == join
    for a in range(lat.n):
        for b in range(lat.n):
            assert lat.imp(a, b) == oracle_imp(lat.poset, meet, a, b)


def brute_filters(lat: FiniteLattice):
    """Subset scan: every nonempty up-closed meet-closed subset, with
    primality decided literally."""
    out = []
    for mask in range(1, 1 << lat.n):
        members = list(iter_bits(mask))
        if any(
            lat.leq(a, b) and not mask >> b & 1
            for a in members
            for b in range(lat.n)
        ):
            continue
        if any(not mask >> lat.meet(a, b) & 1 for a in members for b in members):
            continue
        proper = mask != (1 << lat.n) - 1
        prime = proper and all(
            not mask >> lat.join(a, b) & 1 or mask >> a & 1 or mask >> b & 1
            for a in range(lat.n)
            for b in range(lat.n)
        )
        cp = prime and all(
            not mask >> lat.join_all(iter_bits(s)) & 1 or s & mask
            for s in range(1 << lat.n)
        )
        out.append((mask, prime, cp))
    return out


def test_birkhoff_of_chain_is_chain():
    lat = birkhoff_lattice(FinitePoset.chain(2))
    assert lat.n == 3
    assert lat.leq(lat.bot, lat.top)
    assert validate_order(lat.labels, lat.poset.covers()).ok


def test_birkhoff_of_antichain_is_diamond():
    lat = diamond()
    assert lat.n == 4
    atoms = [a for a in range(lat.n) if a not in (lat.bot, lat.top)]
    assert len(atoms) == 2
    a, b = atoms
    assert lat.meet(a, b) == lat.bot and lat.join(a, b) == lat.top
    assert is_boolean(lat)


def test_implication_table_on_three_chain():
    lat = lat3()
    z, m, o = (lat.index(x) for x in ("0", "m", "1"))
    assert lat.imp(z, z) == o
    assert lat.imp(m, z) == z
    assert lat.imp(o, z) == z
    assert lat.imp(o, m) == m
    assert lat.neg(z) == o
    assert lat.neg(m) == z
    assert lat.neg(o) == z


def test_implication_is_the_relative_pseudocomplement():
    lat = diamond()
    for a in range(lat.n):
        for b in range(lat.n):
            r = lat.imp(a, b)
            assert lat.leq(lat.meet(a, r), b)
            for x in range(lat.n):
                if lat.leq(lat.meet(a, x), b):
                    assert lat.leq(x, r)


def literal_join_irreducibles(lat: FiniteLattice) -> int:
    """Mask of the a != bot that are no join of two elements strictly below."""
    out = 0
    for a in range(lat.n):
        if a == lat.bot:
            continue
        below = [x for x in range(lat.n) if x != a and lat.leq(x, a)]
        if all(lat.join(x, y) != a for x in below for y in below):
            out |= 1 << a
    return out


def test_join_irreducibles_match_the_literal_definition():
    lats = []
    for n in range(1, 6):
        for p in enumerate_posets(n):
            lat = birkhoff_lattice(p)
            lats += [lat, FiniteLattice(lat.poset.dual())]
    for n in range(1, 4):
        lats += [open_frame(s) for s in enumerate_topologies(n)]
    assert len(lats) == 208
    for lat in lats:
        assert join_irreducibles(lat) == literal_join_irreducibles(lat)


def test_join_irreducibles_and_meet_primes_on_diamond():
    lat = diamond()
    atoms = {a for a in range(lat.n) if a not in (lat.bot, lat.top)}
    assert set(iter_bits(join_irreducibles(lat))) == atoms
    assert set(iter_bits(meet_primes(lat))) == atoms


def test_prime_filters_match_subset_scan():
    for lat in (lat3(), diamond(), birkhoff_lattice(FinitePoset.chain(3))):
        oracle = {
            (mask, cp) for mask, prime, cp in brute_filters(lat) if prime
        }
        got = {(f.members, f.completely_prime) for f in prime_filters(lat)}
        assert got == oracle
        cp_oracle = {mask for mask, prime, cp in brute_filters(lat) if cp}
        assert {f.members for f in completely_prime_filters(lat)} == cp_oracle


def test_finitely_prime_equals_completely_prime():
    for lat in (lat3(), diamond()):
        assert all(f.completely_prime for f in prime_filters(lat))
        assert len(points(lat)) == len(prime_filters(lat))


def test_filters_are_principal_at_join_irreducibles():
    lat = diamond()
    gens = {f.generator for f in prime_filters(lat)}
    assert gens == set(iter_bits(join_irreducibles(lat)))


def test_density_on_three_chain():
    lat = lat3()
    z, m, o = (lat.index(x) for x in ("0", "m", "1"))
    assert dense_above(lat, z) == [m, o]
    assert smallest_dense(lat, z) == m
    assert dense_above(lat, m) == [o]
    assert smallest_dense(lat, m) == o
    assert is_scattered_frame(lat)


def test_booleanization_of_three_chain_is_two():
    lat = lat3()
    b = booleanization(lat)
    assert bin(b.image_mask).count("1") == 2
    z, m, o = (lat.index(x) for x in ("0", "m", "1"))
    # double negation crushes the middle up to the top
    assert b.image_index[b.project[m]] == o
    assert b.image_index[b.project[z]] == z


def test_complements():
    lat = diamond()
    a, b = (x for x in range(lat.n) if x not in (lat.bot, lat.top))
    assert complement_of(lat, a) == b
    mid = lat3().index("m")
    assert complement_of(lat3(), mid) is None


def test_min_primes_meet_back_to_the_element():
    for lat in (lat3(), diamond(), birkhoff_lattice(FinitePoset.chain(3))):
        for a in range(lat.n):
            if a == lat.top:
                continue
            mins = min_primes(lat, a)
            assert mins
            assert lat.meet_all(iter_bits(mins)) == a
            rep = essential_primes(lat, a)
            assert rep.min_mask == mins and rep.meet_is_a
            assert rep.essential_mask  # some essential prime exists


def test_spatiality_of_finite_frames():
    for lat in (lat3(), diamond()):
        ok, witness = is_spatial(lat)
        assert ok and witness is None


def test_validate_order_flags_nondistributive():
    # three incomparable middles with shared bounds
    rep = validate_order(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )
    assert not rep.ok and not rep.distributive
    assert rep.witness is not None


def test_validate_order_flags_missing_bounds():
    rep = validate_order(["a", "b"], [])
    assert not rep.ok


def test_lattice_from_json_rejects_non_lattice():
    with pytest.raises(LatticeError):
        lattice_from_json_dict({"elements": ["a", "b"], "leq": []})


@pytest.mark.parametrize(
    "elements, leq, message",
    [
        (["0", "1"], [["0", "x"]], "relation mentions unknown element '0' or 'x'"),
        (["0", "0", "1"], [], "duplicate element ids"),
        (
            ["0", "a", "b", "1"],
            [["0", "a"], ["a", "b"], ["b", "a"], ["b", "1"]],
            "antisymmetry fails between 'a' and 'b'",
        ),
        (["a", "b", "1"], [["a", "1"], ["b", "1"]], "no meet for 'a', 'b'"),
        (["0", "a", "b"], [["0", "a"], ["0", "b"]], "no join for 'a', 'b'"),
        (
            ["0", "a", "b", "c", "1"],
            [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]],
            "distributivity fails at a='a' b='b' c='c'",
        ),
        ([], [], "empty carrier"),
    ],
    ids=["bad-pair", "duplicate", "cycle", "no-meet", "no-join", "m3", "empty"],
)
def test_json_lattice_keeps_the_report_message(elements, leq, message):
    with pytest.raises(LatticeError) as exc:
        lattice_from_json_dict({"elements": elements, "leq": leq})
    assert str(exc.value) == message


def test_json_lattice_runs_validate_order_only_when_construction_fails(monkeypatch):
    calls = []
    validate = lattices.validate_order

    def counting(elements, relation):
        calls.append(elements)
        return validate(elements, relation)

    monkeypatch.setattr(lattices, "validate_order", counting)
    lattice_from_json_dict(diamond().to_json_dict())
    assert calls == []
    with pytest.raises(LatticeError):
        lattice_from_json_dict({"elements": ["a", "b"], "leq": []})
    assert len(calls) == 1


def test_json_round_trip():
    lat = lat3()
    again = lattice_from_json_dict(json.loads(json.dumps(lat.to_json_dict())))
    assert again.labels == lat.labels
    assert all(
        again.leq(a, b) == lat.leq(a, b)
        for a in range(lat.n)
        for b in range(lat.n)
    )


@given(posets(max_size=4))
def test_birkhoff_lattices_are_heyting(p):
    lat = birkhoff_lattice(p)
    assert validate_order(lat.labels, lat.poset.covers()).ok
    for a in range(lat.n):
        for b in range(lat.n):
            r = lat.imp(a, b)
            assert lat.leq(lat.meet(a, r), b)
            assert all(
                lat.leq(x, r)
                for x in range(lat.n)
                if lat.leq(lat.meet(a, x), b)
            )


@given(posets(max_size=4))
def test_every_finite_frame_is_scattered_and_spatial(p):
    lat = birkhoff_lattice(p)
    assert is_scattered_frame(lat)
    ok, _ = is_spatial(lat)
    assert ok


def test_tables_match_the_literal_definitions_on_birkhoff_lattices():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            assert_matches_oracle(birkhoff_lattice(p))


def test_tables_match_the_literal_definitions_on_open_frames():
    for n in range(1, 4):
        for s in enumerate_topologies(n):
            assert_matches_oracle(open_frame(s))


@given(posets(max_size=5))
def test_constructor_agrees_with_the_oracle_on_raw_posets(p):
    meet, join = oracle_tables(p)
    expected = oracle_error(p, meet, join)
    if expected is None:
        assert_matches_oracle(FiniteLattice(p))
    else:
        with pytest.raises(LatticeError) as exc:
            FiniteLattice(p)
        assert str(exc.value) == expected


@pytest.mark.parametrize(
    "elements, pairs, message, problem, witness",
    [
        (
            ["0", "a", "b"],
            [("0", "a"), ("0", "b")],
            "no join for 'a' and 'b'",
            "no join for 'a', 'b'",
            ("a", "b"),
        ),
        (
            ["a", "b", "1"],
            [("a", "1"), ("b", "1")],
            "no meet for 'a' and 'b'",
            "no meet for 'a', 'b'",
            ("a", "b"),
        ),
        (
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")],
            "not distributive: a*(b+c) != (a*b)+(a*c) for a='b' b='a' c='c'",
            "distributivity fails at a='b' b='a' c='c'",
            ("b", "a", "c"),
        ),
    ],
    ids=["two-maximal", "two-minimal", "n5"],
)
def test_non_lattices_keep_their_messages(elements, pairs, message, problem, witness):
    with pytest.raises(LatticeError) as exc:
        FiniteLattice(FinitePoset(elements, pairs))
    assert str(exc.value) == message
    rep = validate_order(elements, pairs)
    assert not rep.ok
    assert rep.problems == (problem,) and rep.witness == witness


def test_upset_algebra_catches_a_corrupted_implication(monkeypatch):
    space = dual_space(diamond())
    build = duality.birkhoff_lattice

    def corrupted(poset):
        lat = build(poset)
        lat.imp(lat.top, lat.bot)
        lat._cache["imp"][lat.top][lat.bot] = lat.top
        return lat

    upset_algebra(space)
    monkeypatch.setattr(duality, "birkhoff_lattice", corrupted)
    with pytest.raises(LatticeError, match="implication formula disagrees"):
        upset_algebra(space)


def test_is_spatial_names_the_first_unseparated_pair(monkeypatch):
    lat = birkhoff_lattice(FinitePoset.antichain(2))
    pts = points(lat)
    monkeypatch.setattr(lattices, "points", lambda _: pts[1:])
    scan = next(
        (lat.labels[a], lat.labels[b])
        for a in range(lat.n)
        for b in range(lat.n)
        if not lat.leq(a, b)
        and not any(f.members >> a & 1 and not f.members >> b & 1 for f in pts[1:])
    )
    assert is_spatial(lat) == (False, scan)
