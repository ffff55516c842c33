import itertools
import json

import pytest
from hypothesis import example, given, strategies as st

from esakia import nuclei, spaces, sweeps
from esakia.duality import EsakiaSpaceFin, dual_space, phi_table
from esakia.errors import SizeBoundError, SpaceError, SubsetError
from esakia.lattices import is_scattered_frame, points
from esakia.nuclei import (
    Nucleus,
    assembly_frame,
    enumerate_nuclei_oracle,
    from_nuclear_set,
    identity_nucleus,
    make_w,
    nuclear_sets_meet,
    nucleus_leq,
    to_nuclear_set,
    top_nucleus,
)
from esakia.posets import FinitePoset, iter_bits, set_label
from esakia.spaces import (
    FiniteSpace,
    PointClassification,
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

from conftest import scan_preorder_opens


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


def ordered_pair_scan(points, opens):
    """The literal closure check: every ordered pair of the sorted opens,
    union before intersection; the first failure as (type, message)."""
    opens = sorted(set(opens))
    for u in opens:
        for v in opens:
            pair = (set_label(points, u), set_label(points, v))
            if u | v not in opens:
                return SpaceError, "opens not closed under union: %s | %s" % pair
            if u & v not in opens:
                return SpaceError, "opens not closed under intersection: %s & %s" % pair
    return None


@st.composite
def families(draw):
    """Up to 4 points and any family of their subsets holding the empty
    set and the whole space, so only the pair scan can reject it."""
    n = draw(st.integers(0, 4))
    full = (1 << n) - 1
    family = draw(st.lists(st.integers(0, full), max_size=1 << n))
    return "abcd"[:n], family + [0, full]


@given(families())
@example(("abc", [0, 1, 2, 7]))  # fails first at the partner right after {a}
def test_pair_scan_matches_the_ordered_pair_scan(case):
    points, family = case
    try:
        FiniteSpace(points, family)
    except Exception as exc:  # the type is part of what is compared
        got = (type(exc), str(exc))
    else:
        got = None
    assert got == ordered_pair_scan(points, family)


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


def literal_point_closure(space, x):
    """The meet of the closed sets that contain x, scanned per call."""
    out = space.full_mask
    for c in space.closed_masks():
        if c >> x & 1:
            out &= c
    return out


def test_closure_table_matches_the_literal_scans():
    for n in range(5):
        for s in enumerate_topologies(n):
            closures = tuple(literal_point_closure(s, x) for x in range(s.n))
            classes = tuple(
                sum(1 << y for y in range(s.n) if closures[y] == cx)
                for cx in closures
            )
            assert tuple(s.closure(1 << x) for x in range(s.n)) == closures
            assert tuple(s.equiv_class(x) for x in range(s.n)) == classes
            # equiv_class reads the memo; a fresh space with the same opens
            # computes its own
            s._cache["closure_table"] = ((0,) * s.n, (0,) * s.n)
            assert all(s.equiv_class(x) == 0 for x in range(s.n))
            fresh = FiniteSpace(s.points, s.opens)
            assert tuple(fresh.equiv_class(x) for x in range(s.n)) == classes


def literal_closure(space, mask):
    """The meet of the closed sets that hold mask."""
    out = space.full_mask
    for c in space.closed_masks():
        if mask & ~c == 0:
            out &= c
    return out


def literal_interior(space, mask):
    """The union of the opens inside mask."""
    out = 0
    for u in space.opens:
        if u & ~mask == 0:
            out |= u
    return out


def literal_classification(space, t_mask, x):
    """Three scans of the open family, one per kind of point."""
    bit = 1 << x
    cl = literal_point_closure(space, x)
    cls_mask = sum(
        1 << y for y in range(space.n) if literal_point_closure(space, y) == cl
    )
    return PointClassification(
        any(u & t_mask == bit for u in space.opens),
        any(u >> x & 1 and (u & t_mask) & ~cl == 0 for u in space.opens),
        any(u >> x & 1 and (u & t_mask) & ~cls_mask == 0 for u in space.opens),
    )


def literal_t_d(space):
    """Some open and some closed set meet in exactly {x}, for every x."""
    closed = space.closed_masks()
    return all(
        any(u & c == 1 << x for u in space.opens for c in closed)
        for x in range(space.n)
    )


def kernel_spaces():
    """Every labelled space on at most 4 points, then the discrete and the
    indiscrete space on 6."""
    for n in range(5):
        yield from enumerate_topologies(n)
    six = [str(i) for i in range(6)]
    yield FiniteSpace(six, range(1 << 6))
    yield indiscrete(six)


def literal_every_closed_set_has(space, kind):
    """Every nonempty closed set holds a point of the kind, by the scans."""
    return all(
        any(getattr(literal_classification(space, f, x), kind) for x in iter_bits(f))
        for f in space.closed_masks()
        if f
    )


def test_point_kernel_matches_the_literal_scans():
    for s in kernel_spaces():
        assert is_t_d(s) == literal_t_d(s)
        for t in range(1 << s.n):
            assert s.interior(t) == literal_interior(s, t)
            assert s.closure(t) == literal_closure(s, t)
            for x in iter_bits(t):
                assert classify_point(s, t, x) == literal_classification(s, t, x)
        assert is_scattered(s) == literal_every_closed_set_has(s, "isolated")
        assert is_weakly_scattered(s) == literal_every_closed_set_has(s, "weakly_isolated")
        assert is_dispersed(s) == literal_every_closed_set_has(s, "detached")


def test_point_classification_closes_each_point_once(monkeypatch):
    calls = []
    closure = FiniteSpace.closure

    def counting_closure(space, mask):
        calls.append((id(space), mask))
        return closure(space, mask)

    monkeypatch.setattr(FiniteSpace, "closure", counting_closure)
    for s in enumerate_topologies(3):
        calls.clear()
        scatter_report(s)  # also classifies the points of the T0-reflection
        is_sober(s)
        assert len(calls) == len(set(calls))
        assert sorted(m for i, m in calls if i == id(s)) == [1 << x for x in range(s.n)]


def test_reports_classify_each_closed_set_once(monkeypatch):
    calls = []
    kernel = spaces._classify_points

    def counting_kernel(space, t_mask):
        calls.append((id(space), t_mask))
        return kernel(space, t_mask)

    def nonempty_closed(*walked):
        return sorted((id(w), f) for w in walked for f in w.closed_masks() if f)

    monkeypatch.setattr(spaces, "_classify_points", counting_kernel)
    for n in range(5):
        for s in enumerate_topologies(n):
            calls.clear()
            scatter_report(s)
            assert sorted(calls) == nonempty_closed(s, t0_reflection(s)[0])
            calls.clear()
            simmons_isbell_report(s)
            assert sorted(calls) == nonempty_closed(s, soberification(s).space)


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
    with pytest.raises(SizeBoundError, match="capped at 16 points"):
        FiniteSpace.from_preorder([str(i) for i in range(17)], [])


def test_from_preorder_names_an_unknown_point():
    with pytest.raises(SpaceError) as exc:
        FiniteSpace.from_preorder(["a", "b"], [("a", "z")])
    assert str(exc.value) == "relation mentions unknown point 'a' or 'z'"


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


def test_pushed_eps_check_agrees_with_the_homeomorphism_search():
    # the search is the reference for matches_t0_reflection, which reads
    # eps pushed through the reflection instead of searching
    spaces_seen = 0
    for n in range(5):
        for s in enumerate_topologies(n):
            sob = soberification(s)
            t0_space, _ = t0_reflection(s)
            searched = find_homeomorphism(sob.space, t0_space) is not None
            assert sob.matches_t0_reflection == searched
            spaces_seen += 1
    assert spaces_seen == 390


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


def test_soberification_matches_the_literal_loops():
    for n in range(4):
        for s in enumerate_topologies(n):
            sob = soberification(s)
            frame = open_frame(s)
            dual = dual_space(frame)
            nbhd = [
                sum(1 << a for a, u in enumerate(s.opens) if u >> x & 1)
                for x in range(s.n)
            ]
            assert sob.eps == tuple(dual.filters.index(fm) for fm in nbhd)
            pts = points(frame)
            traces = tuple(
                sum(1 << k for k, f in enumerate(pts) if f.members >> a & 1)
                for a in range(frame.n)
            )
            assert phi_table(dual) == traces
            assert sob.space.opens == tuple(sorted(set(traces)))


def test_eps_names_a_neighbourhood_filter_missing_from_the_dual(monkeypatch):
    s = sierpinski()
    full = dual_space(open_frame(s))
    filters = full.filters[1:]
    short = EsakiaSpaceFin(
        FinitePoset.of_family(full.poset.elements[1:], filters),
        filters=filters,
        source=full.source,
    )
    monkeypatch.setattr(spaces, "dual_space", lambda frame: short)
    with pytest.raises(SpaceError, match="neighbourhood filter of a point is not prime"):
        spaces._eps_to_dual(s)


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


def packed_row(frame, j: Nucleus) -> int:
    return nuclei._packed_rows(frame).pack(j.values)


def patch_kernel(monkeypatch, name, fn):
    """Replace a pair kernel in every module that holds it: the report
    reads it from ``spaces``, ``nuclei_meet`` and ``nuclei_join`` (and so
    ``pair_loop_sigma_hom``) from ``nuclei``."""
    for module in (nuclei, spaces):
        monkeypatch.setattr(module, name, fn)


def test_sigma_frame_hom_catches_a_wrong_meet(monkeypatch):
    patch_kernel(
        monkeypatch, "_meet_row", lambda frame, rows: packed_row(frame, top_nucleus(frame))
    )
    rep = simmons_isbell_report(sierpinski())
    assert not rep.sigma_frame_hom
    assert not rep.ok


def test_sigma_frame_hom_catches_a_wrong_join(monkeypatch):
    patch_kernel(
        monkeypatch,
        "_join_row",
        lambda frame, dual, inter, rows: packed_row(frame, identity_nucleus(frame)),
    )
    rep = simmons_isbell_report(sierpinski())
    assert not rep.sigma_frame_hom
    assert not rep.ok


def pair_loop_sigma_hom(space):
    """The literal oracle for sigma_frame_hom: sigma checked against
    ``nuclei_meet`` and ``nuclei_join`` on every pair of oracle nuclei."""
    frame = open_frame(space)
    dual = dual_space(frame)
    nucs = enumerate_nuclei_oracle(frame)
    sigmas = [spaces.sigma(space, j) for j in nucs]
    hom = spaces.sigma(space, identity_nucleus(frame)) == 0
    hom = hom and spaces.sigma(space, top_nucleus(frame)) == space.full_mask
    for i, j in enumerate(nucs):
        for k in range(i + 1, len(nucs)):
            pair = [j, nucs[k]]
            if spaces.sigma(space, nuclei.nuclei_meet(frame, pair)) != sigmas[i] & sigmas[k]:
                hom = False
            if spaces.sigma(space, nuclei.nuclei_join(frame, dual, pair)) != sigmas[i] | sigmas[k]:
                hom = False
    return hom


def pair_loop_delta_hom(space):
    """The literal oracle for delta_coframe_hom: delta checked against
    union and intersection on every pair of nuclear sets."""
    asm = assembly_frame(open_frame(space))
    deltas = {m: spaces.delta(space, m) for m in asm.sets}
    return all(
        deltas[a | b] == deltas[a] | deltas[b] and deltas[a & b] == deltas[a] & deltas[b]
        for a in asm.sets
        for b in asm.sets
    )


def literal_irreducibles(frame):
    """Value tables of the join- and of the meet-irreducible nuclei of the
    frame, in the pointwise order: p is join-irreducible iff the nuclei
    strictly below it have a greatest member, dually for meets."""
    nucs = enumerate_nuclei_oracle(frame)
    leq = [[nucleus_leq(frame, j, k) for k in nucs] for j in nucs]

    def irreducible(p, le):
        strict = [q for q in range(len(nucs)) if q != p and le(q, p)]
        return any(all(le(r, q) for r in strict) for q in strict)

    joins = {j.values for p, j in enumerate(nucs) if irreducible(p, lambda a, b: leq[a][b])}
    meets = {j.values for p, j in enumerate(nucs) if irreducible(p, lambda a, b: leq[b][a])}
    return joins, meets


def test_prime_finder_matches_the_literal_irreducibles():
    for n in range(5):
        for s in enumerate_topologies(n):
            frame = open_frame(s)
            nucs = enumerate_nuclei_oracle(frame)
            joins, meets = spaces._irreducible_nuclei(nucs)
            assert ({nucs[i].values for i in joins}, {nucs[i].values for i in meets}) == (
                literal_irreducibles(frame)
            )
            # N(L) is Boolean with 2^k nuclei: k atoms and k coatoms
            assert 1 << len(joins) == 1 << len(meets) == len(nucs)


def mutate_join(monkeypatch):
    """The join kernel returns the identity nucleus's row when exactly one
    argument is join-irreducible, and the true join otherwise."""
    real = nuclei._join_row
    memo = {}  # by frame id, holding the frame so the id is not reused

    def mutant(frame, dual, inter, rows):
        if id(frame) not in memo:
            joins = {packed_row(frame, Nucleus(v)) for v in literal_irreducibles(frame)[0]}
            memo[id(frame)] = (frame, joins)
        joins = memo[id(frame)][1]
        if sum(row in joins for row in rows) == 1:
            return packed_row(frame, identity_nucleus(frame))
        return real(frame, dual, inter, rows)

    patch_kernel(monkeypatch, "_join_row", mutant)


def mutate_meet(monkeypatch):
    """The meet kernel returns the top nucleus's row when exactly one
    argument is meet-irreducible, and the true meet otherwise."""
    real = nuclei._meet_row
    memo = {}  # by frame id, holding the frame so the id is not reused

    def mutant(frame, rows):
        if id(frame) not in memo:
            meets = {packed_row(frame, Nucleus(v)) for v in literal_irreducibles(frame)[1]}
            memo[id(frame)] = (frame, meets)
        meets = memo[id(frame)][1]
        if sum(row in meets for row in rows) == 1:
            return packed_row(frame, top_nucleus(frame))
        return real(frame, rows)

    patch_kernel(monkeypatch, "_meet_row", mutant)


def mutate_delta(monkeypatch):
    """delta of the two-point set {0, 1} returns delta of {0}."""
    real = spaces.delta
    monkeypatch.setattr(
        spaces, "delta", lambda space, m: real(space, 0b01 if m == 0b11 else m)
    )


@pytest.mark.parametrize(
    "mutate, flag, bites",
    [
        (None, None, None),
        # a frame with two elements or more has a pair {a, p}, p prime
        (mutate_join, "sigma_frame_hom", lambda s: open_frame(s).n >= 2),
        (mutate_meet, "sigma_frame_hom", lambda s: open_frame(s).n >= 2),
        (mutate_delta, "delta_coframe_hom", lambda s: dual_space(open_frame(s)).n >= 2),
    ],
    ids=["unmutated", "join", "meet", "delta"],
)
def test_hom_flags_match_the_pair_loops(monkeypatch, mutate, flag, bites):
    # the prime-pair checks decide the same flags as every pair; under a
    # mutant that is wrong at a prime, both turn red on every space it bites
    if mutate is not None:
        mutate(monkeypatch)
    bitten = 0
    for n in range(5):
        for s in enumerate_topologies(n):
            rep = simmons_isbell_report(s)
            got = (rep.sigma_frame_hom, rep.delta_coframe_hom)
            assert got == (pair_loop_sigma_hom(s), pair_loop_delta_hom(s))
            if flag is None:
                assert got == (True, True)
            elif bites(s):
                assert not getattr(rep, flag)
                bitten += 1
    # all 390 spaces but the 0-point one; for delta, all but the 5 indiscrete
    assert bitten == {None: 0, "sigma_frame_hom": 389, "delta_coframe_hom": 385}[flag]


def test_prime_pairs_never_outnumber_the_pairs(monkeypatch):
    # the discrete space on k points has N(L) of 2^k nuclei with k primes
    calls = []
    join, meet = nuclei._join_row, nuclei._meet_row
    patch_kernel(monkeypatch, "_join_row", lambda *a: calls.append("join") or join(*a))
    patch_kernel(monkeypatch, "_meet_row", lambda *a: calls.append("meet") or meet(*a))
    for k, want in enumerate([0, 1, 5, 18, 54, 145]):
        s = FiniteSpace([str(i) for i in range(k)], range(1 << k))
        calls.clear()
        assert simmons_isbell_report(s).ok
        assert calls.count("join") == calls.count("meet") == want
        assert want <= (1 << k) * ((1 << k) - 1) // 2


def literal_meet(lattice, js):
    """The pointwise meet, field by field on value tables."""
    up = lattice.upset_of
    masks = [up[lattice.top]] * lattice.n
    for j in js:
        masks = [m & up[v] for m, v in zip(masks, j.values)]
    return Nucleus(tuple(map(lattice.of_mask.__getitem__, masks)))


def literal_join(lattice, space, js):
    """The join through the nuclear sets, checked against the pointwise
    sup iterated on value tables to its fixpoint."""
    inter = nuclear_sets_meet(space, [to_nuclear_set(space, j) for j in js])
    primary = from_nuclear_set(space, inter)
    up = lattice.upset_of
    masks = list(up)
    for j in js:
        masks = [m | up[v] for m, v in zip(masks, j.values)]
    g = tuple(map(lattice.of_mask.__getitem__, masks))
    h = g
    while True:
        nxt = tuple(g[x] for x in h)
        if nxt == h:
            break
        h = nxt
    assert h == primary.values
    return primary


def test_pair_kernels_match_the_value_table_routes():
    # the rows the report's kernels return on its prime pairs are the
    # packed rows of the meets and joins taken on value tables
    for n in range(5):
        for s in enumerate_topologies(n):
            frame = open_frame(s)
            dual = dual_space(frame)
            nucs = enumerate_nuclei_oracle(frame)
            rows = [packed_row(frame, j) for j in nucs]
            sets = [to_nuclear_set(dual, j) for j in nucs]
            join_irr, meet_irr = spaces._irreducible_nuclei(nucs)
            for a, p in spaces._prime_pairs(join_irr, len(nucs)):
                got = nuclei._join_row(frame, dual, sets[a] & sets[p], [rows[a], rows[p]])
                assert got == packed_row(frame, literal_join(frame, dual, [nucs[a], nucs[p]]))
            for a, m in spaces._prime_pairs(meet_irr, len(nucs)):
                got = nuclei._meet_row(frame, [rows[a], rows[m]])
                assert got == packed_row(frame, literal_meet(frame, [nucs[a], nucs[m]]))


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


def scan_topologies(n):
    """The literal oracle: every family of subsets of n points that holds
    the empty set and the whole space and is closed under union and
    intersection, in ascending family mask (2^(2^n) families)."""
    pts = [str(i) for i in range(n)]
    subsets = 1 << n
    full = subsets - 1
    out = []
    for fam in range(1 << subsets):
        if not fam & 1 or not fam >> full & 1:
            continue
        members = [m for m in range(subsets) if fam >> m & 1]
        if all(
            fam >> (u | v) & 1 and fam >> (u & v) & 1
            for i, u in enumerate(members)
            for v in members[i + 1 :]
        ):
            out.append(FiniteSpace(pts, members))
    return out


def test_enumeration_counts():
    # labeled topologies on n points, OEIS A000798
    assert [len(enumerate_topologies(n)) for n in range(6)] == [
        1, 1, 4, 29, 355, 6942
    ]


def test_enumeration_matches_the_scan():
    for n in range(5):
        assert enumerate_topologies(n) == scan_topologies(n)


def test_enumeration_matches_preorder_count():
    # finite duality: labeled topologies biject with labeled preorders, and
    # from_preorder gives the upsets of each one
    n = 3
    count = 0
    found = set()
    for bits in range(1 << (n * n)):
        rel = [[bool(bits >> (i * n + j) & 1) for j in range(n)] for i in range(n)]
        if not all(rel[i][i] for i in range(n)):
            continue
        if any(
            rel[i][j] and rel[j][k] and not rel[i][k]
            for i, j, k in itertools.product(range(n), repeat=3)
        ):
            continue
        pairs = [(str(i), str(j)) for i in range(n) for j in range(n) if rel[i][j]]
        s = FiniteSpace.from_preorder([str(i) for i in range(n)], pairs)
        up = [sum(1 << j for j in range(n) if rel[i][j]) for i in range(n)]
        assert list(s.opens) == scan_preorder_opens(up)
        assert s.specialization() == tuple(up)
        count += 1
        found.add(s)
    made = enumerate_topologies(n)
    assert count == len(found) == len(made) and found == set(made)


def test_topology_sweep_builds_each_space_only_when_it_is_checked(monkeypatch):
    # a checked space keeps its caches (open frame, dual, assembly), so a
    # sweep that built every space first would hold all of them at once
    built = 0
    init = FiniteSpace.__init__

    def counting(self, points_seq, opens_seq):
        nonlocal built
        built += 1
        init(self, points_seq, opens_seq)

    monkeypatch.setattr(FiniteSpace, "__init__", counting)
    built_when_checked = []

    def check(space):
        built_when_checked.append(built)
        return True

    monkeypatch.setitem(sweeps.TOPOLOGY_SUITES, "scatter", check)
    summary = sweeps.run_sweep("topologies", 3, "scatter")
    assert summary.instances == summary.passes == 29
    assert len(built_when_checked) == 29
    assert all(b <= i + 1 for i, b in enumerate(built_when_checked))


def test_enumeration_bound():
    with pytest.raises(SizeBoundError):
        enumerate_topologies(9)


def test_enumeration_refuses_a_negative_size():
    with pytest.raises(ValueError, match="^-1 is not a non-negative integer$"):
        enumerate_topologies(-1)


def test_open_frame_scattered_iff_assembly_boolean_side():
    for s in enumerate_topologies(3):
        rep = simmons_isbell_report(s)
        assert rep.assembly_boolean == rep.dispersed == rep.frame_scattered
        assert is_scattered_frame(open_frame(s)) == rep.frame_scattered
