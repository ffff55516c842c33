"""Acceptance suite: exhaustive checks on every instance up to the stated
sizes, each criterion reported on its own line with its runtime budget.
"""

import time
from pathlib import Path

import pytest

from esakia import cli
from esakia.duality import dual_space, phi, unit_counit_check
from esakia.lattices import (
    birkhoff_lattice,
    essential_primes,
    meet_primes,
    min_primes,
    points,
)
from esakia.nuclei import (
    assembly_booleanization_check,
    assembly_frame,
    enumerate_nuclei_oracle,
    is_assembly_boolean,
    make_u,
    make_v,
    make_w,
    nucleus_leq,
    to_nuclear_set,
    tower,
    w_decomposition_check,
)
from esakia.posets import (
    FinitePoset,
    enumerate_posets,
    iter_bits,
    maximal_points,
)
from esakia.spatial import (
    assembly_spatial_report,
    essential_primes_dual,
    join_primes_of_assembly,
    nuclear_points,
)
from esakia.sweeps import run_sweep

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


@pytest.fixture
def report(capsys):
    """One verdict line per criterion, printed through the capture so it
    is visible on passing runs too."""

    def _report(num: int, slug: str, ok: bool, elapsed: float, budget: float) -> None:
        verdict = "PASS" if ok and elapsed < budget else "FAIL"
        line = f"criterion {num:02d} {slug}: {verdict} ({elapsed:.2f}s, budget {budget:.0f}s)"
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        assert ok, f"criterion {num:02d} {slug} failed"
        assert elapsed < budget, f"criterion {num:02d} over budget: {elapsed:.2f}s"

    return _report


def all_posets(max_n: int):
    for n in range(1, max_n + 1):
        yield from enumerate_posets(n)


def test_criterion_01_duality_round_trip(report):
    start = time.perf_counter()
    seen = 0
    ok = True
    for p in all_posets(5):
        seen += 1
        ok = ok and unit_counit_check(birkhoff_lattice(p)).ok
    ok = ok and seen == 87
    report(1, "duality-round-trip", ok, time.perf_counter() - start, 10.0)


def test_criterion_02_nucleus_duality(report):
    start = time.perf_counter()
    ok = True
    for p in all_posets(4):
        lat = birkhoff_lattice(p)
        space = dual_space(lat)
        full = space.poset.full_mask
        oracle = enumerate_nuclei_oracle(lat)
        ok = ok and len(oracle) == 1 << p.n
        sets = [to_nuclear_set(space, j) for j in oracle]
        ok = ok and len(set(sets)) == len(sets)
        ok = ok and sorted(sets) == sorted(range(full + 1))
        for i, ji in enumerate(oracle):
            for k, jk in enumerate(oracle):
                ok = ok and nucleus_leq(lat, ji, jk) == (
                    sets[i] & sets[k] == sets[k]
                )
        for a in range(lat.n):
            pa = phi(space, a)
            ok = ok and to_nuclear_set(space, make_u(lat, a)) == full & ~pa
            ok = ok and to_nuclear_set(space, make_v(lat, a)) == pa
            ok = ok and to_nuclear_set(space, make_w(lat, a)) == maximal_points(
                space.poset, full & ~pa
            )
    report(2, "nucleus-duality", ok, time.perf_counter() - start, 60.0)


def test_criterion_03_w_decomposition(report):
    start = time.perf_counter()
    ok = all(
        w_decomposition_check(lat, j)
        for p in all_posets(4)
        for lat in (birkhoff_lattice(p),)
        for j in enumerate_nuclei_oracle(lat)
    )
    report(3, "w-decomposition", ok, time.perf_counter() - start, 60.0)


def test_criterion_04_powerset_assembly_fixed_point(report):
    start = time.perf_counter()
    ok = True
    for n in range(1, 5):
        lat = birkhoff_lattice(FinitePoset.antichain(n))
        asm = assembly_frame(lat)
        ok = ok and asm.lattice.n == lat.n
        emb = [
            asm.sets.index(to_nuclear_set(asm.dual, make_u(lat, a)))
            for a in range(lat.n)
        ]
        ok = ok and sorted(emb) == list(range(lat.n))
        for a in range(lat.n):
            for b in range(lat.n):
                ok = ok and emb[lat.meet(a, b)] == asm.lattice.meet(emb[a], emb[b])
                ok = ok and emb[lat.join(a, b)] == asm.lattice.join(emb[a], emb[b])
    report(4, "powerset-assembly-fixed-point", ok, time.perf_counter() - start, 60.0)


def test_criterion_05_assembly_booleanness(report):
    start = time.perf_counter()
    ok = True
    for p in all_posets(5):
        lat = birkhoff_lattice(p)
        rep = is_assembly_boolean(lat)
        ok = ok and rep.ok and rep.agree and rep.direct_boolean
        ok = ok and rep.scattered_frame
        ok = ok and assembly_booleanization_check(lat).ok
    report(5, "assembly-booleanness", ok, time.perf_counter() - start, 120.0)


def test_criterion_06_spatiality(report):
    start = time.perf_counter()
    ok = True
    for p in all_posets(5):
        lat = birkhoff_lattice(p)
        rep = assembly_spatial_report(lat)
        ok = ok and rep.ok and rep.agree
        ok = ok and nuclear_points(lat).mask == dual_space(lat).poset.full_mask
        jp = join_primes_of_assembly(lat)
        ok = ok and jp.ok and jp.counts_match
        ok = ok and jp.point_count == len(points(lat))
    report(6, "spatiality-of-the-assembly", ok, time.perf_counter() - start, 120.0)


def test_criterion_07_essential_primes(report):
    start = time.perf_counter()
    ok = True
    for p in all_posets(5):
        lat = birkhoff_lattice(p)
        for a in range(lat.n):
            dual_rep = essential_primes_dual(lat, a)
            ok = ok and dual_rep.ok
            if a != lat.top:
                mins = min_primes(lat, a)
                ok = ok and mins != 0
                ok = ok and lat.meet_all(iter_bits(mins)) == a
                ok = ok and mins & meet_primes(lat) == mins
                rep = essential_primes(lat, a)
                ok = ok and rep.meet_is_a and rep.essential_mask
    report(7, "essential-primes", ok, time.perf_counter() - start, 120.0)


def test_criterion_08_simmons_isbell_sweep(report):
    start = time.perf_counter()
    ok = True
    total = 0
    for n in range(1, 5):
        for suite in ("simmons", "sober", "scatter"):
            summary = run_sweep("topologies", n, suite)
            ok = ok and summary.ok
            if suite == "simmons":
                total += summary.instances
    ok = ok and total == 389
    report(8, "simmons-isbell-all-topologies", ok, time.perf_counter() - start, 300.0)


def test_criterion_09_tower_cardinality(report):
    start = time.perf_counter()
    structure_ok = True
    cardinality_ok = True
    observed = []
    for p in all_posets(3):
        lat = birkhoff_lattice(p)
        result = tower(lat)
        structure_ok = structure_ok and result.ok
        sizes = [stage.n for stage in result.stages]
        observed.append((p.n, sizes))
        # N(L) is the powerset of X_L ~ P, since every point of it is nuclear.
        # N(N(L)) is the assembly of a finite Boolean frame: that frame again.
        cardinality_ok = cardinality_ok and sizes == [lat.n, 1 << p.n, 1 << p.n]
        cardinality_ok = cardinality_ok and sorted(result.embeddings[1]) == list(
            range(result.stages[1].n)
        )
    elapsed = time.perf_counter() - start
    assert structure_ok
    report(
        9,
        f"tower-cardinality {observed}",
        cardinality_ok,
        elapsed,
        60.0,
    )


@pytest.mark.parametrize(
    "name,argv",
    [
        ("l3_dual.json", ["dual", "--lattice", str(FIXTURES / "l3.json")]),
        ("l3_assembly.json", ["assembly", "--lattice", str(FIXTURES / "l3.json")]),
        ("l3_nuclei.json", ["nuclei", "--lattice", str(FIXTURES / "l3.json")]),
        ("l3_points.json", ["points", "--lattice", str(FIXTURES / "l3.json")]),
        ("l3_check.json", ["check", "--lattice", str(FIXTURES / "l3.json")]),
        (
            "l3_dual.dot",
            [
                "export-dot",
                "--lattice",
                str(FIXTURES / "l3.json"),
                "--what",
                "dual",
                "--highlight",
                "m",
            ],
        ),
        (
            "l3_assembly.dot",
            ["export-dot", "--lattice", str(FIXTURES / "l3.json"), "--what", "assembly"],
        ),
        ("two_dual.json", ["dual", "--lattice", str(FIXTURES / "two.json")]),
        ("two_poset.dot", ["export-dot", "--poset", str(FIXTURES / "two.json")]),
        (
            "sierpinski_space.json",
            ["space", "--space", str(FIXTURES / "sierpinski.json")],
        ),
        (
            "sierpinski_check.json",
            ["check", "--space", str(FIXTURES / "sierpinski.json")],
        ),
        (
            "sierpinski_space.dot",
            ["export-dot", "--space", str(FIXTURES / "sierpinski.json")],
        ),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_criterion_10_cli_golden(report, capsys, name, argv):
    start = time.perf_counter()
    code = cli.main(argv)
    out = capsys.readouterr().out
    ok = code == 0 and out == (GOLDEN / name).read_text(encoding="utf-8")
    report(10, f"cli-golden {name}", ok, time.perf_counter() - start, 30.0)
