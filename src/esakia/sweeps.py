"""Named invariant suites run over every instance of a given size.

Each suite returns a summary with pass/fail counts and the first failing
instance, so exhaustive checks stay reportable from the command line and
reusable from the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .duality import unit_counit_check
from .errors import ModelError
from .lattices import FiniteLattice, birkhoff_lattice
from .nuclei import (
    _packed_rows,
    assembly_frame,
    assembly_booleanization_check,
    enumerate_nuclei_oracle,
    is_assembly_boolean,
    w_decomposition_check,
)
from .posets import (
    FinitePoset,
    _inclusion_masks,
    enumerate_posets,
    inclusion_up_masks,
    set_label,
)
from .spatial import (
    assembly_spatial_report,
    essential_primes_dual,
    join_primes_of_assembly,
)

__all__ = ["SweepSummary", "run_poset_suite", "run_topology_suite", "POSET_SUITES", "TOPOLOGY_SUITES"]


@dataclass(frozen=True)
class SweepSummary:
    kind: str
    n: int
    suite: str
    instances: int
    passes: int
    failures: int
    first_failure: str | None

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _check_duality(poset: FinitePoset, lattice: FiniteLattice) -> bool:
    return unit_counit_check(lattice).ok


def _check_assembly(poset: FinitePoset, lattice: FiniteLattice) -> bool:
    asm = assembly_frame(lattice)
    if asm.lattice.n != 1 << poset.n:
        return False
    oracle = enumerate_nuclei_oracle(lattice)
    if sorted(j.values for j in oracle) != sorted(j.values for j in asm.nuclei):
        return False
    # row i of the pointwise order (j_i <= j_k iff the packed row of j_i is
    # inside j_k's) against row i of reverse inclusion (sets[k] <= sets[i])
    rows = _packed_rows(lattice)
    pointwise = inclusion_up_masks([rows[j.values] for j in asm.nuclei])
    return pointwise == _inclusion_masks(asm.sets)[1]


def _check_wdecomp(poset: FinitePoset, lattice: FiniteLattice) -> bool:
    return all(
        w_decomposition_check(lattice, j) for j in enumerate_nuclei_oracle(lattice)
    )


def _check_spatial(poset: FinitePoset, lattice: FiniteLattice) -> bool:
    if not assembly_spatial_report(lattice).ok:
        return False
    if not join_primes_of_assembly(lattice).ok:
        return False
    return all(essential_primes_dual(lattice, a).ok for a in range(lattice.n))


def _check_boolean(poset: FinitePoset, lattice: FiniteLattice) -> bool:
    return (
        is_assembly_boolean(lattice).ok and assembly_booleanization_check(lattice).ok
    )


POSET_SUITES = {
    "duality": _check_duality,
    "assembly": _check_assembly,
    "wdecomp": _check_wdecomp,
    "spatial": _check_spatial,
    "boolean": _check_boolean,
}


def run_poset_suite(n: int, suite: str) -> SweepSummary:
    """Run a suite over every poset isomorphism class of the given size,
    checking the frame of its upsets."""
    try:
        check = POSET_SUITES[suite]
    except KeyError:
        raise ModelError(
            f"unknown poset suite {suite!r}; choose from {sorted(POSET_SUITES)}"
        ) from None
    instances = passes = 0
    first = None
    for poset in enumerate_posets(n):
        instances += 1
        if check(poset, birkhoff_lattice(poset)):
            passes += 1
        elif first is None:
            first = f"poset #{instances - 1}: covers {sorted(poset.covers())}"
    return SweepSummary("posets", n, suite, instances, passes, instances - passes, first)


def _topo_simmons(space) -> bool:
    from .spaces import simmons_isbell_report

    return simmons_isbell_report(space).ok


def _topo_sober(space) -> bool:
    from .spaces import is_sober, soberification

    sob = soberification(space)
    return (
        sob.open_frame_iso
        and sob.matches_t0_reflection
        and is_sober(space) == space.is_t0()
    )


def _topo_scatter(space) -> bool:
    from .spaces import is_scattered_all_subsets, scatter_report

    report = scatter_report(space)  # raises on any broken exchange law
    return (
        report.scattered == is_scattered_all_subsets(space)
        and report.scattered == report.t0
    )


TOPOLOGY_SUITES = {
    "simmons": _topo_simmons,
    "sober": _topo_sober,
    "scatter": _topo_scatter,
}


def run_topology_suite(n: int, suite: str) -> SweepSummary:
    """Run a suite over every labeled topology on n points."""
    from .spaces import enumerate_topologies

    try:
        check = TOPOLOGY_SUITES[suite]
    except KeyError:
        raise ModelError(
            f"unknown topology suite {suite!r}; choose from {sorted(TOPOLOGY_SUITES)}"
        ) from None
    instances = passes = 0
    first = None
    spaces = enumerate_topologies(n)
    for i, space in enumerate(spaces):
        spaces[i] = None  # let each space and its caches go once it is checked
        instances += 1
        if check(space):
            passes += 1
        elif first is None:
            first = f"opens {[set_label(space.points, m) for m in space.opens]}"
    return SweepSummary(
        "topologies", n, suite, instances, passes, instances - passes, first
    )
