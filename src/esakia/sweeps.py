"""Named invariant suites run over every instance of a given size.

``run_sweep`` runs a suite of any kind in ``KINDS`` through one loop.
Instances stream from the generators beneath ``enumerate_posets`` and
``enumerate_topologies``, so a sweep holds one instance, with its
caches, at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import spaces
from .duality import unit_counit_check
from .errors import ModelError
from .lattices import FiniteLattice, birkhoff_lattice
from .nuclei import (
    _every_nucleus_w_decomposes,
    _packed_rows,
    assembly_frame,
    assembly_booleanization_check,
    enumerate_nuclei_oracle,
    is_assembly_boolean,
)
from .posets import (
    FinitePoset,
    _inclusion_masks,
    _posets,
    inclusion_up_masks,
    set_label,
)
from .spatial import (
    assembly_spatial_report,
    essential_primes_dual,
    join_primes_of_assembly,
)

__all__ = ["SweepSummary", "run_sweep", "KINDS", "POSET_SUITES", "TOPOLOGY_SUITES"]


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
    # packing is injective, so equal sorted rows are equal sets of nuclei
    pack = _packed_rows(lattice).pack
    if sorted(pack(j.values) for j in enumerate_nuclei_oracle(lattice)) != sorted(asm.rows):
        return False
    # row i of the pointwise order (j_i <= j_k iff the packed row of j_i is
    # inside j_k's) against row i of reverse inclusion (sets[k] <= sets[i])
    return inclusion_up_masks(asm.rows) == _inclusion_masks(asm.sets)[1]


def _check_wdecomp(poset: FinitePoset, lattice: FiniteLattice) -> bool:
    return _every_nucleus_w_decomposes(lattice)


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


def _topo_simmons(space) -> bool:
    return spaces.simmons_isbell_report(space).ok


def _topo_sober(space) -> bool:
    sob = spaces.soberification(space)
    return (
        sob.open_frame_iso
        and sob.matches_t0_reflection
        and spaces.is_sober(space) == space.is_t0()
    )


def _topo_scatter(space) -> bool:
    report = spaces.scatter_report(space)  # raises on any broken exchange law
    return (
        report.scattered == spaces.is_scattered_all_subsets(space)
        and report.scattered == report.t0
    )


TOPOLOGY_SUITES = {
    "simmons": _topo_simmons,
    "sober": _topo_sober,
    "scatter": _topo_scatter,
}


# kind -> (noun, suite table, the argument tuples of its checks at size n,
# label of a failing instance from its index and those arguments)
KINDS = {
    "posets": (
        "poset",
        POSET_SUITES,
        lambda n: ((poset, birkhoff_lattice(poset)) for poset in _posets(n)),
        lambda i, poset, _: f"poset #{i}: covers {sorted(poset.covers())}",
    ),
    "topologies": (
        "topology",
        TOPOLOGY_SUITES,
        lambda n: ((space,) for space in spaces._topologies(n)),
        lambda _, space: f"opens {[set_label(space.points, m) for m in space.opens]}",
    ),
}


def run_sweep(kind: str, n: int, suite: str) -> SweepSummary:
    """Run a suite over every instance of a kind of size n: posets up to
    isomorphism, each on the frame of its upsets, or labeled topologies.
    The suite is looked up before any instance is made."""
    noun, suites, instances, label = KINDS[kind]
    try:
        check = suites[suite]
    except KeyError:
        raise ModelError(
            f"unknown {noun} suite {suite!r}; choose from {sorted(suites)}"
        ) from None
    count = passes = 0
    first = None
    for args in instances(n):
        if check(*args):
            passes += 1
        elif first is None:
            first = label(count, *args)
        count += 1
    return SweepSummary(kind, n, suite, count, passes, count - passes, first)
