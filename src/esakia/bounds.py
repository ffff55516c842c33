"""Size bounds for the exhaustive searches, overridable via environment.

Everything in this package is brute force by design; these caps keep the
exponential sweeps from being invoked on instances they cannot finish.
Each bound can be overridden by setting the corresponding environment
variable to a non-negative integer, e.g. ``ESAKIA_POSET_BOUND=7``.
"""

import os

from .errors import BoundSettingError

_DEFAULTS = {
    # largest n for enumerate_posets(n)
    "ESAKIA_POSET_BOUND": 6,
    # largest lattice carrier, and largest nucleus count 2^|J(L)|, for the
    # closure-system (NextClosure) nucleus oracle: 64 is the largest
    # Birkhoff lattice of a 6-element poset, and its nucleus count
    "ESAKIA_ORACLE_BOUND": 64,
    # largest n for enumerate_topologies(n): the 6,942 topologies on 5
    # points are enumerated in about 0.05 s, and a sweep over them takes
    # about 1.6 s for sober and 0.63 s for scatter (2-vCPU AMD EPYC,
    # Python 3.11); simmons took a median of 21.7 s over six runs on a
    # shared 2-vCPU Intel Xeon (Python 3.11.7), against 28.3 s there
    # before its homomorphism checks moved to packed rows; the scatter
    # sweep over the 209,527 on 6 points takes 47-58 s at a peak RSS of
    # 30 MB (2-vCPU Intel Xeon, Python 3.11.7)
    "ESAKIA_TOPOLOGY_BOUND": 5,
    # largest dual-space size for building the assembly as a lattice
    "ESAKIA_ASSEMBLY_BOUND": 8,
}


def _get(name: str) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return _DEFAULTS[name]
    if not raw.strip().isdecimal():
        raise BoundSettingError(f"{name}={raw!r} is not a non-negative integer")
    return int(raw)


def poset_bound() -> int:
    return _get("ESAKIA_POSET_BOUND")


def oracle_bound() -> int:
    return _get("ESAKIA_ORACLE_BOUND")


def topology_bound() -> int:
    return _get("ESAKIA_TOPOLOGY_BOUND")


def assembly_bound() -> int:
    return _get("ESAKIA_ASSEMBLY_BOUND")

