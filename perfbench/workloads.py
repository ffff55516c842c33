"""The benchmark's workloads: instances drawn from a seed, ops, and the
correctness gate each op must pass.

An op is one unit that gets a verdict.  ``Op.run`` returns ``None`` when
the verdict, exit code and output are all as expected, otherwise the
reason it failed; an exception raised by the program is a failure too.
The program only ever sees the generated models (as JSON) and argv.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = FIXTURES / "golden"

POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}  # OEIS A000112
TOPOLOGY_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355}  # OEIS A000798

# poset-sweep: posets of this size, and how many are taken (one a stratum).
SWEEP_POSET_N = 6
SWEEP_POSET_PICKS = 34
SWEEP_POSET_SUITES = ("duality", "spatial", "boolean")
SWEEP_TOPOLOGY_N = 4
# model-check: how many 4-element posets and 3-/4-point spaces to draw.
MODEL_POSETS_4 = 1
MODEL_SPACES = {3: 12, 4: 24}

# The golden CLI commands, each with the fixture it reads.
GOLDEN_COMMANDS = (
    ("l3_dual.json", ["dual", "--lattice", "l3.json"]),
    ("l3_assembly.json", ["assembly", "--lattice", "l3.json"]),
    ("l3_nuclei.json", ["nuclei", "--lattice", "l3.json"]),
    ("l3_points.json", ["points", "--lattice", "l3.json"]),
    ("l3_check.json", ["check", "--lattice", "l3.json"]),
    ("l3_dual.dot", ["export-dot", "--lattice", "l3.json", "--what", "dual", "--highlight", "m"]),
    ("l3_assembly.dot", ["export-dot", "--lattice", "l3.json", "--what", "assembly"]),
    ("two_dual.json", ["dual", "--lattice", "two.json"]),
    ("two_poset.dot", ["export-dot", "--poset", "two.json"]),
    ("sierpinski_space.json", ["space", "--space", "sierpinski.json"]),
    ("sierpinski_check.json", ["check", "--space", "sierpinski.json"]),
    ("sierpinski_space.dot", ["export-dot", "--space", "sierpinski.json"]),
)


@dataclass
class Op:
    name: str  # names the op and its instance: equal names, equal inputs
    run: Callable[[], str | None]


@dataclass
class Workload:
    """The ops of one pass, plus the instance-count checks made while
    generating them (each a failure reason, or None)."""

    ops: list[Op]
    gate: list[tuple[str, str | None]]
    # model-check clears the program's functools caches before every op,
    # because each esakia invocation is a fresh process.
    cold_per_op: bool = False
    stdout_bytes: int = 0


def _count_check(what: str, got: int, want: int) -> tuple[str, str | None]:
    reason = None if got == want else f"{got} instances, expected {want}"
    return (f"count:{what}", reason)


# -- poset-sweep and topology-sweep ---------------------------------------


def _comparable_pairs(poset) -> int:
    return sum(bin(poset.up_mask(i)).count("1") for i in range(poset.n))


def _space_cost_key(space) -> tuple[int, int]:
    """Join-irreducible opens, then opens: the frame's nuclei number
    2^(join-irreducibles), so this orders spaces by their check's cost
    far better than the open count alone."""
    opens = [u for u in space.opens if u]
    irreducible = 0
    for u in opens:
        below = 0
        for v in opens:
            if v != u and v & u == v:
                below |= v
        irreducible += below != u
    return irreducible, len(opens)


def _strata(items: list, key, k: int) -> list[list[int]]:
    """Indices into items, sorted by key (a proxy for an instance's
    cost) and cut into k strata of near-equal size."""
    order = sorted(range(len(items)), key=lambda i: (key(items[i]), i))
    return [order[s * len(order) // k : (s + 1) * len(order) // k] for s in range(k)]


def _stratified(rng: random.Random, items: list, key, k: int) -> list[int]:
    """k indices into items, one drawn from each stratum, so every seed
    draws a similar mix."""
    return [rng.choice(stratum) for stratum in _strata(items, key, k)]


def poset_sweep(mods, rng: random.Random) -> Workload:
    """One fresh Birkhoff lattice plus one suite check per op, as
    ``esakia sweep posets`` runs them, over the middle poset of each
    stratum by how many pairs they order.  The subset is the same for
    every seed, which only shuffles the op order: a drawn subset would
    add its cost's seed-to-seed spread to the host's."""
    posets = mods.posets.enumerate_posets(SWEEP_POSET_N)
    gate = [_count_check(f"posets{SWEEP_POSET_N}", len(posets), POSET_COUNTS[SWEEP_POSET_N])]
    picked = [
        stratum[len(stratum) // 2]
        for stratum in _strata(posets, _comparable_pairs, SWEEP_POSET_PICKS)
    ]
    lattices, suites = mods.lattices, mods.sweeps.POSET_SUITES

    def op(poset, suite):
        def run():
            verdict = suites[suite](poset, lattices.birkhoff_lattice(poset))
            return None if verdict is True else f"verdict {verdict!r}"

        return run

    ops = [
        Op(f"{suite}/poset{SWEEP_POSET_N}#{i}", op(posets[i], suite))
        for i in picked
        for suite in SWEEP_POSET_SUITES
    ]
    return Workload(ops, gate)


def topology_sweep(mods, rng: random.Random) -> Workload:
    """Every suite over every topology on SWEEP_TOPOLOGY_N points.  Each
    op gets its own instance of the space, as ``esakia sweep topologies``
    runs one suite on freshly enumerated spaces: no suite reuses the
    frames another suite cached on the space."""
    spaces = mods.spaces.enumerate_topologies(SWEEP_TOPOLOGY_N)
    gate = [
        _count_check(
            f"topologies{SWEEP_TOPOLOGY_N}", len(spaces), TOPOLOGY_COUNTS[SWEEP_TOPOLOGY_N]
        )
    ]
    suites = mods.sweeps.TOPOLOGY_SUITES

    def op(space, suite):
        def run():
            verdict = suites[suite](space)
            return None if verdict is True else f"verdict {verdict!r}"

        return run

    ops = [
        Op(
            f"{suite}/topology{SWEEP_TOPOLOGY_N}#{i}",
            op(type(space)(space.points, space.opens), suite),
        )
        for i, space in enumerate(spaces)
        for suite in suites
    ]
    return Workload(ops, gate)


# -- model-check ----------------------------------------------------------


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``esakia <argv>`` in this process: exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _json_field(**want) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        data = json.loads(out)
        for key, value in want.items():
            if data.get(key) != value:
                return f"{key} = {data.get(key)!r}, expected {value!r}"
        return None

    return check


def _equals(text: str) -> Callable[[str], str | None]:
    return lambda out: None if out == text else "output differs from the golden copy"


def _dot_nodes(graph: str, count: int) -> Callable[[str], str | None]:
    """A DOT digraph named graph with count nodes."""

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if not lines or lines[0] != f"digraph {graph} {{" or lines[-1] != "}":
            return "not a DOT digraph"
        got = sum("->" not in line for line in lines[2:-1])
        return None if got == count else f"{got} nodes, expected {count}"

    return check


def model_check(mods, rng: random.Random, golden_dir: Path = GOLDEN) -> Workload:
    """Single-model ``esakia <verb>`` calls, each on a model given as
    inline JSON, plus the golden commands and small sweeps."""
    cli, lattices, posets = mods.cli, mods.lattices, mods.posets
    ops, gate = [], []
    workload = Workload(ops, gate, cold_per_op=True)

    def op(name, argv, check):
        def run():
            code, out = run_cli(cli, argv)
            workload.stdout_bytes += len(out.encode())
            return f"exit {code}, expected 0" if code != 0 else check(out)

        return Op(name, run)

    for golden, argv in GOLDEN_COMMANDS:
        argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
        text = (golden_dir / golden).read_text(encoding="utf-8")
        ops.append(op(f"golden/{golden}", argv, _equals(text)))

    models = []  # (tag naming the instance, poset)
    for n in (1, 2, 3, 4):
        found = posets.enumerate_posets(n)
        gate.append(_count_check(f"posets{n}", len(found), POSET_COUNTS[n]))
        picked = (
            range(len(found)) if n < 4 else _stratified(rng, found, _comparable_pairs, MODEL_POSETS_4)
        )
        models += [(f"poset{n}#{i}", found[i]) for i in picked]
    for tag, poset in models:
        lat = json.dumps(lattices.birkhoff_lattice(poset).to_json_dict())
        # Two routes to the nucleus count: the oracle (nuclei) and the
        # assembly, both equal to 2^(dual points), and the dual space has
        # one point per element of the poset.
        size = 1 << poset.n

        def dual_points(out, n=poset.n):
            got = len(json.loads(out)["points"])
            return None if got == n else f"{got} dual points, expected {n}"

        def count(out, size=size):
            return None if out == f"{size}\n" else f"count {out.strip()}, expected {size}"

        ops += [
            op(f"dual/{tag}", ["dual", "--lattice", lat], dual_points),
            op(f"nuclei-count/{tag}", ["nuclei", "--lattice", lat, "--count"], count),
            op(f"assembly-count/{tag}", ["assembly", "--lattice", lat, "--count"], count),
            op(
                f"points/{tag}",
                ["points", "--lattice", lat],
                _json_field(spatial=True, assembly_spatial=True),
            ),
            op(
                f"export-dot/{tag}",
                ["export-dot", "--lattice", lat, "--what", "assembly"],
                _dot_nodes("assembly", size),
            ),
        ]
        # `check --lattice` on a 4-element poset's lattice runs 7-10 s,
        # nearly all in gamma_report: one op that long takes the host's
        # speed over those seconds, which no repeat can filter out, so
        # only the smaller models are checked.
        if poset.n <= 3:
            ops += [
                op(f"check/{tag}", ["check", "--lattice", lat], _json_field(ok=True)),
                op(f"tower/{tag}", ["check", "--lattice", lat, "--tower"], _json_field(ok=True)),
            ]

    for n, k in MODEL_SPACES.items():
        found = mods.spaces.enumerate_topologies(n)
        gate.append(_count_check(f"topologies{n}", len(found), TOPOLOGY_COUNTS[n]))
        for i in _stratified(rng, found, _space_cost_key, k):
            data = found[i].to_json_dict()
            text, tag = json.dumps(data), f"space{n}#{i}"
            ops += [
                op(
                    f"space/{tag}",
                    ["space", "--space", text],
                    _json_field(points=data["points"], open_count=len(data["opens"])),
                ),
                op(f"check-space/{tag}", ["check", "--space", text], _json_field(ok=True)),
                op(
                    f"export-dot-space/{tag}",
                    ["export-dot", "--space", text],
                    _dot_nodes("space", len(data["points"])),
                ),
            ]

    for suite in mods.sweeps.POSET_SUITES:
        ops.append(
            op(
                f"sweep/posets4/{suite}",
                ["sweep", "posets", "--n", "4", "--suite", suite],
                _json_field(ok=True, instances=POSET_COUNTS[4]),
            )
        )
    for suite in mods.sweeps.TOPOLOGY_SUITES:
        ops.append(
            op(
                f"sweep/topologies3/{suite}",
                ["sweep", "topologies", "--n", "3", "--suite", suite],
                _json_field(ok=True, instances=TOPOLOGY_COUNTS[3]),
            )
        )
    return workload


WORKLOADS = {
    "poset-sweep": poset_sweep,
    "topology-sweep": topology_sweep,
    "model-check": model_check,
}
