"""Spans around the calls into each esakia layer, installed from outside.

The library imports names with ``from .x import f``, so one function is
bound in several modules.  ``Tracer.install`` replaces every esakia
module attribute that is a listed function with one wrapper, wraps the
two ``FiniteLattice`` methods on the class and the suite checks in the
``sweeps`` suite tables, and ``Tracer.uninstall`` puts every original
object back.  Spans (name, start, end, parent) are kept in compact
arrays in memory and written out once, when the run ends.

A wrapper's own bookkeeping runs outside its span but inside its
caller's, so every wrapped call adds a little to its parent's measured
self time.  ``span_cost`` measures that cost per call on a wrapped no-op,
and ``Tracer.table`` takes it off once per child span (and once per
descendant from total time), so the reported times estimate the
untraced program's.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

# module -> functions whose calls get a span.  "FiniteLattice" is the
# constructor; "FiniteLattice.imp" the method.
LAYERS: dict[str, tuple[str, ...]] = {
    "posets": ("enumerate_posets", "upset_masks", "find_isomorphism"),
    "lattices": (
        "FiniteLattice",
        "FiniteLattice.imp",
        "birkhoff_lattice",
        "validate_order",
        "prime_filters",
        "is_spatial",
        "booleanization",
    ),
    "duality": ("dual_space", "unit_counit_check", "upset_algebra"),
    "nuclei": (
        "assembly_frame",
        "enumerate_nuclei_oracle",
        "validate_nucleus",
        "is_nuclear",
        "nuclei_join",
        "from_nuclear_set",
        "to_nuclear_set",
        "is_assembly_boolean",
        "assembly_booleanization_check",
        "w_decomposition_check",
        "tower",
    ),
    "spatial": (
        "nuclear_points",
        "gamma",
        "gamma_report",
        "assembly_spatial_report",
        "join_primes_of_assembly",
        "essential_primes_dual",
        "front_open_masks",
    ),
    "spaces": (
        "enumerate_topologies",
        "open_frame",
        "sigma",
        "delta",
        "simmons_isbell_report",
        "soberification",
        "scatter_report",
        "front_topology",
    ),
    "cli": (
        "main",
        "_cmd_dual",
        "_cmd_assembly",
        "_cmd_nuclei",
        "_cmd_points",
        "_cmd_space",
        "_cmd_check",
        "_cmd_sweep",
        "_cmd_export_dot",
    ),
    "dot": ("poset_dot", "lattice_dot", "dual_space_dot", "assembly_dot", "space_dot"),
}
# sweeps gets one span per suite check, taken from its suite tables.
SUITE_TABLES = ("POSET_SUITES", "TOPOLOGY_SUITES")
MODULES = tuple(LAYERS) + ("sweeps",)

# Work counts read from what a wrapped call returns: span name ->
# (counter name, function of (args, result) giving the amount).
COUNTERS = {
    "lattices.FiniteLattice": ("lattices.FiniteLattice.elements", lambda args, _: args[0].n),
    "nuclei.enumerate_nuclei_oracle": (
        "nuclei.enumerate_nuclei_oracle.nuclei_found",
        lambda _, result: len(result),
    ),
    "spatial.gamma_report": (
        "spatial.gamma_report.families",
        lambda _, result: result.meet_families_checked,
    ),
}

# Functions whose total time is reported beside calls and self time:
# the hotspots later changes are expected to move.
TOTAL_S_OF = (
    "lattices.FiniteLattice",
    "lattices.FiniteLattice.imp",
    "nuclei.validate_nucleus",
    "nuclei.is_nuclear",
    "nuclei.enumerate_nuclei_oracle",
    "nuclei.assembly_frame",
    "spatial.gamma_report",
    "spaces.sigma",
)
# Layers whose functions are reported one by one; cli, dot and sweeps
# are reported per module (and per function in the result file).
PER_FUNCTION_LAYERS = ("posets", "lattices", "duality", "nuclei", "spatial", "spaces")


def span_name(module: str, attr: str) -> str:
    if module == "cli" and attr.startswith("_cmd_"):
        attr = attr[len("_cmd_"):]
    return f"{module}.{attr}"


def wrapped_names(modules: dict) -> list[str]:
    """Every span name the tracer can record, in a fixed order."""
    names = [span_name(m, a) for m, attrs in LAYERS.items() for a in attrs]
    sweeps = modules["sweeps"]
    for table in SUITE_TABLES:
        names.extend(f"sweeps.{suite}" for suite in getattr(sweeps, table))
    return names


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run prints."""
    out = []
    for module in MODULES:
        out += [
            (f"{module}.calls", "count", "lower"),
            (f"{module}.total_s", "s", "lower"),
            (f"{module}.self_s", "s", "lower"),
        ]
    for module in PER_FUNCTION_LAYERS:
        for attr in LAYERS[module]:
            name = span_name(module, attr)
            out.append((f"{name}.calls", "count", "lower"))
            if name in TOTAL_S_OF:
                out.append((f"{name}.total_s", "s", "lower"))
            out.append((f"{name}.self_s", "s", "lower"))
    out += [
        ("lattices.FiniteLattice.elements", "count", "lower"),
        ("nuclei.enumerate_nuclei_oracle.nuclei_found", "count", "higher"),
        ("spatial.gamma_report.families", "count", "lower"),
        ("cli.stdout_bytes", "B", "lower"),
        ("nuclei.validate_nucleus.calls_per_nucleus", "ratio", "lower"),
        ("lattices.FiniteLattice.builds_per_op", "ratio", "lower"),
        ("nuclei.is_nuclear.calls_per_op", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.span_cost_us", "us", "lower"),
    ]
    return out


def esakia_modules() -> dict:
    """The imported esakia submodules, by short name."""
    prefix = "esakia."
    return {
        name[len(prefix):]: mod
        for name, mod in sys.modules.items()
        if name.startswith(prefix) and mod is not None
    }


class Tracer:
    """Records one span per call of a wrapped esakia function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        # seconds each span adds to its parent's, as span_cost() measures it
        self.span_cost_s = 0.0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        stack, name_of, parent = self._stack, self.name_of, self.parent
        start, end = self.start, self.end
        clock = time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if counter is not None:
                key, amount = counter
                counts[key] = counts.get(key, 0) + amount(args, result)
            return result

        return wrapper

    def _set(self, owner, key: str, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self, modules: dict) -> None:
        """Wrap every listed function wherever an esakia module binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, attrs in LAYERS.items():
            mod = modules[module]
            for attr in attrs:
                name = span_name(module, attr)
                owner_name, _, method = attr.partition(".")
                owner = getattr(mod, owner_name)
                if isinstance(owner, type):
                    key = method or "__init__"
                    self._set(owner, key, self._wrap(owner.__dict__[key], name))
                    continue
                wrapper = self._wrap(owner, name)
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is owner:
                            self._set(other, key, wrapper)
        sweeps = modules["sweeps"]
        for table_name in SUITE_TABLES:
            table = getattr(sweeps, table_name)
            for suite, check in list(table.items()):
                self._set(table, suite, self._wrap(check, f"sweeps.{suite}"))

    def uninstall(self) -> None:
        """Put back every object install replaced, last replaced first."""
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ----------------------------------------------------------

    def table(self, all_names: list[str]) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name and per module.

        Self time is a span's duration minus the durations of its child
        spans (in one thread children never overlap, so their sum is the
        covered part) minus ``span_cost_s`` per child; total time is the
        duration minus ``span_cost_s`` per descendant.  A module's total_s
        counts only its outermost spans, those with no span of the same
        module above them.
        """
        n = len(self.name_of)
        mod_ids = {m: i for i, m in enumerate(MODULES)}
        span_mod = [mod_ids[name.split(".", 1)[0]] for name in self.names]
        child = array("d", bytes(8 * n))
        children = array("i", bytes(4 * n))
        descendants = array("i", bytes(4 * n))
        above = array("i", bytes(4 * n))  # modules on the span's ancestor chain, as bits
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        name_of, parent = self.name_of, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                children[p] += 1
                above[i] = above[p] | 1 << span_mod[name_of[p]]
        for i in range(n - 1, -1, -1):  # a span comes after its parent
            p = parent[i]
            if p >= 0:
                descendants[p] += descendants[i] + 1
        cost = self.span_cost_s
        funcs = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in all_names}
        mods = {m: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for m in MODULES}
        for i in range(n):
            name = self.names[name_of[i]]
            mi = span_mod[name_of[i]]
            row, mrow = funcs[name], mods[MODULES[mi]]
            own = dur[i] - child[i] - cost * children[i]
            total = dur[i] - cost * descendants[i]
            row["calls"] += 1
            row["total_s"] += total
            row["self_s"] += own
            mrow["calls"] += 1
            mrow["self_s"] += own
            if not above[i] >> mi & 1:
                mrow["total_s"] += total
        return {"functions": funcs, "modules": mods}

    def write(self, path: Path) -> None:
        """Spans as one binary file of four native-endian columns, one
        entry per span: name id and parent span (int32), then start and
        end (float64 perf_counter seconds); the name table, column layout
        and span cost go to a JSON file beside it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (self.name_of, self.parent, self.start, self.end)
        with open(path, "wb") as out:
            for column in columns:
                column.tofile(out)
        meta = {
            "spans": len(self.name_of),
            "columns": ["name:i4", "parent:i4", "start_s:f8", "end_s:f8"],
            "byteorder": sys.byteorder,
            "span_cost_s": self.span_cost_s,
            "names": self.names,
        }
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")


def _noop():
    return None


def _calls(fn, times: int) -> None:
    for _ in range(times):
        fn()


def span_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds one wrapped call adds to its caller's self time, beyond
    the plain call it replaces: the median over ``repeats`` of a loop of
    ``calls`` wrapped no-ops, timed as a span less its child spans, minus
    the same loop of plain calls."""
    probe = Tracer()
    leaf = probe._wrap(_noop, "probe.leaf")
    loop = probe._wrap(_calls, "probe.loop")
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        t0 = clock()
        _calls(_noop, calls)
        plain = clock() - t0
        first = len(probe.name_of)
        loop(leaf, calls)
        span = probe.end[first] - probe.start[first]
        covered = sum(probe.end[i] - probe.start[i] for i in range(first + 1, len(probe.name_of)))
        costs.append((span - covered - plain) / calls)
    return max(0.0, statistics.median(costs))
