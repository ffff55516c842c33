"""esakia benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload poset-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Set-up (importing esakia and generating the instances) is
repeated SETUP_REPEATS times and reported as its median scaled time.
Then whole passes over the workload's ops run one at a time in a closed
loop with a single client, in a seeded order, while the next pass still
fits in ``--seconds``. Each pass gets freshly generated instances, made
before the pass is timed, so no per-object cache of the program outlives
a pass, just as none outlives an ``esakia`` invocation. Every op is
checked; a failed op is counted and named but does not stop the run.

The host is shared, and its speed drifts by a third over tens of
seconds, for all code alike. So after every op a fixed reference loop is
timed too, and each op's time is scaled by REFERENCE_S over the median
reference time of the ops run around it: op times read as seconds at the
reference speed, and a slow spell of the host, which slows the loop as
much as the program, cancels out. A change to the program cannot move
the loop, so it shows in full. Each op's figure is the median of its
scaled times over the passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``wall_s`` is the sum of the ops' figures (a pass at the reference
speed), and ``op_p50_ms`` and ``op_p90_ms`` are quantiles of them. Each
set-up is scaled by the reference time taken just before and after it.
The unscaled set-up and pass times are in the context line before it.
With ``--trace 1`` the same untraced passes run, then the tracer is
installed and set-up's instance generation and one pass run traced (one
pass only: spans are kept in memory, and a topology-sweep pass makes
nearly a million); the last line carries the per-layer metrics, and
``trace.overhead_s`` is the traced pass time minus the median untraced
one, both scaled. Span times are not scaled. Spans go to
``perfbench/out/spans-<workload>.bin``, the full result to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

SRC = workloads.ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
# The reference loop's time at the host's quiet speed (2-vCPU Xeon,
# Python 3.11); scaled times read as seconds at that speed.
REFERENCE_S = 0.25e-3
# An op's time is scaled by the median reference time of the ops run
# within this many places of it in its pass.
REFERENCE_REACH = 25
# Imported explicitly: cli pulls in the rest except spaces, which the
# library imports lazily.
ESAKIA_MODULES = ("cli", "spaces", "sweeps", "dot")


def import_esakia():
    """A fresh import of esakia from src/, dropping any earlier one."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "esakia" or n.startswith("esakia.")]:
        del sys.modules[name]
    for name in ESAKIA_MODULES:
        importlib.import_module(f"esakia.{name}")
    return argparse.Namespace(**tracing.esakia_modules())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cache_clearers(mods) -> list:
    """The program's functools caches: every esakia module attribute that
    has ``cache_clear``."""
    return [
        value
        for mod in vars(mods).values()
        for value in vars(mod).values()
        if callable(getattr(value, "cache_clear", None))
    ]


def pass_orders(seed: int, ops: int):
    """The op order of each pass, shuffled from the seed."""
    rng = random.Random(f"order-{seed}")
    while True:
        order = list(range(ops))
        rng.shuffle(order)
        yield order


@dataclass
class Pass:
    wall_s: float
    latencies_s: list[float]  # by op index, not in the order run
    failures: list[tuple[str, str]]
    reference_s: list[float]  # by op index: the reference time around the op

    def scaled_s(self) -> list[float]:
        """The op times as they read at the reference speed."""
        return [t * REFERENCE_S / r for t, r in zip(self.latencies_s, self.reference_s)]

    def scaled_wall_s(self) -> float:
        return self.wall_s * REFERENCE_S / statistics.median(self.reference_s)


def reference_work() -> int:
    """A fixed slice of pure-Python work of the kind the program does
    (integer bit operations, a dict), to gauge the host's speed by."""
    acc, table = 0, {}
    for i in range(600):
        m = (i * 2654435761) & 0xFFFF
        table[m & 255] = m
        acc += bin(m).count("1")
    return acc + len(table)


def reference_time(samples: int = 15) -> float:
    """The reference loop's median time over a few back-to-back runs."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(workload, order, caches) -> Pass:
    """Run every op once in the given order, checking each."""
    latencies, failures, refs = [0.0] * len(workload.ops), [], []
    order = list(order)
    clock = time.perf_counter
    t_pass = clock()
    for clear in caches:
        clear.cache_clear()
    for idx in order:
        op = workload.ops[idx]
        if workload.cold_per_op:
            for clear in caches:
                clear.cache_clear()
        t0 = clock()
        try:
            reason = op.run()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            reason = f"raised {type(exc).__name__}: {exc}"
        latencies[idx] = clock() - t0
        t0 = clock()
        reference_work()
        refs.append(clock() - t0)
        if reason is not None:
            failures.append((op.name, reason))
    wall_s = clock() - t_pass
    around = [0.0] * len(workload.ops)
    for place, idx in enumerate(order):
        around[idx] = statistics.median(
            refs[max(0, place - REFERENCE_REACH) : place + REFERENCE_REACH + 1]
        )
    return Pass(wall_s, latencies, failures, around)


def op_times(passes: list[Pass]) -> list[float]:
    """Each op's median scaled time over the passes."""
    return [statistics.median(times) for times in zip(*(p.scaled_s() for p in passes))]


def layer_metrics(tracer, mods, ops: int, stdout_bytes: int, overhead_s: float):
    """The span table, and every per-layer value by metric name."""
    table = tracer.table(tracing.wrapped_names(vars(mods)))
    values = {}
    for group in ("functions", "modules"):
        for name, row in table[group].items():
            for key, value in row.items():
                values[f"{name}.{key}"] = value
    counts = tracer.counts
    found = counts.get("nuclei.enumerate_nuclei_oracle.nuclei_found", 0)
    values.update(
        {
            "lattices.FiniteLattice.elements": counts.get("lattices.FiniteLattice.elements", 0),
            "nuclei.enumerate_nuclei_oracle.nuclei_found": found,
            "spatial.gamma_report.families": counts.get("spatial.gamma_report.families", 0),
            "cli.stdout_bytes": stdout_bytes,
            "nuclei.validate_nucleus.calls_per_nucleus": (
                values["nuclei.validate_nucleus.calls"] / found if found else 0.0
            ),
            "lattices.FiniteLattice.builds_per_op": values["lattices.FiniteLattice.calls"] / ops,
            "nuclei.is_nuclear.calls_per_op": values["nuclei.is_nuclear.calls"] / ops,
            "trace.spans": len(tracer.name_of),
            "trace.overhead_s": overhead_s,
            "trace.span_cost_us": tracer.span_cost_s * 1e6,
        }
    )
    return table, values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "esakia" / "__init__.py").is_file():
        print(f"error: no esakia sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("ESAKIA_")]:
        del os.environ[key]  # the default caps apply
    make = workloads.WORKLOADS[args.workload]

    setups, scaled_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_time()
        t0 = time.perf_counter()
        mods = import_esakia()
        workload = make(mods, random.Random(args.seed))
        setups.append(time.perf_counter() - t0)
        around = (before + reference_time()) / 2
        scaled_setups.append(setups[-1] * REFERENCE_S / around)
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: esakia was imported from {mods.cli.__file__}", file=sys.stderr)
        return 2
    caches = cache_clearers(mods)
    ops_per_pass = len(workload.ops)
    orders = pass_orders(args.seed, ops_per_pass)
    gate = list(workload.gate)
    start = time.perf_counter()

    # Passes while the next one still fits, judging its length (with its
    # instance generation) by the median so far.  Before each pass the
    # last pass's instances and all they cached are dropped, reference
    # cycles included, so each pass starts on a heap like a fresh
    # invocation's and peak_rss_mb holds one pass.
    untraced, cycles = [], []
    while not cycles or time.perf_counter() - start + statistics.median(cycles) <= args.seconds:
        t0 = time.perf_counter()
        if untraced:
            workload = None
            workload = make(mods, random.Random(args.seed))
        gc.collect()
        untraced.append(run_pass(workload, next(orders), caches))
        cycles.append(time.perf_counter() - t0)
    untraced_wall_s = statistics.median(p.scaled_wall_s() for p in untraced)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.span_cost_s = tracing.span_cost()
        workload = None
        gc.collect()
        with tracer:
            tracer.install(vars(mods))
            for clear in caches:
                clear.cache_clear()
            traced_workload = make(mods, random.Random(args.seed))
            gate += traced_workload.gate
            traced = run_pass(traced_workload, next(orders), caches)
        table, values = layer_metrics(
            tracer,
            mods,
            ops_per_pass,
            traced_workload.stdout_bytes,
            traced.scaled_wall_s() - untraced_wall_s,
        )
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in tracing.per_layer_metrics()
        }
        tracer.write(OUT / f"spans-{args.workload}.bin")
        passes = untraced + [traced]
    else:
        table = None
        passes = untraced
        times = op_times(passes)
        deciles = statistics.quantiles(times, n=10)
        metrics = {
            "wall_s": {"value": sum(times), "unit": "s"},
            "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": deciles[8] * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }

    failures = [f for p in passes for f in p.failures]
    failures += [(name, reason) for name, reason in gate if reason is not None]
    attempted = sum(len(p.latencies_s) for p in passes) + len(gate)
    for name, reason in failures:
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "setup_runs_s": setups,
        "pass_walls_s": [p.wall_s for p in passes],
        "pass_reference_s": [statistics.median(p.reference_s) for p in passes],
        "ops_per_pass": ops_per_pass,
        "failed_frac": len(failures) / attempted,
        "peak_rss_mb": peak_rss_mb(),
        "failed_ops": [name for name, _ in failures],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = dict(context, result=result, layers=table)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(context))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
