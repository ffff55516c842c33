"""Run the benchmark over sets of seeds and summarise it.

    python3 perfbench/baseline.py --sets 1-10 11-20 --trace-seed 1 --out perfbench/baseline.json

Runs ``run.py`` once per seed of each set, for each workload in
BENCHMARK.json, one run at a time, every workload of a set before the
next set.  For each set it reports each end-to-end metric's median,
quartiles and spread (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) beside the
metric's bound, and for each later set how much worse its median is than
the first set's.  With ``--trace-seed``, adds one traced run per
workload and its per-layer table, with each module's share of the summed
self time.  Exits 1 if any run fails, if any spread exceeds its bound
(setup_s excepted: its spread is not bounded, only its median), or if
any later median is worse than the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    context, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"context": context, "result": result}


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "values": values,
    }


def traced_summary(workload: str, seed: int, seconds: int) -> dict:
    run = run_once(workload, seed, seconds, 1)
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    modules = record["layers"]["modules"]
    total_self = sum(row["self_s"] for row in modules.values())
    functions = record["layers"]["functions"]
    return {
        "seed": seed,
        "overhead_s": run["result"]["metrics"]["trace.overhead_s"]["value"],
        "span_cost_us": run["result"]["metrics"]["trace.span_cost_us"]["value"],
        "untraced_pass_s": statistics.median(record["pass_walls_s"][:-1]),
        "traced_pass_s": record["pass_walls_s"][-1],
        "self_share": {
            name: row["self_s"] / total_self
            for name, row in sorted(modules.items(), key=lambda kv: -kv[1]["self_s"])
            if row["calls"]
        },
        "modules": modules,
        "functions": {name: row for name, row in functions.items() if row["calls"]},
        "per_layer": {k: v["value"] for k, v in run["result"]["metrics"].items()},
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse later is than first, as a share of first."""
    return (later - first) / first if better == "lower" else (first - later) / first


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", nargs="+", default=["1-10"], help="seed sets, e.g. 1-10 11-20")
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    summary = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "run_seconds": seconds,
        "sets": [],
        "agreement": {},
        "traced": {},
    }
    ok = True
    for text in args.sets:
        seeds = parse_seeds(text)
        entry = {"seeds": seeds, "workloads": {}}
        for name in names:
            runs = [run_once(name, seed, seconds, 0) for seed in seeds]
            ok = ok and all(r["result"]["correct"] for r in runs)
            rows = {}
            for metric, spec in metrics.items():
                values = [r["result"]["metrics"][metric]["value"] for r in runs]
                row = rows[metric] = summarise(values, spec["bound"])
                wide = row["spread"] > spec["bound"] and metric != "setup_s"
                ok = ok and not wide
                print(
                    f"seeds {text:6} {name:15} {metric:12} median {row['median']:12.5f}  "
                    f"spread {row['spread']:.4f}  bound {spec['bound']}{'  WIDE' if wide else ''}",
                    flush=True,
                )
            entry["workloads"][name] = {
                "attempted": [r["result"]["attempted"] for r in runs],
                "failed": [r["result"]["failed"] for r in runs],
                "end_to_end": rows,
            }
        summary["sets"].append(entry)

    first = summary["sets"][0]["workloads"]
    for later in summary["sets"][1:]:
        for name in names:
            for metric, spec in metrics.items():
                a = first[name]["end_to_end"][metric]["median"]
                b = later["workloads"][name]["end_to_end"][metric]["median"]
                worse = worse_by(a, b, spec["better"])
                ok = ok and worse <= spec["bound"]
                summary["agreement"].setdefault(name, {})[metric] = {
                    "first_median": a,
                    "later_median": b,
                    "worse_by": worse,
                    "bound": spec["bound"],
                }
                print(
                    f"{name:15} {metric:12} later median worse by {worse:+.4f}  "
                    f"bound {spec['bound']}{'  WORSE' if worse > spec['bound'] else ''}",
                    flush=True,
                )

    if args.trace_seed is not None:
        for name in names:
            traced = summary["traced"][name] = traced_summary(name, args.trace_seed, seconds)
            print(f"{name:15} self-time share " + ", ".join(
                f"{m} {s:.1%}" for m, s in traced["self_share"].items()
            ), flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
