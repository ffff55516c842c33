"""Append before/after benchmark rows to the BENCH ledger.

    python3 tools/bench_ledger.py --parent REV [--workload W ...] [--pairs 10]
                                  [--seed 1]

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``,
with T the ``run_seconds`` of ``BENCHMARK.json``, in at least ten
alternating pairs: one run on REV, exported with ``git archive`` into a
temporary directory, and one on the working tree of this checkout (the
change).  Each run compiles every module from source: it writes no
bytecode and reads none, from an empty cache of its own.  The side that
runs first alternates from pair to pair, so a drift of the host's speed
hits both sides alike, and pair i runs seed S + i on both sides.  Nothing is fetched and nothing under ``.git`` is
written.

For each workload one row is appended to ``BENCH_<workload>.json`` at the
repo root: the commit pair, and for each end-to-end metric declared in
``BENCHMARK.json`` the median and quartiles on each side and the number
of pairs the change won.  The row also records the host's speed on each
side, ``reference_s``: the median and quartiles over the runs of the
reference loop's time that ``run.py`` prints on its context line.
Commit the working tree before running, so the row names the code it
measured; a row measured with ``src/`` or ``perfbench/`` differing from
HEAD says so in ``change_dirty``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a gain counts when the change wins nine pairs of ten
MIN_PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(bench: dict) -> dict[str, str]:
    """Each end-to-end metric's name and its better direction."""
    return {m["name"]: m["better"] for m in bench["end_to_end"]}


def parse_result(stdout: str) -> dict:
    """The result record, the last stdout line of a ``run.py`` run, with
    ``reference_s`` added from the context line before it: the median over
    the passes of the reference loop's time, the host's speed in the run."""
    *_, context, result = stdout.strip().splitlines()
    passes = json.loads(context)["pass_reference_s"]
    return {**json.loads(result), "reference_s": statistics.median(passes)}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a checkout, with no bytecode read or written.

    The parent side is a fresh export with no ``__pycache__`` while the
    working tree has one, so each run gets an empty bytecode cache of its
    own and writes none: both sides compile every module from source.
    """
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": pycache}
        done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1: the run finished with failed ops
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return parse_result(done.stdout)


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def build_row(
    workload: str,
    commits: dict,
    seeds: list[int],
    pairs: list[tuple[dict, dict]],
    bench: dict,
) -> dict:
    """One ledger row from (parent result, change result) pairs."""
    metrics = {}
    for name, direction in end_to_end(bench).items():
        before = [p["metrics"][name]["value"] for p, _ in pairs]
        after = [c["metrics"][name]["value"] for _, c in pairs]
        won = sum(
            (a < b) if direction == "lower" else (a > b) for b, a in zip(before, after)
        )
        metrics[name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "better": direction,
            "parent": summary(before),
            "change": summary(after),
            "pairs_won": won,
        }
    return {
        "workload": workload,
        **commits,
        "seconds": bench["run_seconds"],
        "seeds": seeds,
        "pairs": len(pairs),
        "python": platform.python_version(),
        "failed": {
            "parent": sum(p["failed"] for p, _ in pairs),
            "change": sum(c["failed"] for _, c in pairs),
        },
        "reference_s": {
            "parent": summary([p["reference_s"] for p, _ in pairs]),
            "change": summary([c["reference_s"] for _, c in pairs]),
        },
        "metrics": metrics,
    }


def append_row(path: Path, row: dict) -> None:
    rows = json.loads(path.read_text()) if path.exists() else []
    rows.append(row)
    path.write_text(json.dumps(rows, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS,
                        help=f"at least {MIN_PAIRS}; more settle a noisy metric")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    bench = benchmark()
    chosen = args.workload or [w["name"] for w in bench["workloads"]]
    commits = {
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--", "src", "perfbench")),
    }
    seeds = [args.seed + i for i in range(args.pairs)]
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        archive = subprocess.run(
            ["git", "archive", commits["parent"]], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        for workload in chosen:
            pairs = []
            for i, seed in enumerate(seeds):
                sides = [parent, ROOT] if i % 2 == 0 else [ROOT, parent]
                got = {side: run_once(side, workload, seed, bench["run_seconds"])
                       for side in sides}
                pairs.append((got[parent], got[ROOT]))
                print(f"{workload} pair {i + 1}/{args.pairs}: wall_s "
                      f"{got[parent]['metrics']['wall_s']['value']:.4f} -> "
                      f"{got[ROOT]['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
            row = build_row(workload, commits, seeds, pairs, bench)
            append_row(ROOT / f"BENCH_{workload}.json", row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
