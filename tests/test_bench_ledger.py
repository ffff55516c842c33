"""The BENCH ledger's row builder, on canned ``perfbench/run.py`` output.

No benchmark runs here: the rows are built from result lines written out
below and checked against the schema of the committed ``BENCH_*.json``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_ledger", ROOT / "tools" / "bench_ledger.py")
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

UNITS = {"wall_s": "s", "setup_s": "s", "ops_per_s": "1/s",
         "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def run_stdout(scale: float, failed: int = 0, reference_s=(2.5e-4, 2.6e-4, 2.4e-4)) -> str:
    """What run.py prints with --trace 0: a context line, then the result."""
    context = {"workload": "poset-sweep", "seed": 1, "seconds": 40, "trace": 0,
               "pass_reference_s": list(reference_s)}
    metrics = {
        name: {"value": scale * (k + 1), "unit": unit}
        for k, (name, unit) in enumerate(UNITS.items())
    }
    result = {"correct": not failed, "attempted": 100, "failed": failed, "metrics": metrics}
    return json.dumps(context) + "\n" + json.dumps(result) + "\n"


def canned_row():
    # the change is 10% lower on every metric in three pairs of four
    scales = [(1.0, 0.9), (1.1, 0.99), (0.9, 0.81), (1.0, 1.2)]
    pairs = [
        (ledger.parse_result(run_stdout(b)), ledger.parse_result(run_stdout(a, failed=k == 3)))
        for k, (b, a) in enumerate(scales)
    ]
    commits = {"parent": "a" * 40, "change": "b" * 40, "change_dirty": False}
    return ledger.build_row("poset-sweep", commits, [1, 2, 3, 4], pairs, ledger.benchmark())


def shape(value):
    """The schema of a JSON value: key sets and leaf types, not values."""
    if isinstance(value, dict):
        return {k: shape(v) for k, v in value.items()}
    if isinstance(value, list):
        return [shape(v) for v in value[:1]]
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def test_a_row_counts_pairs_won_in_each_metrics_direction():
    row = canned_row()
    assert row["pairs"] == 4 and row["failed"] == {"parent": 0, "change": 1}
    assert set(row["metrics"]) == set(UNITS)
    wall = row["metrics"]["wall_s"]
    assert wall["better"] == "lower" and wall["unit"] == "s"
    assert wall["pairs_won"] == 3
    assert wall["parent"]["median"] == pytest.approx(1.0)
    assert wall["change"]["median"] == pytest.approx(0.945)
    assert wall["change"]["q1"] <= wall["change"]["median"] <= wall["change"]["q3"]
    # higher is better for throughput, so the lower change loses there
    assert row["metrics"]["ops_per_s"]["pairs_won"] == 1


def test_a_row_takes_its_run_length_from_the_benchmark():
    assert canned_row()["seconds"] == ledger.benchmark()["run_seconds"]


def test_the_ledger_refuses_fewer_than_ten_pairs(capsys):
    # refused while parsing, before any checkout or run
    with pytest.raises(SystemExit) as refused:
        ledger.main(["--parent", "HEAD", "--pairs", "9"])
    assert refused.value.code == 2
    assert "--pairs must be at least 10" in capsys.readouterr().err


def test_a_row_records_the_host_speed_on_each_side():
    # each run's speed is the median of its passes' reference times
    pairs = [
        (ledger.parse_result(run_stdout(1.0, reference_s=(b, 9.0, b))),
         ledger.parse_result(run_stdout(1.0, reference_s=(a, a, 0.0))))
        for b, a in [(1.0, 3.0), (2.0, 4.0), (1.5, 5.0), (1.0, 6.0)]
    ]
    commits = {"parent": "a" * 40, "change": "b" * 40, "change_dirty": False}
    row = ledger.build_row("poset-sweep", commits, [1, 2, 3, 4], pairs, ledger.benchmark())
    assert row["reference_s"]["parent"] == pytest.approx(
        {"median": 1.25, "q1": 1.0, "q3": 1.625})
    assert row["reference_s"]["change"] == pytest.approx(
        {"median": 4.5, "q1": 3.75, "q3": 5.25})


def test_committed_ledger_rows_have_the_builders_schema():
    bench = ledger.benchmark()
    want = shape(canned_row())
    # rows written before the ledger recorded the host's speed lack
    # reference_s; every row after the first that has it must have it
    before_speed = {k: v for k, v in want.items() if k != "reference_s"}
    for workload in (w["name"] for w in bench["workloads"]):
        rows = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
        assert rows
        recorded = False
        for row in rows:
            recorded = recorded or "reference_s" in row
            assert shape(row) == (want if recorded else before_speed)
            assert row["workload"] == workload and row["pairs"] == len(row["seeds"])


def test_each_run_compiles_from_an_empty_bytecode_cache(monkeypatch, tmp_path):
    # the parent export has no __pycache__ and the working tree has one;
    # neither may be read, and no run may leave bytecode for the next
    seen = []

    def fake_run(argv, cwd, env, capture_output, text):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((env["PYTHONDONTWRITEBYTECODE"], prefix, list(prefix.iterdir())))
        return ledger.subprocess.CompletedProcess(argv, 0, run_stdout(1.0), "")

    monkeypatch.setattr(ledger.subprocess, "run", fake_run)
    for _ in range(2):
        got = ledger.run_once(tmp_path, "poset-sweep", 1, 0.1)
        assert got["metrics"]["wall_s"]["value"] == 1.0
    assert [(flag, files) for flag, _, files in seen] == [("1", []), ("1", [])]
    prefixes = [prefix for _, prefix, _ in seen]
    assert prefixes[0] != prefixes[1]
    assert not any(p.exists() or p.is_relative_to(tmp_path) for p in prefixes)
