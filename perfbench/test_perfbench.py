"""The benchmark's own tests.

    python3 -m pytest perfbench
"""

import json
import random
import re
import shutil

import pytest

import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def mods():
    return run.import_esakia()


def _names(workload):
    return [op.name for op in workload.ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(mods, name):
    make = workloads.WORKLOADS[name]
    first = make(mods, random.Random(7))
    assert _names(first) == _names(make(mods, random.Random(7)))
    assert len(first.ops) >= 100
    assert len(set(_names(first))) == len(first.ops)
    orders = run.pass_orders(7, len(first.ops))
    again = run.pass_orders(7, len(first.ops))
    assert [next(orders) for _ in range(3)] == [next(again) for _ in range(3)]


def test_seed_draws_the_models(mods):
    drawn = {
        tuple(_names(workloads.model_check(mods, random.Random(seed)))) for seed in range(4)
    }
    assert len(drawn) > 1


def _snapshot(mods) -> dict:
    """Identity of every esakia module attribute, class attribute and
    suite table entry."""
    out = {}
    for mod_name, mod in vars(mods).items():
        for key, value in vars(mod).items():
            out[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod_name, key, attr)] = member
    for table in tracing.SUITE_TABLES:
        for suite, check in getattr(mods.sweeps, table).items():
            out[(table, suite)] = check
    return out


def _changed(before: dict, after: dict) -> list:
    return [key for key in before.keys() | after.keys() if before.get(key) is not after.get(key)]


def test_tracer_restores_every_function(mods):
    before = _snapshot(mods)
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(vars(mods))
        during = _snapshot(mods)
        assert ("spaces", "validate_nucleus") in _changed(before, during)
        assert ("lattices", "FiniteLattice", "imp") in _changed(before, during)
        mods.sweeps.TOPOLOGY_SUITES["simmons"](mods.spaces.enumerate_topologies(2)[1])
    assert _changed(before, _snapshot(mods)) == []
    table = tracer.table(tracing.wrapped_names(vars(mods)))
    assert table["functions"]["sweeps.simmons"]["calls"] == 1
    assert table["functions"]["spaces.sigma"]["calls"] > 0
    assert table["functions"]["nuclei.validate_nucleus"]["calls"] > 0
    for row in table["modules"].values():
        assert row["self_s"] <= row["total_s"] + 1e-9


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    for name_id, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (1, 0, 5.0, 6.0)):
        tracer.name_of.append(name_id)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    tracer.names = ["sweeps.simmons", "spaces.sigma"]
    table = tracer.table(tracer.names)
    assert table["functions"]["sweeps.simmons"]["self_s"] == pytest.approx(6.0)
    assert table["functions"]["spaces.sigma"]["self_s"] == pytest.approx(4.0)
    assert table["modules"]["spaces"]["total_s"] == pytest.approx(4.0)
    tracer.span_cost_s = 0.5  # taken once per child span from the parent
    table = tracer.table(tracer.names)
    assert table["functions"]["sweeps.simmons"]["self_s"] == pytest.approx(5.0)
    assert table["functions"]["sweeps.simmons"]["total_s"] == pytest.approx(9.0)
    assert table["functions"]["spaces.sigma"]["self_s"] == pytest.approx(4.0)


def test_span_cost_is_measured():
    cost = tracing.span_cost(calls=2000, repeats=3)
    assert 0.0 < cost < 1e-4


def test_every_topology_op_has_its_own_space(mods):
    workload = workloads.topology_sweep(mods, random.Random(1))
    spaces = [
        cell.cell_contents
        for op in workload.ops
        for cell in op.run.__closure__
        if isinstance(cell.cell_contents, mods.spaces.FiniteSpace)
    ]
    assert len(spaces) == len(workload.ops)
    assert len({id(space) for space in spaces}) == len(spaces)


def test_metric_names_are_well_formed():
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(name) for name in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in tracing.per_layer_metrics()
    ]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_tampered_golden_counts_as_failed(mods, tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(workloads.GOLDEN, golden)
    target = golden / "l3_dual.json"
    target.write_text(target.read_text().replace('"m"', '"n"', 1))
    workload = workloads.model_check(mods, random.Random(1), golden_dir=golden)
    workload.ops = [op for op in workload.ops if op.name.startswith("golden/")]
    done = run.run_pass(workload, range(len(workload.ops)), run.cache_clearers(mods))
    assert len(done.latencies_s) == len(workloads.GOLDEN_COMMANDS)
    assert [name for name, _ in done.failures] == ["golden/l3_dual.json"]


def test_raising_op_is_counted_and_the_pass_goes_on(mods):
    def boom():
        raise ValueError("broken")

    ops = [workloads.Op("boom", boom), workloads.Op("fine", lambda: None)]
    workload = workloads.Workload(ops, [])
    done = run.run_pass(workload, [0, 1], [])
    assert len(done.latencies_s) == 2
    assert done.failures == [("boom", "raised ValueError: broken")]


def test_scaling_cancels_a_slow_host():
    ref = run.REFERENCE_S
    quiet = run.Pass(1.0, [0.010, 0.030], [], [ref, ref])
    slow = run.Pass(1.5, [0.015, 0.045], [], [1.5 * ref, 1.5 * ref])
    mixed = run.Pass(2.0, [0.020, 0.030], [], [2 * ref, ref])
    assert run.op_times([quiet, slow, mixed]) == pytest.approx([0.010, 0.030])
    # the program getting slower is not cancelled
    slower = run.Pass(1.0, [0.020, 0.060], [], [ref, ref])
    assert run.op_times([slower, slower, slow]) == pytest.approx([0.020, 0.060])


def test_reference_is_taken_around_each_op():
    ops = [workloads.Op(f"op{i}", lambda: None) for i in range(3)]
    done = run.run_pass(workloads.Workload(ops, []), [2, 0, 1], [])
    assert len(done.reference_s) == 3 and all(r > 0 for r in done.reference_s)
