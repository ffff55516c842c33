import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from esakia import cli, dot
from esakia.lattices import birkhoff_lattice, lattice_from_json_dict
from esakia.posets import FinitePoset
from esakia.spaces import FiniteSpace

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

L3 = str(FIXTURES / "l3.json")
TWO = str(FIXTURES / "two.json")
SIER = str(FIXTURES / "sierpinski.json")


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_nuclei_count(capsys):
    code, out = run(capsys, "nuclei", "--lattice", L3, "--count")
    assert code == 0
    assert out == "4\n"


def test_inline_json_input(capsys):
    code, out = run(
        capsys, "nuclei", "--lattice", '{"elements": ["0","1"], "leq": [["0","1"]]}',
        "--count",
    )
    assert code == 0 and out == "2\n"


def test_dual_of_two_is_a_single_point(capsys):
    code, out = run(capsys, "dual", "--lattice", TWO)
    assert code == 0
    data = json.loads(out)
    assert data["points"] == ["x_1"] and data["leq"] == []


def test_check_space_simmons_ok(capsys):
    code, out = run(capsys, "check", "--space", SIER, "--simmons")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["checks"]["simmons"]["ok"]


def test_check_lattice_tower(capsys):
    code, out = run(capsys, "check", "--lattice", L3, "--tower")
    assert code == 0
    tower = json.loads(out)["checks"]["tower"]
    assert tower["sizes"] == [3, 4, 4]
    assert set(tower) == {
        "sizes",
        "embeddings_injective",
        "embeddings_preserve_frame_ops",
        "complements_ok",
        "ok",
    }


def test_sweep_verbs(capsys):
    code, out = run(capsys, "sweep", "posets", "--n", "3", "--suite", "duality")
    assert code == 0
    data = json.loads(out)
    assert data["instances"] == data["passes"] == 5
    assert set(data) == {
        "kind",
        "n",
        "suite",
        "instances",
        "passes",
        "failures",
        "first_failure",
        "ok",
    }
    code, out = run(capsys, "sweep", "topologies", "--n", "2", "--suite", "simmons")
    assert code == 0
    data = json.loads(out)
    assert data["instances"] == data["passes"] == 4


def test_exit_code_malformed_json(capsys):
    assert cli.main(["nuclei", "--lattice", '{"elements": [']) == 3
    assert cli.main(["nuclei", "--lattice", "/nonexistent/x.json"]) == 3


def test_exit_code_invalid_model(capsys):
    bad = '{"elements": ["a", "b"], "leq": []}'
    assert cli.main(["nuclei", "--lattice", bad]) == 4
    assert cli.main(["space", "--space", '{"points": ["a"], "opens": [["a"]]}']) == 4


def test_exit_code_size_bound(capsys):
    assert cli.main(["sweep", "posets", "--n", "40", "--suite", "duality"]) == 5


def test_topology_sweep_passes_at_five_points(capsys):
    code, out = run(capsys, "sweep", "topologies", "--n", "5", "--suite", "scatter")
    assert code == 0
    data = json.loads(out)
    assert data["instances"] == data["passes"] == 6942 and data["ok"]


def test_topology_bound_variable_still_refuses(capsys, monkeypatch):
    monkeypatch.setenv("ESAKIA_TOPOLOGY_BOUND", "4")
    assert cli.main(["sweep", "topologies", "--n", "5", "--suite", "scatter"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: topology enumeration refused for 5 points (bound 4)\n"


@pytest.mark.parametrize("kind", ["posets", "topologies"])
def test_negative_sweep_size_is_a_usage_error(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", kind, "--n", "-1", "--suite", "scatter"])
    assert exc.value.code == 2
    assert "--n: -1 is not a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["assembly", "wdecomp"])
def test_nucleus_oracle_sweeps_pass_at_five_points(capsys, suite):
    code, out = run(capsys, "sweep", "posets", "--n", "5", "--suite", suite)
    assert code == 0
    data = json.loads(out)
    assert data["instances"] == data["passes"] == 63 and data["ok"]


def test_oracle_bound_variable_still_refuses(capsys, monkeypatch):
    lattice = json.dumps(birkhoff_lattice(FinitePoset.antichain(4)).to_json_dict())
    monkeypatch.setenv("ESAKIA_ORACLE_BOUND", "8")
    assert cli.main(["nuclei", "--lattice", lattice, "--count"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: nucleus oracle refused for 16 elements (bound 8)\n"
    monkeypatch.delenv("ESAKIA_ORACLE_BOUND")
    code, out = run(capsys, "nuclei", "--lattice", lattice, "--count")
    assert code == 0 and out == "16\n"


@pytest.mark.parametrize("verb", [["nuclei", "--count"], ["check", "--wdecomp"]])
def test_oracle_refuses_a_long_chain_by_its_nucleus_count(capsys, verb):
    # 20 elements fit the carrier bound, but 19 join-irreducibles give 2^19 nuclei
    lattice = json.dumps(birkhoff_lattice(FinitePoset.chain(19)).to_json_dict())
    assert cli.main([verb[0], "--lattice", lattice, *verb[1:]]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: nucleus oracle refused for 20 elements:"
        " 19 join-irreducibles give 2^19 nuclei (bound 64)\n"
    )


def test_dual_of_a_long_chain_builds_without_listing_upsets(capsys):
    # 22 elements, 21 join-irreducibles: the lattice and its dual build, and
    # the duality check lists the 22 upsets of the 21-point dual, far below
    # the cap on the upset count
    labels = [f"c{i}" for i in range(22)]
    lattice = json.dumps(
        {"elements": labels, "leq": [[a, b] for a, b in zip(labels, labels[1:])]}
    )
    code, out = run(capsys, "dual", "--lattice", lattice)
    assert code == 0
    assert len(json.loads(out)["points"]) == 21
    code, out = run(capsys, "check", "--lattice", lattice, "--duality")
    assert code == 0
    duality = json.loads(out)["checks"]["duality"]
    assert duality.pop("details") == []
    assert all(duality.values())


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_exit_code_bad_bound_variable(capsys, monkeypatch, value):
    monkeypatch.setenv("ESAKIA_POSET_BOUND", value)
    assert cli.main(["sweep", "posets", "--n", "3", "--suite", "duality"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: ESAKIA_POSET_BOUND={value!r} is not a non-negative integer\n"
    )


def test_exit_code_usage():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-verb"])
    assert exc.value.code == 2


VERBS = ("dual", "assembly", "nuclei", "points", "space", "check", "sweep", "export-dot")
CLI_TEXT = FIXTURES / "cli_text"

# (golden file, argv, exit code, the stream that carries the text; the
# other stream stays empty)
TEXT_RUNS = [
    ("help", ["--help"], 0, "out"),
    *[(f"{verb}-help", [verb, "--help"], 0, "out") for verb in VERBS],
    ("no-arguments", [], 2, "err"),
    ("no-such-verb", ["no-such-verb"], 2, "err"),
    ("help-before-verb", ["-h", "dual"], 0, "out"),
    ("dashdash-before-verb", ["--", "dual", "--lattice", L3], 2, "err"),
    ("leftover-argument", ["dual", "--lattice", L3, "--bogus"], 2, "err"),
    ("missing-required", ["dual"], 2, "err"),
    ("check-conflict", ["check", "--lattice", L3, "--space", SIER], 2, "err"),
    ("check-space-flag-on-lattice", ["check", "--lattice", L3, "--simmons"], 2, "err"),
    ("check-lattice-flag-on-space", ["check", "--space", SIER, "--tower"], 2, "err"),
    ("export-dot-conflict", ["export-dot", "--lattice", L3, "--space", SIER], 2, "err"),
    ("bad-what", ["export-dot", "--lattice", L3, "--what", "bogus"], 2, "err"),
    ("bad-sweep-kind", ["sweep", "trees", "--n", "3", "--suite", "duality"], 2, "err"),
    ("negative-n", ["sweep", "posets", "--n", "-1", "--suite", "duality"], 2, "err"),
]


@pytest.mark.parametrize("name,argv,code,stream", TEXT_RUNS, ids=[t[0] for t in TEXT_RUNS])
def test_usage_help_and_error_text(capsys, monkeypatch, name, argv, code, stream):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    text = (CLI_TEXT / f"{name}.txt").read_text(encoding="utf-8")
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ((text, "") if stream == "out" else ("", text))


def test_a_call_builds_only_the_parser_of_its_verb(capsys, monkeypatch):
    built = []  # the prog of every parser built
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(2):  # nothing is kept between calls
        built.clear()
        assert cli.main(["dual", "--lattice", L3]) == 0
        assert built == ["esakia dual"]
    built.clear()
    with pytest.raises(SystemExit):
        cli.main(["no-such-verb"])
    assert len(built) == 1 + len(cli._VERBS)


def test_main_dispatches_through_the_module_attribute(monkeypatch):
    calls = []

    def stub(args):
        calls.append(args.lattice)
        return 7

    monkeypatch.setattr(cli, "_cmd_dual", stub)
    assert cli.main(["dual", "--lattice", L3]) == 7
    assert cli.build_parser().parse_args(["dual", "--lattice", L3]).func is stub
    assert calls == [L3]


@pytest.mark.parametrize(
    "argv,code,expect",
    [
        (["nuclei", "--lattice", L3, "--count"], 0, lambda out: out == "4\n"),
        (["--help"], 0, lambda out: out.startswith("usage: esakia")),
        (["no-such-verb"], 2, lambda out: out == ""),
    ],
    ids=["nuclei-count", "help", "no-such-verb"],
)
def test_entry_point_subprocess(argv, code, expect):
    proc = subprocess.run(
        [sys.executable, "-m", "esakia", *argv], capture_output=True, text=True
    )
    assert proc.returncode == code
    assert expect(proc.stdout)


def test_the_wdecomp_check_loads_neither_sweeps_nor_spaces():
    script = (
        "import sys; from esakia import cli; cli.main(sys.argv[1:]); "
        "print(sorted({'esakia.spaces', 'esakia.sweeps'} & set(sys.modules)), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "check", "--lattice", L3, "--wdecomp"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["checks"] == {"wdecomp": {"ok": True}}
    assert proc.stderr == "[]\n"


GOLDEN_RUNS = [
    ("l3_dual.json", ["dual", "--lattice", L3]),
    ("l3_assembly.json", ["assembly", "--lattice", L3]),
    ("l3_nuclei.json", ["nuclei", "--lattice", L3]),
    ("l3_points.json", ["points", "--lattice", L3]),
    ("l3_check.json", ["check", "--lattice", L3]),
    ("l3_dual.dot", ["export-dot", "--lattice", L3, "--what", "dual", "--highlight", "m"]),
    ("l3_assembly.dot", ["export-dot", "--lattice", L3, "--what", "assembly"]),
    ("two_dual.json", ["dual", "--lattice", TWO]),
    ("two_poset.dot", ["export-dot", "--poset", TWO]),
    ("sierpinski_space.json", ["space", "--space", SIER]),
    ("sierpinski_check.json", ["check", "--space", SIER]),
    ("sierpinski_space.dot", ["export-dot", "--space", SIER]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_RUNS, ids=[g[0] for g in GOLDEN_RUNS])
def test_golden_outputs(capsys, name, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_dot_poset_shapes():
    text = dot.poset_dot(FinitePoset.chain(2))
    assert text.startswith("digraph poset {")
    assert '"c0" -> "c1";' in text
    assert text.endswith("}\n")


def test_dot_dual_highlight_shades_phi():
    lat = lattice_from_json_dict(
        {"elements": ["0", "m", "1"], "leq": [["0", "m"], ["m", "1"]]}
    )
    text = dot.dual_space_dot(lat, highlight_element="m")
    assert '"x_m" [style=filled, fillcolor=lightgray];' in text
    assert '"x_1";' in text


def test_dot_space_draws_indistinguishable_pairs_dashed():
    s = FiniteSpace.from_json_dict(
        {"points": ["a", "b"], "opens": [[], ["a", "b"]]}
    )
    text = dot.space_dot(s)
    assert "dir=none" in text and "style=dashed" in text


HIGHLIGHT_REFUSALS = [
    ("poset-unknown", ["--poset", TWO, "--highlight", "zz"], "unknown element 'zz'"),
    ("lattice-unknown", ["--lattice", L3, "--highlight", "zz"], "unknown element 'zz'"),
    (
        "dual-unknown",
        ["--lattice", L3, "--what", "dual", "--highlight", "zz"],
        "unknown element 'zz'",
    ),
    (
        "assembly",
        ["--lattice", L3, "--what", "assembly", "--highlight", "m"],
        "--what assembly shades nothing; drop --highlight",
    ),
    (
        "space",
        ["--space", SIER, "--highlight", "0"],
        "--what space shades nothing; drop --highlight",
    ),
]


@pytest.mark.parametrize(
    "argv,message", [r[1:] for r in HIGHLIGHT_REFUSALS], ids=[r[0] for r in HIGHLIGHT_REFUSALS]
)
def test_export_dot_refuses_a_highlight_it_cannot_shade(capsys, argv, message):
    code = cli.main(["export-dot", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (4, "", f"error: {message}\n")


def test_export_dot_shades_a_known_highlight(capsys):
    code, out = run(capsys, "export-dot", "--poset", TWO, "--highlight", "1")
    assert code == 0
    assert '"1" [style=filled, fillcolor=lightgray];' in out and '"0";' in out
    code, out = run(capsys, "export-dot", "--lattice", L3, "--highlight", "m")
    assert code == 0
    assert '"m" [style=filled, fillcolor=lightgray];' in out
