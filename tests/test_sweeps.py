"""The sweep verb end to end: the summary a failing suite reports, and the
refusal of an unknown suite, for each instance kind."""

import json

import pytest

from esakia import cli, sweeps


def sweep(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(["sweep", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_failing_poset_suite_names_its_first_failure(capsys, monkeypatch):
    # fails on the three 3-element posets with two covers, #2 to #4
    monkeypatch.setitem(
        sweeps.POSET_SUITES, "duality", lambda poset, lattice: len(poset.covers()) != 2
    )
    code, out, err = sweep(capsys, "posets", "--n", "3", "--suite", "duality")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "kind": "posets",
        "n": 3,
        "suite": "duality",
        "instances": 5,
        "passes": 2,
        "failures": 3,
        "first_failure": "poset #2: covers [('p0', 'p2'), ('p1', 'p2')]",
        "ok": False,
    }


def test_a_failing_topology_suite_names_its_first_failure(capsys, monkeypatch):
    # fails on the two 2-point topologies with one proper open, #1 and #2
    monkeypatch.setitem(sweeps.TOPOLOGY_SUITES, "scatter", lambda space: len(space.opens) != 3)
    code, out, err = sweep(capsys, "topologies", "--n", "2", "--suite", "scatter")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "kind": "topologies",
        "n": 2,
        "suite": "scatter",
        "instances": 4,
        "passes": 2,
        "failures": 2,
        "first_failure": "opens ['{}', '{0}', '{0,1}']",
        "ok": False,
    }


@pytest.mark.parametrize(
    "kind,message",
    [
        ("posets", "unknown poset suite 'bogus'; choose from "
         "['assembly', 'boolean', 'duality', 'spatial', 'wdecomp']"),
        ("topologies", "unknown topology suite 'bogus'; choose from "
         "['scatter', 'simmons', 'sober']"),
    ],
)
@pytest.mark.parametrize("n", ["2", "40"])
def test_an_unknown_suite_is_refused_before_enumeration(capsys, kind, message, n):
    # n = 40 is over both caps: the suite is named before anything is enumerated
    assert sweep(capsys, kind, "--n", n, "--suite", "bogus") == (4, "", f"error: {message}\n")
