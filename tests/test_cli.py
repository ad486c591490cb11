"""Command-line behaviour: reports, exit codes, and JSON round trips."""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from flowpoly import cli, combinat, gravity, lidskii, paths, unified
from flowpoly import graphs as G
from flowpoly.gravity import GravityDiagram, enumerate_out_gravity_mcar
from flowpoly.paths import MultiLabeledDyckPath, TDyckPath
from flowpoly.unified import TruncatedDiagram, volume_closed_form, volume_closed_form_mcar
from oracles import dyck_text, multilabeled_word, record_from_json, render_text, render_truncated_text


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_volume_all_methods(capsys):
    code, doc, _ = run_json(
        capsys, "volume", "--graph", "caracol:n=5,k=2", "--netflow", "ones",
        "--method", "all",
    )
    assert code == 0
    assert doc["results"]["volume"] == 2800
    assert doc["results"]["lidskii"] == doc["results"]["unified"] == 2800
    assert doc["results"]["closed"] == 2800
    assert all(c["pass"] for c in doc["checks"])


def test_volume_complete_and_mcar(capsys):
    code, doc, _ = run_json(
        capsys, "volume", "--graph", "complete:n=4", "--netflow", "unit"
    )
    assert code == 0 and doc["results"]["volume"] == 2
    code, doc, _ = run_json(
        capsys, "volume", "--graph", "mcar:a=3,k=2", "--netflow", "unit"
    )
    assert code == 0 and doc["results"]["volume"] == 7


def test_volume_terms_method(capsys):
    """The term route alone, on a graph without a block net flow."""
    code, doc, _ = run_json(
        capsys, "volume", "--graph", "complete:n=5", "--netflow", "unit", "--method", "terms"
    )
    assert code == 0 and doc["results"] == {"terms": 10, "volume": 10}
    assert doc["checks"] == []


def test_volume_xy_netflow(capsys):
    code, doc, _ = run_json(
        capsys, "volume", "--graph", "caracol:n=5,k=2", "--netflow", "xy:x=1,y=0",
        "--method", "all",
    )
    assert code == 0 and doc["results"]["volume"] == 448


@pytest.mark.parametrize(
    "graph, closed_form, params",
    [
        ("caracol:n=5,k=2", volume_closed_form, (5, 2)),
        ("mcar:a=3,k=2", volume_closed_form_mcar, (3, 2)),
    ],
)
def test_volume_xy_netflow_runs_every_method(capsys, graph, closed_form, params):
    """x != y, so (x, y) must be read off the right entries of the flow."""
    code, doc, _ = run_json(
        capsys, "volume", "--graph", graph, "--netflow", "xy:x=2,y=3", "--method", "all"
    )
    assert code == 0 and [c["name"] for c in doc["checks"]] == [
        "lidskii = terms", "lidskii = unified", "lidskii = closed"
    ]
    assert all(c["pass"] for c in doc["checks"])
    assert doc["results"]["volume"] == closed_form(*params, 2, 3)


def test_volume_custom_netflow(capsys):
    code, doc, _ = run_json(
        capsys, "volume", "--graph", "ps:n=4", "--netflow", "custom:[1,1,1,-3]"
    )
    assert code == 0 and doc["results"]["volume"] == 3


def test_kostant_command(capsys):
    code, doc, _ = run_json(
        capsys, "kostant", "--graph", "caracol:n=5,k=2", "--vector", "[4,-2,-1,-1,0,0]"
    )
    assert code == 0 and doc["results"]["kostant"] == 7


def test_kostant_with_more_roots_than_the_recursion_limit(capsys):
    """complete(46) has 1,081 roots, more than the interpreter's default
    limit of 1,000 frames.  At the unit flow K counts the source-to-sink
    paths of K_47, one per subset of its 45 inner vertices; the limit is
    the same after the run."""
    limit = sys.getrecursionlimit()
    code, doc, err = run_json(capsys, "kostant", "--graph", "complete:n=46", "--netflow", "unit")
    assert (code, err) == (0, "")
    assert doc["results"]["kostant"] == 2**45
    assert sys.getrecursionlimit() == limit


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "volume", "--graph", "hexagon:n=5", "--netflow", "ones")
    assert code == 2 and "hexagon" in err
    code, _, err = run(capsys, "volume", "--graph", "caracol:n=5;k=2", "--netflow", "ones")
    assert code == 2
    code, _, err = run(capsys, "volume", "--graph", "caracol:n=5,k=2", "--netflow", "sevens")
    assert code == 2
    code, _, err = run(capsys, "kostant", "--graph", "ps:n=4")
    assert code == 2


def test_method_unavailable_exit_2(capsys):
    code, _, err = run(
        capsys, "volume", "--graph", "ps:n=4", "--netflow", "ones", "--method", "closed"
    )
    assert code == 2 and "closed form" in err
    # unit flow on a k=2 caracol graph is not a block flow
    code, _, err = run(
        capsys, "volume", "--graph", "caracol:n=5,k=2", "--netflow", "unit",
        "--method", "unified",
    )
    assert code == 2


def test_method_all_degrades_gracefully(capsys):
    code, doc, _ = run_json(
        capsys, "volume", "--graph", "ps:n=4", "--netflow", "ones", "--method", "all"
    )
    assert code == 0
    assert doc["results"]["volume"] == 3
    assert "closed" not in doc["results"]
    assert [c["name"] for c in doc["checks"]] == ["lidskii = terms"]
    assert doc["checks"][0]["pass"] and doc["results"]["terms"] == 3


def test_tables_parking_text(capsys):
    code, out, _ = run(capsys, "tables", "parking", "--k", "2", "--rmax", "5")
    assert code == 0
    assert "728 1365 2184 2808 2592 1296" in out


def test_tables_parking_csv(capsys):
    code, out, _ = run(
        capsys, "tables", "parking", "--k", "1", "--rmax", "5", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[1] == "1,1"
    assert out.splitlines()[5] == "42,126,336,756,1296,1296"


def test_tables_gravity_counts(capsys):
    code, doc, _ = run_json(capsys, "tables", "gravity-counts", "--nmax", "7")
    assert code == 0
    rows = doc["results"]["rows"]
    assert rows[3][0] == 5 and rows[3][1] == 7  # n = 5 row: k = 1, 2
    assert rows[5][1] == 143  # n = 7, k = 2
    assert "rendered" not in doc["results"]  # the rows are the table


def test_tables_smallest_sizes_have_one_row(capsys):
    for kind, size in (("parking", ["--rmax", "0"]), ("gravity-counts", ["--nmax", "2"])):
        code, doc, _ = run_json(capsys, "tables", kind, *size)
        assert code == 0 and doc["results"]["rows"] == [[1]], kind


def test_verify_suites_exit_zero(capsys):
    for suite in ("bijections", "lidskii", "simplex", "orbits", "all"):
        code, doc, _ = run_json(capsys, "verify", suite, "--n", "5", "--k", "2")
        assert code == 0, suite
        assert doc["ok"] is True
        assert doc["checks"]


# the zoo of `verify lidskii`: each graph's name and its vertex count
LIDSKII_ZOO = [
    ("caracol:n=3,k=1", 4), ("caracol:n=3,k=2", 4), ("caracol:n=4,k=1", 5),
    ("caracol:n=4,k=2", 5), ("caracol:n=4,k=3", 5), ("caracol:n=5,k=1", 6),
    ("caracol:n=5,k=2", 6), ("ps:n=3", 3), ("ps:n=4", 4), ("ps:n=5", 5),
    ("complete:n=2", 3), ("complete:n=3", 4), ("complete:n=4", 5),
    ("mcar:a=2,k=1", 4), ("mcar:a=2,k=2", 4), ("mcar:a=3,k=2", 5),
]


def test_verify_lidskii_fails_when_the_routes_disagree(monkeypatch, capsys):
    """The sweep is checked against the term sum on every zoo graph at the
    unit flow, the ones flow and (1, 2, 1, ...); a term route that is off
    by one on the multiset form fails each of them, in that order."""
    term_sum = lidskii.term_sum

    def off_by_one(g, flows, forms=lidskii.FORMS):
        return tuple(
            tuple(x + (f == "multiset") for f, x in zip(forms, totals))
            for totals in term_sum(g, flows, forms)
        )

    monkeypatch.setattr(lidskii, "term_sum", off_by_one)
    code, doc, _ = run_json(capsys, "verify", "lidskii")
    failed = [c["name"] for c in doc["checks"] if not c["pass"]]
    want = []
    for name, size in LIDSKII_ZOO:
        n = size - 1
        two = [1 + v % 2 for v in range(n)]
        for a in ([1] + [0] * (n - 1) + [-1], [1] * n + [-n], two + [-sum(two)]):
            want.append(f"Lidskii sweep on {name} at {a}")
    assert len(want) == 48
    assert code == 1 and failed == want + ["Lidskii sweep agrees with the term sum"]


def test_verify_lidskii_fails_when_the_volume_is_not_homogeneous(monkeypatch, capsys):
    """The volume is checked for homogeneity of degree m-n at 2 and 3 times
    the ones flow on the first six zoo graphs, against the volume the flow
    loop swept at the ones flow: 3 sweeps per zoo graph and 2 per checked
    one.  A sweep that is off by one at one scaled flow fails the check,
    and only it."""
    volume, calls = lidskii.volume, []
    g = cli._small_zoo()[2][1]
    scaled = tuple(3 * x for x in G.ones_flow(g))

    def off_by_one(graph, a):
        calls.append(a)
        return volume(graph, a) + (graph == g and tuple(a) == scaled)

    monkeypatch.setattr(lidskii, "volume", off_by_one)
    code, out, _ = run(capsys, "verify", "lidskii")
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert len(calls) == 3 * len(LIDSKII_ZOO) + 2 * 6
    assert code == 1
    assert failed == ["[FAIL] volume homogeneity of degree m-n: expected True, got False"]


def test_verify_lidskii_lists_the_terms_once_per_graph(monkeypatch, capsys):
    """The term route serves a zoo graph's three net flows from one table:
    the dominating compositions are listed once per graph, not once per
    (graph, flow), and the report is the same."""
    _, before, _ = run_json(capsys, "verify", "lidskii")
    listing, calls = lidskii.dominating_compositions, []

    def counted(t):
        calls.append(tuple(t))
        return listing(t)

    monkeypatch.setattr(lidskii, "dominating_compositions", counted)
    code, doc, _ = run_json(capsys, "verify", "lidskii")
    assert len(calls) == len(cli._small_zoo()) == len(LIDSKII_ZOO) == 16
    assert code == 0
    assert {**doc, "wall_time": 0} == {**before, "wall_time": 0}


def test_verify_bijections_reports_diagrams_left_unmatched(monkeypatch, capsys):
    """A psi_in that sends two in-degree diagrams to one path leaves the
    second of them and the out-degree diagram on the other's path
    unmatched: one report that names both on a [FAIL] line, and exit 1."""
    ins = list(gravity.enumerate_in_gravity(5, 2))
    psi_in = gravity.psi_in
    lost = next(d for d in gravity.enumerate_out_gravity(5, 2)
                if gravity.psi_out(d).shape == psi_in(ins[1]).shape)
    monkeypatch.setattr(gravity, "psi_in", lambda d: psi_in(ins[0] if d == ins[1] else d))
    code, out, err = run(capsys, "verify", "bijections", "--n", "5", "--k", "2")
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert code == 1 and err == ""
    assert out.count("# verify") == 1
    assert ("[FAIL] in/out diagrams left unmatched: expected [], got "
            f"{[ins[1].to_json(), lost.to_json()]}") in failed
    assert "[FAIL] in/out correspondence size: expected 7, got 6" in failed


def test_verify_bijections_lists_each_family_once(monkeypatch, capsys):
    """The round trips, the psi image lines and the in/out correspondence
    share one listing of each caracol family and of the rational Dyck
    paths, and theta runs over every truncated level."""
    calls = []

    def counted(module, name):
        listing = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append((name, args)) or listing(*args))

    for name in ("enumerate_in_gravity", "enumerate_out_gravity", "enumerate_out_gravity_mcar"):
        counted(gravity, name)
    counted(unified, "enumerate_truncated")
    counted(paths, "enumerate_t_dyck")
    code, _, _ = run(capsys, "verify", "bijections", "--n", "6", "--k", "2")
    assert code == 0
    assert sorted(calls) == [
        ("enumerate_in_gravity", (6, 2)),
        ("enumerate_out_gravity", (6, 2)),
        ("enumerate_out_gravity_mcar", (4, 2)),
        ("enumerate_t_dyck", (paths.rational_shape(4, 7),)),
        *(("enumerate_truncated", (6, 2, i)) for i in range(4)),
    ]


def test_verify_all_runs_orbits_at_n_and_k(capsys):
    code, doc, _ = run_json(capsys, "verify", "all", "--n", "6", "--k", "2")
    names = {c["name"] for c in doc["checks"]}
    assert code == 0 and "standardized count at level 3" in names


def test_verify_orbits_standardized_448(capsys):
    code, doc, _ = run_json(capsys, "verify", "orbits", "--n", "5", "--k", "2")
    assert code == 0
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["standardized count at level 0"]["got"] == 448


def test_enumerate_gravity(capsys):
    code, doc, _ = run_json(
        capsys, "enumerate", "gravity", "--kind", "out", "--n", "5", "--k", "2",
        "--render", "json",
    )
    assert code == 0 and doc["results"]["count"] == 7
    for line in doc["results"]["items"]:
        d = record_from_json(GravityDiagram, line)
        assert record_from_json(GravityDiagram, d.to_json()) == d


def test_enumerate_multilabeled(capsys):
    code, doc, _ = run_json(
        capsys, "enumerate", "multilabeled", "--k", "3", "--r", "3", "--i", "2",
        "--render", "json",
    )
    assert code == 0 and doc["results"]["count"] == 48
    for line in doc["results"]["items"]:
        m = record_from_json(MultiLabeledDyckPath, line)
        assert record_from_json(MultiLabeledDyckPath, m.to_json()) == m


def test_enumerate_truncated(capsys):
    code, doc, _ = run_json(
        capsys, "enumerate", "truncated", "--n", "5", "--k", "2", "--i", "0",
        "--render", "json",
    )
    assert code == 0 and doc["results"]["count"] == 7
    for line in doc["results"]["items"]:
        u = record_from_json(TruncatedDiagram, line)
        assert record_from_json(TruncatedDiagram, u.to_json()) == u


def test_enumerate_dyck(capsys):
    code, doc, _ = run_json(
        capsys, "enumerate", "dyck", "--a", "3", "--b", "5", "--render", "json"
    )
    assert code == 0 and doc["results"]["count"] == 7
    for line in doc["results"]["items"]:
        p = record_from_json(TDyckPath, line)
        assert record_from_json(TDyckPath, p.to_json()) == p


@pytest.mark.parametrize(
    "obj, line",
    [
        (
            GravityDiagram("in", 6, 2, ((1, 3, 6), (2, 4, 6), (3, 4, 6), (4, 5, 6), (5, 5, 6))),
            '{"kind": "in", "n": 6, "k": 2, "segments": '
            "[[1, 3, 6], [2, 4, 6], [3, 4, 6], [4, 5, 6], [5, 5, 6]]}",
        ),
        (
            next(enumerate_out_gravity_mcar(1, 2)),
            '{"kind": "mcar-out", "n": 1, "k": 2, "segments": [], "colors": []}',
        ),
        (
            TDyckPath((3, 0, 0, 1), (1, 0, 2, 1)),
            '{"shape": [3, 0, 0, 1], "reference": [1, 0, 2, 1]}',
        ),
        (
            MultiLabeledDyckPath((2, 1, 0), ((-2, 1), (0,), ())),
            '{"shape": [2, 1, 0], "labels": [[-2, 1], [0], []]}',
        ),
        (
            TruncatedDiagram(6, 2, 1, (1, 0, 0), ((1,), (), ()), ((0, 1), (2, 2))),
            '{"n": 6, "k": 2, "level": 1, "tail": [1, 0, 0], '
            '"tail_labels": [[1], [], []], "segments": [[0, 1], [2, 2]]}',
        ),
    ],
)
def test_record_json_lines_are_pinned(obj, line):
    """The exact line `enumerate --render json` writes for each record
    type, and the object it reads back as."""
    assert obj.to_json() == line
    assert record_from_json(type(obj), line) == obj


# enumerate's text routes -> (the records they draw, each record's picture in
# the oracles, the parameters of every golden and digest text listing and of
# every small family: gravity n <= 8, multicaracol a <= 5, truncated n <= 8 at
# every level, multi-labeled r <= 4, and Dyck shapes with zero parts)
GRAVITY_RECORDS = {"in": gravity.enumerate_in_gravity, "out": gravity.enumerate_out_gravity,
                   "mcar-out": gravity.enumerate_out_gravity_mcar}
TEXT_ROUTES = {
    "gravity": (gravity.text_lines, lambda kind, n, k: GRAVITY_RECORDS[kind](n, k), render_text,
                [(kind, n, k) for kind in ("in", "out") for n in range(2, 9) for k in range(1, n)]
                + [("mcar-out", a, k) for a in range(1, 6) for k in range(1, 4)]),
    "truncated": (unified.truncated_text_lines, unified.enumerate_truncated, render_truncated_text,
                  [(n, k, i) for n in range(2, 9) for k in range(1, n) for i in range(n - k)]),
    "multilabeled": (paths.multilabeled_text_lines, paths.enumerate_multilabeled, multilabeled_word,
                     [(k, r, i) for k in range(1, 4) for r in range(5) for i in range(r + 1)]),
    "dyck": (paths.t_dyck_text_lines, paths.enumerate_t_dyck, dyck_text,
             [(paths.rational_shape(2, 3),), (paths.rational_shape(5, 7),), ((2, 0, 1, 1),),
              ((0, 2, 0, 1),), ((1, 0, 2, 1),), ((0, 0),), ((0,),), ((),)]),
}


@pytest.mark.parametrize("route, records, picture, grid", TEXT_ROUTES.values(), ids=list(TEXT_ROUTES))
def test_text_routes_draw_each_record_as_its_picture_does(route, records, picture, grid):
    """Each text route writes, in the enumerator's order, what the per-record
    picture of tests/oracles.py draws from each listed record."""
    for params in grid:
        assert list(route(*params)) == [*map(picture, records(*params))], params


@pytest.mark.parametrize("route, records, args", [
    *((gravity.text_lines, TEXT_ROUTES["gravity"][1], args) for args in [
        ("in", 2, 2), ("in", 5.0, 2), ("out", 0, 1), ("out", 3, 0), ("mcar-out", 0, 2), ("mcar-out", 3, -1)]),
    (gravity.text_lines, gravity.json_lines, ("sideways", 5, 2)),
    *((unified.truncated_text_lines, unified.enumerate_truncated, args)
      for args in [(3, 3, 0), (5, 0, 0), (5, 2, 3), (5, 2, -1), (5.0, 2, 0), (5, 2, 1.0)]),
    *((paths.multilabeled_text_lines, paths.enumerate_multilabeled, args)
      for args in [(0, 2, 1), (2, 2, 3), (2, 2, -1), (2, 2.0, 1)]),
    (paths.t_dyck_text_lines, paths.enumerate_t_dyck, ((2, -1, 1),)),
    (paths.t_dyck_text_lines, paths.enumerate_t_dyck, ((1, 1.5),)),
])
def test_text_routes_reject_what_the_enumerators_reject(route, records, args):
    """Each text route raises the record enumerator's InputError message;
    an unknown gravity kind, which no enumerator takes, the JSON route's."""
    with pytest.raises(combinat.InputError) as want:
        list(records(*args))
    with pytest.raises(combinat.InputError) as got:
        list(route(*args))
    assert str(got.value) == str(want.value)


def test_enumerate_unified(capsys):
    code, doc, _ = run_json(
        capsys, "enumerate", "unified", "--graph", "ps:n=4", "--netflow",
        "custom:[1,1,1,-3]", "--render", "json",
    )
    assert code == 0 and doc["results"]["count"] == 3
    for line in doc["results"]["items"]:
        obj = json.loads(line)
        assert set(obj) == {"shape", "sigma", "alpha", "gamma"}


def test_enumerate_too_large(capsys):
    code, _, err = run(
        capsys, "enumerate", "multilabeled", "--k", "4", "--r", "5", "--i", "1",
        "--cap", "1000",
    )
    assert code == 2 and "cap" in err


def test_enumerate_cap_at_the_item_count(capsys):
    """A listing of exactly --cap items runs; one item over the cap is
    refused with one error line."""
    argv = ["enumerate", "multilabeled", "--k", "2", "--r", "2", "--i", "1", "--cap"]
    code, doc, _ = run_json(capsys, *argv, "6")
    assert code == 0 and doc["results"]["count"] == 6
    code, out, err = run(capsys, *argv, "5")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: would emit 6 items, more than the cap 5; raise --cap"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "volume", "--graph", "caracol:n=5,k=1", "--netflow", "ones",
        "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["results"]["volume"] == 625


def test_usage_error_exits_2(capsys):
    assert cli.main(["volume"]) == 2
    assert cli.main(["no-such-command"]) == 2


def commands(parser: argparse.ArgumentParser) -> list[str]:
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def test_a_command_name_builds_only_its_parser():
    every = ["volume", "kostant", "tables", "verify", "enumerate"]
    for name in every:
        assert commands(cli.build_parser(name)) == [name]
    for other in (None, "volum", "--help", "-h"):
        assert commands(cli.build_parser(other)) == every


def test_main_runs_the_command_function_bound_when_it_is_called(capsys, monkeypatch):
    calls = []

    def spy(args):
        calls.append(args.graph)
        return cli.RunReport("kostant", {})

    monkeypatch.setattr(cli, "cmd_kostant", spy)
    assert cli.main(["kostant", "--graph", "ps:n=3", "--netflow", "unit"]) == 0
    assert calls == ["ps:n=3"]


def test_verify_all_within_budget(capsys):
    start = time.time()
    code, doc, _ = run_json(capsys, "verify", "all")
    elapsed = time.time() - start
    assert code == 0 and doc["ok"] is True
    assert elapsed < 60


# Bad inputs, each with a fragment of its one-line error message.  Exit 2 is
# the contract for an InputError; a traceback would raise out of cli.main.
BAD_INPUTS = [
    ("volume --graph ps:n=6 --netflow custom:[1,2,0,3,1,1,-8]", "must have 6 entries"),
    ("kostant --graph ps:n=4 --vector [1,-1]", "must have 4 entries"),
    ("kostant --graph ps:n=4 --vector [1,1,1,-2]", "does not sum to zero"),
    ("volume --graph edges:[] --netflow unit", "at least 2 vertices"),
    ("volume --graph ps:n=4 --netflow custom:[2,-1,1,-2]", "negative entry"),
    ("volume --graph caracol:n=5,k=2 --netflow custom:[1,1] --method closed", "6 entries"),
    # a multicaracol source entry that k does not divide is no block flow
    ("volume --graph mcar:a=3,k=2 --netflow custom:[3,1,1,1,-6] --method closed",
     "closed form needs a caracol/mcar graph with a block net flow"),
    ("enumerate gravity", "needs --n, --k"),
    # the default --cap is 10^6 items; the listing is refused before it starts
    ("enumerate gravity --n 14 --k 2", "would emit 23841480 items, more than the cap 1000000;"),
    ("enumerate dyck", "needs --a, --b"),
    ("enumerate truncated --n 6 --k 2", "needs --i"),
    ("enumerate dyck --a 4 --b 6", "not coprime"),
    ("enumerate dyck --t 1,x", "bad --t"),
    ("enumerate dyck --t 2,-1,1", "must be nonnegative"),
    # two routes to one input are refused, not resolved by a silent preference
    ("enumerate dyck --t 2,1 --a 2 --b 3", "enumerate dyck takes --t or --a, --b, not both"),
    ("kostant --graph ps:n=4 --vector [1,0,0,-1] --netflow ones",
     "kostant needs one of --vector and --netflow"),
    ("kostant --graph ps:n=4", "kostant needs one of --vector and --netflow"),
    # an empty value is a value: it is read and refused, never taken as absent
    ("enumerate dyck --t=", "bad --t ''"),
    ("enumerate dyck --t= --a 2 --b 3", "not both"),
    ("kostant --graph ps:n=4 --vector= --netflow unit", "kostant needs one of --vector and --netflow"),
    ("kostant --graph ps:n=4 --vector=", "bad vector ''"),
    ("kostant --graph ps:n=4 --netflow=", "unknown net flow spec ''"),
    ("tables parking --k 0", "k >= 1"),
    # a size that names no row, whatever the other parameters
    ("tables parking --k 0 --rmax -1", "tables parking needs --rmax >= 0, got -1"),
    ("tables gravity-counts --nmax 1", "tables gravity-counts needs --nmax >= 2, got 1"),
    ("verify simplex --simplex-k 1", "k >= 2"),
    ("verify simplex --N -1", "N >= 0"),
    ("verify orbits --n 3 --k 5", "n > k"),
    # the (1, 0)-Dyck path of caracol(2, 1) has no column composition
    ("verify bijections --n 2 --k 1", "bijections suite needs k(n-k) >= 2, got n=2, k=1"),
    # one row per shared parameter check: caracol, multicaracol, k-parking level
    ("enumerate gravity --kind in --n 3 --k 5", "needs n > k >= 1, got n=3, k=5"),
    ("enumerate gravity --kind mcar-out --n 0 --k 2", "needs a, k >= 1, got a=0, k=2"),
    ("enumerate multilabeled --k 2 --r 2 --i 3", "needs 0 <= i <= r, got i=3, r=2"),
    # truncated checks (n, k) before the level, whose r = n-k-1 the user never gave
    ("enumerate truncated --n 3 --k 3 --i 0", "needs n > k >= 1, got n=3, k=3"),
    ("volume --graph caracol:n=5 --netflow unit", "needs k"),
    ("volume --graph caracol:n=5,k=2 --netflow xy:x=1", "needs y"),
    ("kostant --graph ps:n=4 --vector [2.5,-0.5,1,-3]", "list of integers"),
    ("kostant --graph ps:n=4 --vector [true,0,0,-1]", "list of integers"),
    ("volume --graph ps:n=4 --netflow custom:[2.5,-0.5,1,-3]", "list of integers"),
    ("volume --graph edges:[(1,2),(2,3.9)] --netflow unit", "pairs of integers"),
    ("volume --graph edges:[(1,2,3)] --netflow unit", "pairs of integers"),
    ("volume --graph edges:[(1,2),(2)] --netflow unit", "pairs of integers"),
    ("tables parking --k 2 --rmax 3 --out /nonexistent/x.txt", "cannot write"),
    # an empty file name is a file that cannot be written, not an absent --out
    ("tables parking --k 1 --rmax 1 --out=", "cannot write"),
    # only tables writes csv
    ("volume --graph ps:n=4 --netflow ones --format csv", "invalid choice: 'csv'"),
    ("kostant --graph ps:n=4 --netflow ones --format csv", "invalid choice: 'csv'"),
    ("verify simplex --N 2 --format csv", "invalid choice: 'csv'"),
    ("enumerate dyck --a 2 --b 3 --format csv", "invalid choice: 'csv'"),
    # Python's int() reads digit-group underscores and a leading '+'
    ("volume --graph caracol:n=1_0,k=2 --netflow unit", "non-integer value '1_0'"),
    ("volume --graph caracol:n=+5,k=2 --netflow unit", "non-integer value '+5'"),
    ("volume --graph caracol:n=5,k=2,z=9 --netflow unit", "unknown key 'z'"),
    ("volume --graph caracol:n=4,n=5,k=2 --netflow unit", "repeated key 'n'"),
    ("volume --graph caracol:n=5,k=2 --netflow xy:x=1,y=1,q=3", "unknown key 'q'"),
    ("enumerate dyck --t 1_0,2", "bad --t"),
    ("tables parking --k 1_0", "invalid integer value: '1_0'"),
    # positions are offsets into the spec, not the first match of the text
    ("volume --graph caracol:n=c,k=2 --netflow unit", "value 'c' at position 10 in"),
    ("volume --graph caracol:n=5,k=2 --netflow xy:x=y,y=1", "value 'y' at position 5 in"),
    ("volume --graph mcar:a=3,a --netflow unit", "bad field 'a' at position 9 in"),
    # the stratified counts take x, y >= 0, as the closed forms do
    ("volume --graph caracol:n=3,k=1 --netflow xy:x=1,y=-2 --method unified",
     "need x, y >= 0, got x=1, y=-2"),
    ("volume --graph mcar:a=2,k=2 --netflow xy:x=1,y=-1 --method unified",
     "need x, y >= 0, got x=1, y=-1"),
]


def test_an_edge_list_of_int_pairs_is_a_graph(capsys):
    """Two parallel edges 1 -> 2, then 2 -> 3, and 1 -> 3: three flows of one unit."""
    code, out, _ = run(capsys, "kostant", "--graph", "edges:[(1,2),(1,2),(2,3),(1,3)]", "--vector", "[1,0,-1]")
    assert code == 0 and "kostant: 3\n" in out


@pytest.mark.parametrize("argv, message", BAD_INPUTS)
def test_bad_input_exits_2_with_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


def test_closed_stdout_exits_2_with_one_error_line():
    """A reader that has gone away is an unwritable report: one error line,
    exit 2, and no traceback or "Exception ignored" at shutdown."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the report is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flowpoly.cli", "tables", "parking"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    err = proc.stderr
    assert err.startswith("error: cannot write the report") and err.count("\n") == 1, err


def test_only_input_errors_exit_2(monkeypatch, capsys):
    """A KeyError from inside the library is a bug: it propagates."""

    def broken(g, a):
        raise KeyError("n")

    monkeypatch.setattr(lidskii, "volume", broken)
    with pytest.raises(KeyError):
        cli.main(["volume", "--graph", "ps:n=4", "--netflow", "ones"])


def test_simplex_suite_runs_at_n_0(capsys):
    """N = 0 is the smallest size: one base point, whose one block holds
    the k^0 = 1 empty word."""
    code, doc, _ = run_json(capsys, "verify", "simplex", "--N", "0", "--simplex-k", "2")
    assert code == 0 and [c["got"] for c in doc["checks"]] == [1, []]


def test_wall_time_is_the_run_in_seconds_to_6_places(capsys):
    start = time.perf_counter()
    code, doc, _ = run_json(capsys, "tables", "parking")
    assert code == 0 and 0 <= doc["wall_time"] <= time.perf_counter() - start
    report = cli.RunReport("tables", {}, wall_time=0.12345678)
    assert json.loads(report.to_json())["wall_time"] == 0.123457


def test_simplex_suite_checks_can_fail(monkeypatch, capsys):
    """Both simplex checks compare two computed values: a wrong multinomial
    breaks the block totals."""
    monkeypatch.setattr(cli.combinat, "multinomial", lambda n, d: 1)
    code, doc, _ = run_json(capsys, "verify", "simplex", "--N", "3", "--simplex-k", "2")
    assert code == 1
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["disjoint covers for all base points (N=3, k=2)"]["pass"]
    assert by_name["base points whose block totals differ from k^N"]["got"] == [
        [3, 0], [2, 1], [1, 2], [0, 3]
    ]


def plus_one(f):
    return lambda *args: f(*args) + 1


def one_fewer(f):
    """f with the last item of its listing left out."""
    return lambda *args: list(f(*args))[:-1]


def one_more(f):
    """f with one more item, (), at the end of its listing."""
    return lambda *args: [*f(*args), ()]


def last_twice(f):
    """f with the last item of its listing listed twice."""
    return lambda *args: [*(items := list(f(*args))), *items[-1:]]


def constant(value):
    return lambda f: lambda *args: value


def one_colour_changed(f):
    """f with the first colour of its first diagram moved to the next colour."""
    def listing(*args):
        first, *rest = f(*args)
        colors = (first.colors[0] % first.k + 1, *first.colors[1:])
        return [dataclasses.replace(first, colors=colors), *rest]
    return listing


def one_pair_fewer(f):
    def correspondence(ins, outs):
        pairs, unmatched = f(ins, outs)
        return pairs[:-1], unmatched
    return correspondence


def one_more_unmatched(f):
    def correspondence(ins, outs):
        pairs, unmatched = f(ins, outs)
        return pairs, [*unmatched, ins[0]]
    return correspondence


BIJECTIONS, LIDSKII = "verify bijections --n 5 --k 2", "verify lidskii"
# At least one row per report.check site of cli.py, in source order: a run,
# the route it takes that is perturbed (module, attribute, the wrapper of
# the original), and the [FAIL] line that the perturbation brings.
CHECK_SITES = [
    ("volume --graph caracol:n=5,k=2 --netflow ones --method all",
     unified, "volume_closed_form", plus_one, "lidskii = closed: expected 2800, got 2801"),
    (BIJECTIONS, gravity, "enumerate_in_gravity", one_fewer,
     "|in-gravity(5,2)|: expected 7, got 6"),
    (BIJECTIONS, gravity, "enumerate_out_gravity", one_fewer,
     "|out-gravity(5,2)|: expected 7, got 6"),
    (BIJECTIONS, gravity, "psi_in_inverse", constant(None),
     "psi_in round trip: expected True, got False"),
    (BIJECTIONS, gravity, "psi_out_inverse", constant(None),
     "psi_out round trip: expected True, got False"),
    # a path the listing leaves out is an image of both maps
    (BIJECTIONS, paths, "enumerate_t_dyck", one_fewer,
     "psi_in images are the rational Dyck paths: expected True, got False"),
    (BIJECTIONS, paths, "enumerate_t_dyck", one_fewer,
     "psi_out images are the rational Dyck paths: expected True, got False"),
    (BIJECTIONS, gravity, "in_out_correspondence", one_pair_fewer,
     "in/out correspondence size: expected 7, got 6"),
    (BIJECTIONS, gravity, "in_out_correspondence", one_more_unmatched,
     "in/out diagrams left unmatched: expected [], got "
     """['{"kind": "in", "n": 5, "k": 2, "segments": []}']"""),
    (BIJECTIONS, unified, "theta_inverse", constant(None),
     "theta round trip: expected True, got False"),
    (BIJECTIONS, paths, "enumerate_multilabeled", one_fewer,
     "theta images are the multi-labeled paths: expected True, got False"),
    (BIJECTIONS, gravity, "xi_inverse", constant(None),
     "xi round trip: expected True, got False"),
    (BIJECTIONS, gravity, "enumerate_out_gravity_mcar", one_fewer,
     "|mcar-out-gravity(3,2)|: expected 7, got 6"),
    (BIJECTIONS, gravity, "enumerate_out_gravity_mcar", one_colour_changed,
     "xi images are the mcar-out listing: expected True, got False"),
    (LIDSKII, cli, "integral_flows", one_more,
     "lattice points on caracol:n=3,k=1 at [1, 0, 0, -1]: expected 3, got (3, 3, 4)"),
    (LIDSKII, lidskii, "volume", plus_one,
     "Lidskii sweep on caracol:n=3,k=1 at [1, 0, 0, -1]: expected (1, 3, 3), got (2, 3, 3)"),
    (LIDSKII, lidskii, "lattice_points_multiset", plus_one,
     "lattice-point formulas agree with flow counts: expected True, got False"),
    (LIDSKII, lidskii, "volume", plus_one,
     "Lidskii sweep agrees with the term sum: expected True, got False"),
    # off by one at the doubled ones flow alone, the only flows with a[0] = 2
    (LIDSKII, lidskii, "volume", lambda f: lambda g, a: f(g, a) + (a[0] == 2),
     "volume homogeneity of degree m-n: expected True, got False"),
    # every block lists its last member twice, so no base point's blocks are disjoint
    ("verify simplex --N 3 --simplex-k 3", unified, "dominating_compositions", last_twice,
     "disjoint covers for all base points (N=3, k=3): expected 10, got 0"),
    ("verify simplex --N 3 --simplex-k 2", combinat, "multinomial", constant(1),
     "base points whose block totals differ from k^N: expected [], got "
     "[[3, 0], [2, 1], [1, 2], [0, 3]]"),
    ("verify orbits --n 5 --k 2", unified, "completions", plus_one,
     "orbit completion sums at level 0: expected True, got False"),
    ("verify orbits --n 5 --k 2", unified, "standardized_count_formula", plus_one,
     "standardized count at level 0: expected 449, got 448"),
    ("enumerate gravity --kind in --n 5 --k 2", gravity, "count_gravity", plus_one,
     "emitted = estimated count: expected 8, got 7"),
]


def test_a_path_left_out_of_the_dyck_listing_fails_both_image_lines(monkeypatch, capsys):
    """Both psi maps are onto the listed rational Dyck paths; the counts and
    round trips, which read no listing of paths, still pass."""
    monkeypatch.setattr(paths, "enumerate_t_dyck", one_fewer(paths.enumerate_t_dyck))
    code, out, err = run(capsys, *BIJECTIONS.split())
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
        f"[FAIL] psi_{kind} images are the rational Dyck paths: expected True, got False"
        for kind in ("in", "out")]


def one_segment_fewer(write):
    """A canonical writer that leaves out the last segment it writes."""
    return lambda *args: dataclasses.replace(d := write(*args), segments=d.segments[:-1])


# A diagram is checked when it is built, against its kind's canonical writer
# as the module bound it, so a writer with a fault writes a diagram that its
# check rejects or that is not the listed one, and a map of a listed record
# fails: a failed check as well, not the exit 2 of bad input.
WRITER_SITES = [
    (BIJECTIONS, gravity, "_in_diagram", one_segment_fewer,
     "psi_in round trip: expected True, got False"),
    (BIJECTIONS, gravity, "_out_diagram", one_segment_fewer,
     "psi_out round trip: expected True, got False"),
    (BIJECTIONS, gravity, "_mcar_diagram", one_segment_fewer,
     "xi round trip: expected True, got False"),
]


def _check_name(line: str) -> str:
    return line.split(": expected")[0]


def test_every_check_site_has_a_row():
    checks = {_check_name(line) for *_, line in CHECK_SITES}
    assert len(checks) == Path(cli.__file__).read_text().count("report.check(") == 24


def _site_ids() -> list[str]:
    """Each row's check name, with the perturbed route after a name already
    taken, then each writer fault."""
    ids = []
    for _, _, name, _, line in CHECK_SITES:
        ids.append(f"{_check_name(line)} ({name})" if _check_name(line) in ids else _check_name(line))
    return ids + [f"{name} fault" for _, _, name, *_ in WRITER_SITES]


@pytest.mark.parametrize("argv, module, name, wrap, line", CHECK_SITES + WRITER_SITES, ids=_site_ids())
def test_every_check_can_fail(monkeypatch, capsys, argv, module, name, wrap, line):
    """Each check fails on its own [FAIL] line, in one report and with
    exit 1, when one route it compares is perturbed; none of them ends in
    a traceback, which would raise out of cli.main."""
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (1, "")
    assert out.count(f"# {argv.split()[0]}\n") == 1
    assert f"[FAIL] {line}" in out.splitlines()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_2_with_one_error_line():
    """A stdout on a full device is an unwritable report: one error line,
    exit 2, and no traceback or "Exception ignored" at shutdown."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "flowpoly.cli", "tables", "parking"],
            stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    assert proc.returncode == 2
    err = proc.stderr
    assert err.startswith("error: cannot write the report") and err.count("\n") == 1, err
    assert "Exception ignored" not in err
