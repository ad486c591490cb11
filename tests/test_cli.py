"""Command-line behaviour: reports, exit codes, and JSON round trips."""
from __future__ import annotations

import json

import pytest

from flowpoly import cli, lidskii
from flowpoly.gravity import GravityDiagram
from flowpoly.paths import MultiLabeledDyckPath, TDyckPath
from flowpoly.unified import TruncatedDiagram


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


def test_volume_xy_netflow(capsys):
    code, doc, _ = run_json(
        capsys, "volume", "--graph", "caracol:n=5,k=2", "--netflow", "xy:x=1,y=0",
        "--method", "all",
    )
    assert code == 0 and doc["results"]["volume"] == 448


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


def test_verify_suites_exit_zero(capsys):
    for suite in ("bijections", "lidskii", "simplex", "orbits", "all"):
        code, doc, _ = run_json(capsys, "verify", suite, "--n", "5", "--k", "2")
        assert code == 0, suite
        assert doc["ok"] is True
        assert doc["checks"]


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
        d = GravityDiagram.from_json(line)
        assert GravityDiagram.from_json(d.to_json()) == d


def test_enumerate_multilabeled(capsys):
    code, doc, _ = run_json(
        capsys, "enumerate", "multilabeled", "--k", "3", "--r", "3", "--i", "2",
        "--render", "json",
    )
    assert code == 0 and doc["results"]["count"] == 48
    for line in doc["results"]["items"]:
        m = MultiLabeledDyckPath.from_json(line)
        assert MultiLabeledDyckPath.from_json(m.to_json()) == m


def test_enumerate_truncated(capsys):
    code, doc, _ = run_json(
        capsys, "enumerate", "truncated", "--n", "5", "--k", "2", "--i", "0",
        "--render", "json",
    )
    assert code == 0 and doc["results"]["count"] == 7
    for line in doc["results"]["items"]:
        u = TruncatedDiagram.from_json(line)
        assert TruncatedDiagram.from_json(u.to_json()) == u


def test_enumerate_dyck(capsys):
    code, doc, _ = run_json(
        capsys, "enumerate", "dyck", "--a", "3", "--b", "5", "--render", "json"
    )
    assert code == 0 and doc["results"]["count"] == 7
    for line in doc["results"]["items"]:
        p = TDyckPath.from_json(line)
        assert TDyckPath.from_json(p.to_json()) == p


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


def test_verify_all_within_budget(capsys):
    import time

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
    ("enumerate gravity", "needs --n, --k"),
    ("enumerate dyck", "needs --a, --b"),
    ("enumerate truncated --n 6 --k 2", "needs --i"),
    ("enumerate dyck --a 4 --b 6", "not coprime"),
    ("enumerate dyck --t 1,x", "bad --t"),
    ("tables parking --k 0", "k >= 1"),
    ("verify simplex --simplex-k 1", "k >= 2"),
    ("verify orbits --n 3 --k 5", "n > k"),
    ("volume --graph caracol:n=5 --netflow unit", "needs k"),
    ("volume --graph caracol:n=5,k=2 --netflow xy:x=1", "needs y"),
    ("kostant --graph ps:n=4 --vector [2.5,-0.5,1,-3]", "list of integers"),
    ("kostant --graph ps:n=4 --vector [true,0,0,-1]", "list of integers"),
    ("volume --graph ps:n=4 --netflow custom:[2.5,-0.5,1,-3]", "list of integers"),
    ("volume --graph edges:[(1,2),(2,3.9)] --netflow unit", "pairs of integers"),
    ("tables parking --k 2 --rmax 3 --out /nonexistent/x.txt", "cannot write"),
    # Python's int() reads digit-group underscores and a leading '+'
    ("volume --graph caracol:n=1_0,k=2 --netflow unit", "non-integer value '1_0'"),
    ("volume --graph caracol:n=+5,k=2 --netflow unit", "non-integer value '+5'"),
    ("volume --graph caracol:n=5,k=2,z=9 --netflow unit", "unknown key 'z'"),
    ("volume --graph caracol:n=4,n=5,k=2 --netflow unit", "repeated key 'n'"),
    ("volume --graph caracol:n=5,k=2 --netflow xy:x=1,y=1,q=3", "unknown key 'q'"),
    ("enumerate dyck --t 1_0,2", "bad --t"),
    ("tables parking --k 1_0", "invalid integer value: '1_0'"),
]


@pytest.mark.parametrize("argv, message", BAD_INPUTS)
def test_bad_input_exits_2_with_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


def test_only_input_errors_exit_2(monkeypatch, capsys):
    """A KeyError from inside the library is a bug: it propagates."""

    def broken(g, a):
        raise KeyError("n")

    monkeypatch.setattr(lidskii, "volume", broken)
    with pytest.raises(KeyError):
        cli.main(["volume", "--graph", "ps:n=4", "--netflow", "ones"])


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
