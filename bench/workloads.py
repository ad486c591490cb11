"""The benchmark's three workloads and the independent check of every job.

A pass is one closed-loop sweep over a workload's whole pool: every pool
entry appears a fixed number of times, with its free parameters (net
flows, table sizes) and the order drawn from the pass's own
`random.Random`.  A pass therefore costs about the same at every seed,
which keeps runs at different seeds comparable, while the program still
sees different inputs.

Jobs are planned as plain data before flowpoly is imported.  `prepare`
runs inside the timed set-up and builds whatever the job needs from the
freshly imported package: graphs, Kostant vectors, argv lists.  `check`
runs after the job, outside its timing, and compares the job's value with
a route that does not go through the code being timed.
"""
from __future__ import annotations

import importlib
import json
import math
import random
from fractions import Fraction


def lib(module: str, name: str):
    """flowpoly.<module>.<name> from the currently imported package."""
    return getattr(importlib.import_module(f"flowpoly.{module}"), name)


def graph_spec(family: tuple) -> str:
    kind, *p = family
    if kind == "caracol":
        return f"caracol:n={p[0]},k={p[1]}"
    if kind == "mcar":
        return f"mcar:a={p[0]},k={p[1]}"
    return f"{kind}:n={p[0]}"


def build_graph(family: tuple, graphs: dict):
    """Build a graph through the public constructors, once per set-up."""
    if family not in graphs:
        kind, *p = family
        make = {
            "caracol": "caracol_k",
            "mcar": "multicaracol",
            "ps": "pitman_stanley",
            "complete": "complete_graph",
        }[kind]
        graphs[family] = getattr(importlib.import_module("flowpoly"), make)(*p)
    return graphs[family]


def closed_form_volume(family: tuple, x: int, y: int) -> int:
    kind, p, k = family
    if kind == "caracol":
        return lib("unified", "volume_closed_form")(p, k, x, y)
    return lib("unified", "volume_closed_form_mcar")(p, k, x, y)


def report_of(out) -> tuple[dict | None, str | None]:
    """Parse a `--format json` run report; (report, error)."""
    code, stdout = out
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, f"exit {code}, unparseable report: {exc}"
    if code != 0 or not report.get("ok"):
        return None, f"exit {code}, ok={report.get('ok')}"
    return report, None


def mismatch(expected, got) -> str | None:
    return None if expected == got else f"expected {expected}, got {got}"


# ---------------------------------------------------------------------------
# job kinds


class Job:
    """One closed-loop request: a CLI argv, or a public library call."""

    argv: list[str] | None = None
    func: str | None = None
    args: tuple = ()

    def prepare(self, graphs: dict) -> None:
        pass

    def check(self, out) -> str | None:
        raise NotImplementedError


class VolumeJob(Job):
    """`volume` at an xy block flow, checked against the closed form."""

    def __init__(self, family: tuple, x: int, y: int, method: str):
        self.family, self.x, self.y = family, x, y
        self.label = f"volume {method} {graph_spec(family)}"
        self.argv = [
            "volume", "--graph", graph_spec(family), "--netflow",
            f"xy:x={x},y={y}", "--method", method, "--format", "json",
        ]

    def check(self, out):
        report, err = report_of(out)
        if err:
            return err
        want = closed_form_volume(self.family, self.x, self.y)
        return mismatch(want, report["results"]["volume"])


class LatticeJob(Job):
    """A Lidskii lattice-point formula, checked against K_G(a) directly."""

    def __init__(self, form: str, family: tuple, a: tuple[int, ...]):
        self.family, self.a = family, a
        self.func = f"lattice_points_{form}"
        self.label = f"{self.func} {graph_spec(family)}"

    def prepare(self, graphs):
        self.args = (build_graph(self.family, graphs), self.a)

    def check(self, out):
        return mismatch(lib("kostant", "kostant")(*self.args), out)


class KostantJob(Job):
    """`kostant --vector` at v_out or v_in, checked against the unit-flow
    volume: Cat(n-k, k(n-k)-1) on caracol(n, k), and the Chan-Robbins-Yuen
    product Cat(1)...Cat(n-2) on complete(n)."""

    def __init__(self, family: tuple, vector: str):
        self.family, self.vector = family, vector
        self.label = f"kostant {vector} {graph_spec(family)}"

    def prepare(self, graphs):
        g = build_graph(self.family, graphs)
        v = getattr(importlib.import_module("flowpoly"), self.vector)(g)
        self.argv = [
            "kostant", "--graph", graph_spec(self.family),
            "--vector", json.dumps(list(v)), "--format", "json",
        ]

    def check(self, out):
        report, err = report_of(out)
        if err:
            return err
        if self.family[0] == "caracol":
            _, n, k = self.family
            want = lib("combinat", "rational_catalan")(n - k, k * (n - k) - 1)
        else:
            n = self.family[1]
            want = math.prod(lib("combinat", "catalan")(i) for i in range(1, n - 1))
        return mismatch(want, report["results"]["kostant"])


class EnumerateJob(Job):
    """`enumerate ... --render json`: one JSON object per line, then the text
    report.  Checked by parsing every line, counting distinct objects and
    comparing with an independent count."""

    def __init__(self, argv: list[str], count: tuple):
        self.argv = ["enumerate", *argv, "--render", "json"]
        self.count = count  # (module, function, args) of the expected count
        self.label = " ".join(self.argv)

    def check(self, out):
        code, stdout = out
        if code != 0:
            return f"exit {code}"
        lines = stdout.splitlines()
        items = lines[: lines.index("# enumerate")]
        try:
            for line in items:
                json.loads(line)
        except json.JSONDecodeError as exc:
            return f"unparseable item: {exc}"
        module, name, args = self.count
        want = lib(module, name)(*args)
        return mismatch((want, want), (len(items), len(set(items))))


class VerifyJob(Job):
    """`verify <suite>`: the report must pass every check with exit 0."""

    def __init__(self, argv: list[str]):
        self.argv = ["verify", *argv, "--format", "json"]
        self.label = " ".join(self.argv)

    def check(self, out):
        return report_of(out)[1]


def parking(k: int, r: int, i: int) -> int:
    """T_k(r, i) = (r+1)^(i-1) C(k(r+1)+r-i-1, r-i), computed here from math.comb."""
    value = Fraction(r + 1) ** (i - 1) * math.comb(k * (r + 1) + r - i - 1, r - i)
    if value.denominator != 1:
        raise ArithmeticError(f"T_{k}({r},{i}) = {value} is not an integer")
    return int(value)


def gravity_count(n: int, k: int) -> int:
    """Cat(n-k, k(n-k)-1) from math.comb, 1 when the second index is < 1."""
    a, b = n - k, k * (n - k) - 1
    if b < 1:
        return 1
    q, r = divmod(math.comb(a + b, a), a + b)
    if r:
        raise ArithmeticError(f"Cat({a},{b}) is not an integer")
    return q


class TablesJob(Job):
    """`tables`, checked entry by entry against formulas evaluated here."""

    def __init__(self, kind: str, k: int, size: int):
        self.kind, self.k, self.size = kind, k, size
        self.label = f"tables {kind}"
        if kind == "parking":
            opts = ["--k", str(k), "--rmax", str(size)]
        else:
            opts = ["--nmax", str(size)]
        self.argv = ["tables", kind, *opts, "--format", "json"]

    def check(self, out):
        report, err = report_of(out)
        if err:
            return err
        if self.kind == "parking":
            want = [
                [parking(self.k, r, i) for i in range(r + 1)]
                for r in range(self.size + 1)
            ]
        else:
            want = [
                [gravity_count(n, k) for k in range(1, n)]
                for n in range(2, self.size + 1)
            ]
        return mismatch(want, report["results"]["rows"])


# ---------------------------------------------------------------------------
# workloads


def random_netflow(rng: random.Random, entries: int) -> tuple[int, ...]:
    a = tuple(rng.randint(0, 3) for _ in range(entries))
    return a + (-sum(a),)


def plan_lidskii_sweep(rng: random.Random) -> list[Job]:
    """Many net flows on seven mid-size graphs; K(s-t) is shared by every job
    on one graph, whatever its flow.

    The counts place the quantiles inside groups of similar jobs: the 12
    fastest lattice jobs and the 12 slowest volumes flank 13 jobs of 40 to
    50 ms, so the median falls in the middle of those, and the 8 volumes
    of caracol(7,2) hold the 90th percentile."""
    jobs: list[Job] = []
    for family, count in [
        (("caracol", 7, 2), 8), (("caracol", 7, 5), 4),
        (("mcar", 6, 2), 4), (("mcar", 6, 3), 4),
    ]:
        for _ in range(count):
            jobs.append(VolumeJob(family, rng.randint(1, 6), rng.randint(1, 6), "lidskii"))
    for family, vertices in [
        (("caracol", 6, 3), 7), (("caracol", 7, 2), 8),
        (("ps", 8), 8), (("complete", 6), 7),
    ]:
        for form in ("binomial", "multiset"):
            for _ in range(2):
                jobs.append(LatticeJob(form, family, random_netflow(rng, vertices - 1)))
    jobs.append(VerifyJob(["lidskii"]))
    rng.shuffle(jobs)
    return jobs


def plan_kostant_single(rng: random.Random) -> list[Job]:
    """One Kostant evaluation per job, each (graph, vector) pair once."""
    families = [("caracol", n, k) for n in (8, 9, 10) for k in range(1, n - 2)]
    families += [("complete", n) for n in (6, 7, 8)]
    jobs: list[Job] = [KostantJob(f, v) for f in families for v in ("v_out", "v_in")]
    # v_in alone on caracol(11, k): its v_out takes seconds.  The 45 jobs
    # put the median and the 90th percentile mid-way into one job's samples.
    jobs += [KostantJob(("caracol", 11, k), "v_in") for k in (2, 3, 4)]
    rng.shuffle(jobs)
    return jobs


def plan_enumerate_verify(rng: random.Random) -> list[Job]:
    """Enumerations with 10^2..2*10^4 objects, invariant suites, tables and
    the stratified volume; Kostant is not on any of these paths.  The 35 jobs
    put the median and the 90th percentile mid-way into one job's samples."""
    jobs: list[Job] = []
    for n, k in [(9, 2), (9, 3), (10, 2)]:
        for kind in ("in", "out"):
            argv = ["gravity", "--kind", kind, "--n", str(n), "--k", str(k)]
            jobs.append(EnumerateJob(argv, ("gravity", "count_gravity", (n, k))))
    for a, k in [(5, 3), (6, 2)]:
        argv = ["gravity", "--kind", "mcar-out", "--n", str(a), "--k", str(k)]
        jobs.append(EnumerateJob(argv, ("gravity", "count_gravity", (a + k, k))))
    for n, k, i in [(8, 2, 1), (8, 2, 2), (8, 2, 3), (8, 3, 2)]:
        argv = ["truncated", "--n", str(n), "--k", str(k), "--i", str(i)]
        jobs.append(EnumerateJob(argv, ("combinat", "k_parking_number", (k, n - k - 1, i))))
    for k, r, i in [(3, 4, 3), (4, 4, 2), (2, 5, 2), (2, 5, 3), (2, 5, 4)]:
        argv = ["multilabeled", "--k", str(k), "--r", str(r), "--i", str(i)]
        jobs.append(EnumerateJob(argv, ("combinat", "k_parking_number", (k, r, i))))
    for a, b in [(7, 11), (8, 9), (8, 11), (9, 10), (7, 13)]:
        argv = ["dyck", "--a", str(a), "--b", str(b)]
        jobs.append(EnumerateJob(argv, ("combinat", "rational_catalan", (a, b))))
    for suite, n, k in [
        ("bijections", 6, 2), ("bijections", 6, 3), ("bijections", 7, 2),
        ("orbits", 6, 2), ("orbits", 6, 3),
    ]:
        jobs.append(VerifyJob([suite, "--n", str(n), "--k", str(k)]))
    for big_n, k in [(6, 3), (5, 4)]:
        jobs.append(VerifyJob(["simplex", "--N", str(big_n), "--simplex-k", str(k)]))
    jobs.append(TablesJob("parking", rng.randint(2, 4), rng.randint(6, 9)))
    jobs.append(TablesJob("gravity-counts", 0, rng.randint(7, 10)))
    for family in [("caracol", 7, 2), ("caracol", 7, 3), ("caracol", 8, 2), ("mcar", 6, 3)]:
        jobs.append(VolumeJob(family, rng.randint(1, 6), rng.randint(1, 6), "unified"))
    rng.shuffle(jobs)
    return jobs


# name -> (planner, functions a traced pass must reach at least once)
WORKLOADS = {
    "lidskii-sweep": (
        plan_lidskii_sweep,
        [
            "cli.main", "lidskii.volume", "lidskii.lattice_points_binomial",
            "lidskii.lattice_points_multiset", "kostant.kostant",
            "kostant.integral_flows", "combinat.dominating_compositions",
            "graphs.caracol_k", "graphs.multicaracol",
            "graphs.pitman_stanley", "graphs.complete_graph",
        ],
    ),
    "kostant-single": (
        plan_kostant_single,
        ["cli.main", "kostant.kostant", "graphs.caracol_k", "graphs.complete_graph"],
    ),
    "enumerate-verify": (
        plan_enumerate_verify,
        [
            "cli.main", "gravity.enumerate_in_gravity", "gravity.enumerate_out_gravity",
            "gravity.enumerate_out_gravity_mcar", "gravity.psi_in",
            "unified.enumerate_truncated", "unified.count_unified_stratified",
            "unified.simplex_partition", "paths.enumerate_multilabeled",
            "paths.enumerate_t_dyck", "combinat.k_parking_number",
        ],
    ),
}
