"""Command-line surface: volume, kostant, tables, verify, enumerate.

Every run produces a RunReport (inputs, results, named checks); --format
json emits it as one JSON document, text prints results followed by one
PASS/FAIL line per check.  Exit status: 0 on success, 1 when any check
fails, 2 on an InputError (usage errors are raised as one); any other
exception is a bug and propagates.  No randomness anywhere: identical
invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from . import combinat, gravity, lidskii, paths, unified
from . import graphs as gr
from .combinat import InputError
from .kostant import integral_flows, kostant


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    wall_time: float = 0.0

    def check(self, name: str, expected, got) -> None:
        self.checks.append(
            {"name": name, "expected": expected, "got": got, "pass": expected == got}
        )

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "inputs": self.inputs,
                "results": self.results,
                "checks": self.checks,
                "wall_time": round(self.wall_time, 6),
                "ok": self.ok,
            },
            default=str,
        )

    def to_text(self) -> str:
        lines = [f"# {self.command}"]
        for key, val in self.results.items():
            lines.append(f"{key}: {val}")
        for c in self.checks:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(
                f"[{status}] {c['name']}: expected {c['expected']}, got {c['got']}"
            )
        lines.append(f"wall_time: {self.wall_time:.3f}s")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# spec-string parsing


def integer(text: str) -> int:
    """A decimal integer: an optional '-', then ASCII digits.  int() alone
    would also read '1_0', '+5' and surrounding whitespace."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise InputError(f"{text!r} is not a decimal integer")
    return int(text)


def _parse_kv(body: str, spec: str, keys: Sequence[str]) -> tuple[int, ...]:
    """The integer values of `keys`, in order, from a "key=value,..." body
    that names each of them once and nothing else."""
    out = {}
    for field_ in body.split(",") if body else ():
        if "=" not in field_:
            raise InputError(
                f"bad field {field_!r} at position {spec.index(field_)} in {spec!r}"
            )
        key, _, val = field_.partition("=")
        key = key.strip()
        if key not in keys:
            raise InputError(f"unknown key {key!r} in {spec!r}; expected {', '.join(keys)}")
        if key in out:
            raise InputError(f"repeated key {key!r} in {spec!r}")
        try:
            out[key] = integer(val)
        except InputError:
            raise InputError(
                f"non-integer value {val!r} at position {spec.index(val)} in {spec!r}"
            ) from None
    missing = [key for key in keys if key not in out]
    if missing:
        raise InputError(f"{spec!r} needs {', '.join(missing)}")
    return tuple(out[key] for key in keys)


def _int_list(text: str, what: str, pairs: bool = False) -> tuple:
    """The JSON list `text` of integers, or with `pairs` of [i, j] integer
    pairs, as a tuple (of tuples).  Only JSON integers are accepted: int()
    would truncate 2.5 to 2 and read true as 1."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad {what}: {exc}") from None

    def ints(x) -> bool:
        return isinstance(x, list) and all(type(e) is int for e in x)

    if pairs:
        ok = isinstance(value, list) and all(ints(p) and len(p) == 2 for p in value)
    else:
        ok = ints(value)
    if not ok:
        shape = "[i, j] pairs of integers" if pairs else "integers"
        raise InputError(f"bad {what}: expected a JSON list of {shape}")
    return tuple(tuple(p) for p in value) if pairs else tuple(value)


# graph kind -> (constructor in graphs, its spec keys in argument order).
# Functions in these tables are looked up by name when called, so a
# function rebound on its module (a wrapper, a monkeypatch) is the one run.
_FAMILIES = {
    "caracol": ("caracol_k", ("n", "k")),
    "mcar": ("multicaracol", ("a", "k")),
    "ps": ("pitman_stanley", ("n",)),
    "complete": ("complete_graph", ("n",)),
}


def parse_graph_spec(spec: str) -> tuple[gr.DirectedMultigraph, tuple]:
    """Parse "caracol:n=7,k=2", "mcar:a=3,k=2", "ps:n=5", "complete:n=5" or
    "edges:[(1,2),(1,3)]"; returns the graph and its family tag."""
    kind, _, body = spec.partition(":")
    if kind == "edges":
        edges = _int_list(
            body.replace("(", "[").replace(")", "]"), f"edge list in {spec!r}", pairs=True
        )
        num = max((max(e) for e in edges), default=0)
        return gr.from_edge_list(num, edges), ("edges",)
    if kind not in _FAMILIES:
        raise InputError(f"unknown graph kind {kind!r} at position 0 in {spec!r}")
    make, keys = _FAMILIES[kind]
    params = _parse_kv(body, spec, keys)
    return getattr(gr, make)(*params), (kind, *params)


def parse_netflow_spec(
    spec: str, g: gr.DirectedMultigraph, family: tuple
) -> tuple[int, ...]:
    if spec == "unit":
        return gr.unit_flow(g)
    if spec == "ones":
        return gr.ones_flow(g)
    if spec.startswith("xy:"):
        x, y = _parse_kv(spec[3:], spec, ("x", "y"))
        if family[0] == "caracol":
            return gr.caracol_xy_flow(family[1], family[2], x, y)
        if family[0] == "mcar":
            return gr.mcar_xy_flow(family[1], family[2], x, y)
        raise InputError("xy net flows need a caracol or mcar graph")
    if spec.startswith("custom:"):
        return _int_list(spec[len("custom:"):], f"custom net flow {spec!r}")
    raise InputError(f"unknown net flow spec {spec!r} at position 0")


def _xy_parameters(family: tuple, a: tuple[int, ...]) -> tuple[int, int] | None:
    """Recover (x, y) when the net flow matches the family's block pattern."""
    if family[0] == "caracol":
        _, n, k = family
        if len(set(a[:k])) == 1 and len(set(a[k:n])) <= 1:
            return a[0], a[k]
    elif family[0] == "mcar":
        _, fam_a, k = family
        if a[0] % k == 0 and len(set(a[1 : fam_a + 1])) <= 1:
            return a[0] // k, a[1]
    return None


# ---------------------------------------------------------------------------
# volume / kostant


# volume method -> (its name in errors, {family: function in unified of
# (p, k, x, y)}), for caracol and multicaracol graphs at block net flows
_BLOCK_METHODS = {
    "unified": ("the stratified count", {"caracol": "count_unified_stratified",
                                         "mcar": "count_unified_stratified_mcar"}),
    "closed": ("closed form", {"caracol": "volume_closed_form", "mcar": "volume_closed_form_mcar"}),
}


def cmd_volume(args: argparse.Namespace) -> RunReport:
    g, family = parse_graph_spec(args.graph)
    a = gr.check_netflow(g, parse_netflow_spec(args.netflow, g, family))
    report = RunReport("volume", {"graph": args.graph, "netflow": list(a)})
    methods = {}
    if args.method in ("lidskii", "all"):
        methods["lidskii"] = lidskii.volume(g, a)
    xy = _xy_parameters(family, a)
    for method, (what, by_family) in _BLOCK_METHODS.items():
        if args.method not in (method, "all"):
            continue
        if xy is not None:
            methods[method] = getattr(unified, by_family[family[0]])(*family[1:], *xy)
        elif args.method == method:
            raise InputError(
                f"{what} needs a caracol/mcar graph with a block net flow, got {args.graph} at {list(a)}"
            )
    report.results.update(methods)
    report.results["volume"] = next(iter(methods.values()))
    if len(methods) > 1:
        base = methods["lidskii"]
        for name, val in methods.items():
            if name != "lidskii":
                report.check(f"lidskii = {name}", base, val)
    return report


def cmd_kostant(args: argparse.Namespace) -> RunReport:
    g, family = parse_graph_spec(args.graph)
    if args.vector:
        v = _int_list(args.vector, f"vector {args.vector!r}")
    elif args.netflow:
        v = parse_netflow_spec(args.netflow, g, family)
    else:
        raise InputError("kostant needs --vector or --netflow")
    report = RunReport("kostant", {"graph": args.graph, "vector": list(v)})
    report.results["kostant"] = kostant(g, v)
    return report


# ---------------------------------------------------------------------------
# tables


def cmd_tables(args: argparse.Namespace) -> RunReport:
    report = RunReport("tables", {"kind": args.kind})
    if args.kind == "parking":
        k, rmax = args.k, args.rmax
        rows = [
            [combinat.k_parking_number(k, r, i) for i in range(r + 1)]
            for r in range(rmax + 1)
        ]
        report.inputs.update({"k": k, "rmax": rmax})
        report.results["rows"] = rows
        report.results["rendered"] = _render_table(
            rows, f"{k}-parking triangle", args.format
        )
    else:
        nmax = args.nmax
        rows = []
        for n in range(2, nmax + 1):
            rows.append([gravity.count_gravity(n, k) for k in range(1, n)])
        report.inputs.update({"family": args.family, "nmax": nmax})
        report.results["rows"] = rows
        report.results["rendered"] = _render_table(
            rows, "gravity-diagram counts (rows n=2.., columns k=1..)", args.format
        )
    return report


def _render_table(rows: list[list[int]], title: str, fmt: str) -> str:
    if fmt == "csv":
        return "\n".join(",".join(str(v) for v in row) for row in rows)
    if fmt == "json":
        return json.dumps(rows)
    width = max((len(str(v)) for row in rows for v in row), default=1)
    lines = [title]
    for r, row in enumerate(rows):
        lines.append(" ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verification suites


def _suite_bijections(report: RunReport, n: int, k: int) -> None:
    count = gravity.count_gravity(n, k)
    ins = list(gravity.enumerate_in_gravity(n, k))
    outs = list(gravity.enumerate_out_gravity(n, k))
    report.check(f"|in-gravity({n},{k})|", count, len(ins))
    report.check(f"|out-gravity({n},{k})|", count, len(outs))
    report.check(
        "psi_in round trip",
        True,
        all(gravity.psi_in_inverse(gravity.psi_in(d), n, k) == d for d in ins),
    )
    report.check(
        "psi_out round trip",
        True,
        all(gravity.psi_out_inverse(gravity.psi_out(d), n, k) == d for d in outs),
    )
    report.check(
        "in/out correspondence size", count, len(gravity.in_out_correspondence(n, k))
    )
    r = n - k - 1
    theta_ok = True
    for i in range(r + 1):
        for u in unified.enumerate_truncated(n, k, i):
            if unified.theta_inverse(unified.theta(u), n, k) != u:
                theta_ok = False
    report.check("theta round trip", True, theta_ok)
    a = n - k
    mcar_diagrams = list(gravity.enumerate_out_gravity_mcar(a, k))
    xi_ok = all(gravity.xi_inverse(gravity.xi(d)) == d for d in outs)
    report.check("xi round trip", True, xi_ok)
    report.check(f"|mcar-out-gravity({a},{k})|", count, len(mcar_diagrams))


def _small_zoo() -> list[tuple[str, gr.DirectedMultigraph]]:
    zoo = []
    for n, k in [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2)]:
        zoo.append((f"caracol:n={n},k={k}", gr.caracol_k(n, k)))
    for n in (3, 4, 5):
        zoo.append((f"ps:n={n}", gr.pitman_stanley(n)))
    for n in (2, 3, 4):
        zoo.append((f"complete:n={n}", gr.complete_graph(n)))
    for a, k in [(2, 1), (2, 2), (3, 2)]:
        zoo.append((f"mcar:a={a},k={k}", gr.multicaracol(a, k)))
    return zoo


def _suite_lidskii(report: RunReport, entries: int) -> None:
    zoo = _small_zoo()
    flows_ok = True
    for name, g in zoo:
        flows = [gr.unit_flow(g), gr.ones_flow(g)]
        two = tuple(min(2, 1 + (v % 2)) for v in range(g.n))
        flows.append(two + (-sum(two),))
        for a in flows[:entries]:
            want = kostant(g, a)
            got_b = lidskii.lattice_points_binomial(g, a)
            got_m = lidskii.lattice_points_multiset(g, a)
            got_f = sum(1 for _ in integral_flows(g, a))
            if not (want == got_b == got_m == got_f):
                flows_ok = False
                report.check(f"lattice points on {name} at {list(a)}", want, (got_b, got_m, got_f))
    report.check("lattice-point formulas agree with flow counts", True, flows_ok)
    hom_ok = True
    for name, g in zoo[:6]:
        base = lidskii.volume(g, gr.ones_flow(g))
        d = g.num_edges - g.n
        for c in (2, 3):
            scaled = tuple(c * v for v in gr.ones_flow(g))
            if lidskii.volume(g, scaled) != c**d * base:
                hom_ok = False
    report.check("volume homogeneity of degree m-n", True, hom_ok)


def _suite_simplex(report: RunReport, total: int, k: int) -> None:
    if total < 0 or k < 2:
        raise InputError(f"the simplex suite needs N >= 0 and k >= 2, got N={total}, k={k}")
    count, off = 0, []
    for c0 in combinat.weak_compositions(total, k):
        blocks = unified.simplex_partition(c0)  # asserts a disjoint full cover
        got = sum(
            combinat.multinomial(total, d) for _, members in blocks for d in members
        )
        if got != k**total:
            off.append(list(c0))
        count += 1
    covers = f"disjoint covers for all base points (N={total}, k={k})"
    report.check(covers, combinat.binomial(total + k - 1, k - 1), count)
    report.check("base points whose block totals differ from k^N", [], off)


def _suite_orbits(report: RunReport, n: int, k: int) -> None:
    m = gr.caracol_k(n, k).num_edges  # rejects n <= k, which would run no check
    for i in range(n - k):
        orbits = unified.truncated_orbits(n, k, i)
        ok = True
        for orbit in orbits:
            got = sum(unified.completions(u) for u in orbit)
            if k > 1 and got * k != len(orbit) * k ** (m - n - i):
                ok = False
            if k == 1 and got != len(orbit):
                ok = False
        report.check(f"orbit completion sums at level {i}", True, ok)
        report.check(
            f"standardized count at level {i}",
            unified.standardized_count_formula(n, k, i),
            unified.standardized_count(n, k, i),
        )


def cmd_verify(args: argparse.Namespace) -> RunReport:
    report = RunReport("verify", {"suite": args.suite})
    if args.suite in ("bijections", "all"):
        _suite_bijections(report, args.n, args.k)
    if args.suite in ("lidskii", "all"):
        _suite_lidskii(report, entries=3)
    if args.suite in ("simplex", "all"):
        _suite_simplex(report, args.N, args.simplex_k)
    if args.suite in ("orbits", "all"):
        _suite_orbits(report, args.orbit_n if args.suite == "all" else args.n, args.orbit_k if args.suite == "all" else args.k)
    return report


# ---------------------------------------------------------------------------
# enumeration


# the options each object needs; dyck takes --t in place of --a and --b
_ENUMERATE_NEEDS = {
    "gravity": ("n", "k"),
    "dyck": ("a", "b"),
    "multilabeled": ("k", "r", "i"),
    "truncated": ("n", "k", "i"),
    "unified": ("graph", "netflow"),
}


def cmd_enumerate(args: argparse.Namespace) -> RunReport:
    needs = () if args.object == "dyck" and args.t else _ENUMERATE_NEEDS[args.object]
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise InputError(f"enumerate {args.object} needs {', '.join(missing)}")
    report = RunReport("enumerate", {"object": args.object})
    items: Iterator
    estimated: int
    to_text: Callable = str
    to_json_line: Callable = str

    if args.object == "gravity":
        n, k = args.n, args.k
        if args.kind == "in":
            items = gravity.enumerate_in_gravity(n, k)
        elif args.kind == "out":
            items = gravity.enumerate_out_gravity(n, k)
        else:
            items = gravity.enumerate_out_gravity_mcar(n, k)
        estimated = gravity.count_gravity(n + k, k) if args.kind == "mcar-out" else gravity.count_gravity(n, k)
        to_text = gravity.render_text
        to_json_line = lambda d: d.to_json()
        report.inputs.update({"kind": args.kind, "n": n, "k": k})
    elif args.object == "dyck":
        if args.t:
            try:
                t = tuple(integer(x) for x in args.t.split(","))
            except InputError:
                raise InputError(f"bad --t {args.t!r}: expected comma-separated integers") from None
        else:
            t = paths.rational_shape(args.a, args.b)
        items = paths.enumerate_t_dyck(t)
        estimated = combinat.count_dominating(t)
        to_text = lambda p: f"{p.word()}  shape={p.shape}"
        to_json_line = lambda p: p.to_json()
        report.inputs.update({"t": list(t)})
    elif args.object == "multilabeled":
        k, r, i = args.k, args.r, args.i
        items = paths.enumerate_multilabeled(k, r, i)
        estimated = combinat.k_parking_number(k, r, i)
        to_text = lambda m: m.word()
        to_json_line = lambda m: m.to_json()
        report.inputs.update({"k": k, "r": r, "i": i})
    elif args.object == "truncated":
        n, k, i = args.n, args.k, args.i
        items = unified.enumerate_truncated(n, k, i)
        estimated = combinat.k_parking_number(k, n - k - 1, i)
        to_text = unified.render_truncated_text
        to_json_line = lambda u: u.to_json()
        report.inputs.update({"n": n, "k": k, "i": i})
    else:  # unified
        g, family = parse_graph_spec(args.graph)
        a = parse_netflow_spec(args.netflow, g, family)
        items = unified.unified_diagrams(g, a)
        estimated = lidskii.volume(g, a)
        to_text = lambda q: f"s={q[0]} sigma={q[1]} alpha={q[2]} flow={q[3]}"
        to_json_line = lambda q: json.dumps(
            {"shape": q[0], "sigma": q[1], "alpha": q[2], "gamma": q[3]},
            default=list,
        )
        report.inputs.update({"graph": args.graph, "netflow": list(a)})

    if estimated > args.cap:
        raise InputError(
            f"would emit {estimated} items, more than the cap {args.cap}; raise --cap"
        )
    render = to_json_line if args.render == "json" else to_text
    emitted = [render(x) for x in items]
    report.results["count"] = len(emitted)
    report.results["items"] = emitted
    report.check("emitted = estimated count", estimated, len(emitted))
    return report


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as an InputError, so that it too ends in one
    `error:` line and exit 2."""

    def error(self, message: str):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flowpoly",
        description="Exact flow-polytope volumes and the caracol-family combinatorial model",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument(
        "--out", metavar="FILE", help="write the report here instead of stdout"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vol = sub.add_parser(
        "volume", parents=[common], help="normalized volume of a flow polytope"
    )
    p_vol.add_argument("--graph", required=True)
    p_vol.add_argument("--netflow", required=True)
    p_vol.add_argument(
        "--method", choices=("lidskii", "unified", "closed", "all"), default="lidskii"
    )
    p_vol.set_defaults(func=cmd_volume)

    p_kos = sub.add_parser("kostant", parents=[common], help="evaluate the Kostant partition function")
    p_kos.add_argument("--graph", required=True)
    p_kos.add_argument("--vector", help="JSON list summing to zero")
    p_kos.add_argument("--netflow")
    p_kos.set_defaults(func=cmd_kostant)

    p_tab = sub.add_parser("tables", parents=[common], help="k-parking triangles and count tables")
    p_tab.add_argument("kind", choices=("parking", "gravity-counts"))
    p_tab.add_argument("--k", type=integer, default=2)
    p_tab.add_argument("--rmax", type=integer, default=5)
    p_tab.add_argument("--nmax", type=integer, default=7)
    p_tab.add_argument("--family", choices=("caracol",), default="caracol")
    p_tab.set_defaults(func=cmd_tables)

    p_ver = sub.add_parser("verify", parents=[common], help="run invariant suites at desk scale")
    p_ver.add_argument(
        "suite", choices=("bijections", "lidskii", "simplex", "orbits", "all")
    )
    p_ver.add_argument("--n", type=integer, default=6)
    p_ver.add_argument("--k", type=integer, default=2)
    p_ver.add_argument("--N", type=integer, default=6)
    p_ver.add_argument("--simplex-k", type=integer, default=3)
    p_ver.add_argument("--orbit-n", type=integer, default=5)
    p_ver.add_argument("--orbit-k", type=integer, default=2)
    p_ver.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", parents=[common], help="stream combinatorial objects")
    p_enum.add_argument(
        "object", choices=("gravity", "dyck", "unified", "truncated", "multilabeled")
    )
    p_enum.add_argument("--kind", choices=("in", "out", "mcar-out"), default="out")
    p_enum.add_argument("--n", type=integer)
    p_enum.add_argument("--k", type=integer)
    p_enum.add_argument("--r", type=integer)
    p_enum.add_argument("--i", type=integer)
    p_enum.add_argument("--a", type=integer)
    p_enum.add_argument("--b", type=integer)
    p_enum.add_argument("--t", help="comma-separated reference shape")
    p_enum.add_argument("--graph")
    p_enum.add_argument("--netflow")
    p_enum.add_argument("--render", choices=("text", "json"), default="text")
    p_enum.add_argument("--cap", type=integer, default=10**6)
    p_enum.set_defaults(func=cmd_enumerate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        start = time.perf_counter()
        report = args.func(args)
    except SystemExit:  # --help has printed its text
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_time = time.perf_counter() - start

    if args.format == "json":
        payload = report.to_json()
    elif args.format == "csv" and "rendered" in report.results:
        payload = report.results["rendered"]
    else:
        if "rendered" in report.results:
            body = report.results.pop("rendered")
            payload = report.to_text() + "\n" + body
        elif "items" in report.results:
            items = report.results.pop("items")
            payload = "\n".join(items + [report.to_text()])
        else:
            payload = report.to_text()

    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    else:
        print(payload)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
