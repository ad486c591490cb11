"""Command-line surface: volume, kostant, tables, verify, enumerate.

Every run produces a RunReport (inputs, results, named checks); --format
json emits it as one JSON document, text prints results followed by one
PASS/FAIL line per check, inside the lines the command adds (enumerated
items before, a table after); `tables` alone takes --format csv, the bare
table.  Exit status: 0 on success, 1 when any check fails, 2 on an
InputError (usage errors are raised as one); any other exception is a bug
and propagates.  No randomness anywhere: identical invocations produce
identical bytes.

Each graph family (_FAMILIES), volume method (_METHODS), gravity kind
(_GRAVITY_KINDS), enumerable object (_OBJECTS), verify suite (_SUITES) and
command (_COMMANDS) is one table row, and the parser's choices are the
table keys.  Rows name library functions by module attribute, looked up
when called, so a function rebound on its module (a wrapper, a
monkeypatch) is the one run.  main() builds the parser of the named
command only.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

from . import combinat, gravity, lidskii, paths, unified
from . import graphs as gr
from .combinat import InputError, all_ints
from .kostant import integral_flows, kostant


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    wall_time: float = 0.0
    # the text payload made from to_text() once the run is timed; JSON ignores it
    layout: Callable[[str], str] = lambda summary: summary

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
            }
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


def _parse_kv(spec: str, start: int, keys: Sequence[str]) -> tuple[int, ...]:
    """The integer values of `keys`, in order, from the "key=value,..."
    body spec[start:], which names each of them once and nothing else.
    Error positions are offsets into spec."""
    out = {}
    body = spec[start:]
    pos = start
    for field_ in body.split(",") if body else ():
        if "=" not in field_:
            raise InputError(f"bad field {field_!r} at position {pos} in {spec!r}")
        key, _, val = field_.partition("=")
        key = key.strip()
        if key not in keys:
            raise InputError(f"unknown key {key!r} in {spec!r}; expected {', '.join(keys)}")
        if key in out:
            raise InputError(f"repeated key {key!r} in {spec!r}")
        try:
            out[key] = integer(val)
        except InputError:
            at = pos + field_.index("=") + 1
            raise InputError(f"non-integer value {val!r} at position {at} in {spec!r}") from None
        pos += len(field_) + 1
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
    if pairs:
        ok = isinstance(value, list) and all(isinstance(p, list) and len(p) == 2 and all_ints(p) for p in value)
    else:
        ok = isinstance(value, list) and all_ints(value)
    if not ok:
        shape = "[i, j] pairs of integers" if pairs else "integers"
        raise InputError(f"bad {what}: expected a JSON list of {shape}")
    return tuple(tuple(p) for p in value) if pairs else tuple(value)


class _Family(NamedTuple):
    """The last four fields are set for families with a block net flow."""

    make: str  # constructor in graphs
    keys: tuple[str, ...]  # spec keys, in the constructor's argument order
    xy_flow: str | None = None  # the block net flow at (*params, x, y), in graphs
    read_xy: Callable | None = None  # (*params, a) -> the one candidate (x, y)
    unified: str | None = None  # the stratified count at (*params, x, y), in unified
    closed: str | None = None  # the closed-form volume at (*params, x, y), in unified


_FAMILIES = {
    "caracol": _Family("caracol_k", ("n", "k"), "caracol_xy_flow", lambda n, k, a: (a[0], a[k]),
                       "count_unified_stratified", "volume_closed_form"),
    "mcar": _Family("multicaracol", ("a", "k"), "mcar_xy_flow", lambda _, k, a: (a[0] // k, a[1]),
                    "count_unified_stratified_mcar", "volume_closed_form_mcar"),
    "ps": _Family("pitman_stanley", ("n",)),
    "complete": _Family("complete_graph", ("n",)),
}
_XY_KINDS = [kind for kind, row in _FAMILIES.items() if row.xy_flow]


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
    row = _FAMILIES[kind]
    params = _parse_kv(spec, len(kind) + 1, row.keys)
    return getattr(gr, row.make)(*params), (kind, *params)


def parse_netflow_spec(spec: str, g: gr.DirectedMultigraph, family: tuple) -> tuple[int, ...]:
    if spec == "unit":
        return gr.unit_flow(g)
    if spec == "ones":
        return gr.ones_flow(g)
    if spec.startswith("xy:"):
        x, y = _parse_kv(spec, len("xy:"), ("x", "y"))
        if family[0] not in _XY_KINDS:
            raise InputError(f"xy net flows need a {' or '.join(_XY_KINDS)} graph")
        return getattr(gr, _FAMILIES[family[0]].xy_flow)(*family[1:], x, y)
    if spec.startswith("custom:"):
        return _int_list(spec[len("custom:"):], f"custom net flow {spec!r}")
    raise InputError(f"unknown net flow spec {spec!r} at position 0")


# ---------------------------------------------------------------------------
# volume / kostant


# volume method -> its function in lidskii, which applies to every graph,
# or the name in errors of the _Family function of the same name, which
# applies at a block net flow
_METHODS = {
    "lidskii": lambda g, a: lidskii.volume(g, a),
    "terms": lambda g, a: lidskii.term_sum(g, [a], ("volume",))[0][0],
    "unified": "the stratified count",
    "closed": "closed form",
}


def cmd_volume(args: argparse.Namespace) -> RunReport:
    g, family = parse_graph_spec(args.graph)
    a = gr.check_netflow(g, parse_netflow_spec(args.netflow, g, family))
    report = RunReport("volume", {"graph": args.graph, "netflow": list(a)})
    row, xy = _FAMILIES.get(family[0]), None
    if family[0] in _XY_KINDS:
        xy = row.read_xy(*family[1:], a)  # a block net flow iff the flow there is a
        xy = xy if getattr(gr, row.xy_flow)(*family[1:], *xy) == a else None
    methods = {}
    for method, how in _METHODS.items():
        if args.method not in (method, "all"):
            continue
        if callable(how):
            methods[method] = how(g, a)
        elif xy is not None:
            methods[method] = getattr(unified, getattr(row, method))(*family[1:], *xy)
        elif args.method == method:
            raise InputError(f"{how} needs a {'/'.join(_XY_KINDS)} graph with a block "
                             f"net flow, got {args.graph} at {list(a)}")
    report.results.update(methods)
    report.results["volume"] = next(iter(methods.values()))
    for name, val in list(methods.items())[1:]:  # after lidskii, with --method all
        report.check(f"lidskii = {name}", methods["lidskii"], val)
    return report


def cmd_kostant(args: argparse.Namespace) -> RunReport:
    g, family = parse_graph_spec(args.graph)
    if (args.vector is None) == (args.netflow is None):
        raise InputError("kostant needs one of --vector and --netflow")
    v = (_int_list(args.vector, f"vector {args.vector!r}") if args.vector is not None
         else parse_netflow_spec(args.netflow, g, family))
    report = RunReport("kostant", {"graph": args.graph, "vector": list(v)})
    report.results["kostant"] = kostant(g, v)
    return report


# ---------------------------------------------------------------------------
# tables


def cmd_tables(args: argparse.Namespace) -> RunReport:
    report = RunReport("tables", {"kind": args.kind})
    if args.kind == "parking":
        k, rmax = args.k, args.rmax
        if rmax < 0:
            raise InputError(f"tables parking needs --rmax >= 0, got {rmax}")
        rows = [[combinat.k_parking_number(k, r, i) for i in range(r + 1)]
                for r in range(rmax + 1)]
        title = f"{k}-parking triangle"
        report.inputs.update({"k": k, "rmax": rmax})
    else:
        nmax = args.nmax
        if nmax < 2:
            raise InputError(f"tables gravity-counts needs --nmax >= 2, got {nmax}")
        rows = [[gravity.count_gravity(n, k) for k in range(1, n)] for n in range(2, nmax + 1)]
        title = "gravity-diagram counts (rows n=2.., columns k=1..)"
        report.inputs.update({"nmax": nmax})
    report.results["rows"] = rows
    report.layout = lambda summary: _render_table(rows, title, args.format, summary)
    return report


def _render_table(rows: list[list[int]], title: str, fmt: str, summary: str) -> str:
    """The bare rows as csv, or the summary, the title and the rows aligned."""
    if fmt == "csv":
        return "\n".join(",".join(str(v) for v in row) for row in rows)
    width = max((len(str(v)) for row in rows for v in row), default=1)
    lines = [summary, title]
    for row in rows:
        lines.append(" ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verification suites


def _image(f: Callable, x):
    """f(x), or None where f rejects x, a listed record: a failed check, not bad input."""
    try:
        return f(x)
    except InputError:
        return None


def _round_trip(mapped: list[tuple], back: Callable) -> bool:
    """Whether back takes each (record, image) pair's image to the record; a rejected image fails."""
    return all(image is not None and _image(back, image) == x for x, image in mapped)


def _suite_bijections(report: RunReport, n: int, k: int) -> None:
    gr.check_caracol(n, k)
    if k * (n - k) < 2:  # the (n-k, k(n-k)-1)-Dyck paths need a column
        raise InputError(f"the bijections suite needs k(n-k) >= 2, got n={n}, k={k}")
    count = gravity.count_gravity(n, k)
    ins = [(d, _image(gravity.psi_in, d)) for d in gravity.enumerate_in_gravity(n, k)]
    outs = [(d, _image(gravity.psi_out, d)) for d in gravity.enumerate_out_gravity(n, k)]
    report.check(f"|in-gravity({n},{k})|", count, len(ins))
    report.check(f"|out-gravity({n},{k})|", count, len(outs))
    report.check("psi_in round trip", True, _round_trip(ins, lambda p: gravity.psi_in_inverse(p, n, k)))
    report.check("psi_out round trip", True, _round_trip(outs, lambda p: gravity.psi_out_inverse(p, n, k)))
    a = n - k
    dyck = {*paths.enumerate_t_dyck(paths.rational_shape(a, k * a - 1))}
    report.check("psi_in images are the rational Dyck paths", True, {p for _, p in ins} == dyck)
    report.check("psi_out images are the rational Dyck paths", True, {p for _, p in outs} == dyck)
    pairs, unmatched = gravity.in_out_correspondence(
        [m for m in ins if m[1] is not None], [m for m in outs if m[1] is not None])
    report.check("in/out correspondence size", count, len(pairs))
    if unmatched:
        report.check("in/out diagrams left unmatched", [], [d.to_json() for d, _ in unmatched])
    thetas = [(u, unified.theta(u)) for i in range(a) for u in unified.enumerate_truncated(n, k, i)]
    report.check("theta round trip", True, _round_trip(thetas, lambda m: unified.theta_inverse(m, n, k)))
    report.check("theta images are the multi-labeled paths", True, {m for _, m in thetas}
                 == {m for i in range(a) for m in paths.enumerate_multilabeled(k, a - 1, i)})
    mcar_diagrams = list(gravity.enumerate_out_gravity_mcar(a, k))
    xis = [(d, _image(gravity.xi, d)) for d, _ in outs]
    report.check("xi round trip", True, _round_trip(xis, gravity.xi_inverse))
    report.check(f"|mcar-out-gravity({a},{k})|", count, len(mcar_diagrams))
    report.check("xi images are the mcar-out listing", True, {m for _, m in xis} == {*mcar_diagrams})


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


def _suite_lidskii(report: RunReport) -> None:
    zoo = _small_zoo()
    flows_ok = terms_ok = True
    volumes = {}  # (graph name, net flow) -> its swept volume
    for name, g in zoo:
        two = tuple(1 + v % 2 for v in range(g.n))
        flows = (gr.unit_flow(g), gr.ones_flow(g), two + (-sum(two),))
        for a, terms in zip(flows, lidskii.term_sum(g, flows)):
            want = kostant(g, a)
            got_b = lidskii.lattice_points_binomial(g, a)
            got_m = lidskii.lattice_points_multiset(g, a)
            got_f = sum(1 for _ in integral_flows(g, a))
            if not (want == got_b == got_m == got_f):
                flows_ok = False
                report.check(f"lattice points on {name} at {list(a)}", want, (got_b, got_m, got_f))
            volumes[name, a] = lidskii.volume(g, a)
            sweep = (volumes[name, a], got_b, got_m)
            if sweep != terms:
                terms_ok = False
                report.check(f"Lidskii sweep on {name} at {list(a)}", terms, sweep)
    report.check("lattice-point formulas agree with flow counts", True, flows_ok)
    report.check("Lidskii sweep agrees with the term sum", True, terms_ok)
    hom_ok = True
    for name, g in zoo[:6]:
        base = volumes[name, gr.ones_flow(g)]
        d = g.num_edges - g.n
        for c in (2, 3):
            scaled = tuple(c * v for v in gr.ones_flow(g))
            if lidskii.volume(g, scaled) != c**d * base:
                hom_ok = False
    report.check("volume homogeneity of degree m-n", True, hom_ok)


def _suite_simplex(report: RunReport, total: int, k: int) -> None:
    if total < 0 or k < 2:
        raise InputError(f"the simplex suite needs N >= 0 and k >= 2, got N={total}, k={k}")
    simplex = [*combinat.capped_compositions(total, (total,) * k)]
    weight = {d: combinat.multinomial(total, d) for d in simplex}
    covered = sorted(simplex)
    count, off = 0, []  # count: the base points whose blocks cover the simplex disjointly
    for c0 in simplex:
        members = [d for _, block in unified.simplex_partition(c0) for d in block]
        if sorted(members) == covered:
            count += 1
        if sum(map(weight.__getitem__, members)) != k**total:
            off.append(list(c0))
    covers = f"disjoint covers for all base points (N={total}, k={k})"
    report.check(covers, combinat.binomial(total + k - 1, k - 1), count)
    report.check("base points whose block totals differ from k^N", [], off)


def _suite_orbits(report: RunReport, n: int, k: int) -> None:
    m = gr.caracol_k(n, k).num_edges  # rejects n <= k, which would run no check
    for i in range(n - k):
        ok = all(
            sum(unified.completions(u) for u in orbit) * k == len(orbit) * k ** (m - n - i)
            for orbit in unified.truncated_orbits(n, k, i)
        )
        report.check(f"orbit completion sums at level {i}", True, ok)
        report.check(
            f"standardized count at level {i}",
            unified.standardized_count_formula(n, k, i),
            unified.standardized_count(n, k, i),
        )


# verify suite -> (report, args) -> None, adding the suite's checks
_SUITES = {
    "bijections": lambda report, args: _suite_bijections(report, args.n, args.k),
    "lidskii": lambda report, args: _suite_lidskii(report),
    "simplex": lambda report, args: _suite_simplex(report, args.N, args.simplex_k),
    "orbits": lambda report, args: _suite_orbits(report, args.n, args.k),
}


def cmd_verify(args: argparse.Namespace) -> RunReport:
    report = RunReport("verify", {"suite": args.suite})
    for name, suite in _SUITES.items():
        if args.suite in (name, "all"):
            suite(report, args)
    return report


# ---------------------------------------------------------------------------
# enumeration


class _Listing(NamedTuple):
    """The lines of each render (lazy; a run takes one), their count and the inputs to echo."""

    text: Iterable[str]
    json: Iterable[str]
    expected: int
    inputs: dict


# gravity --kind -> the count of its diagrams; a multicaracol (a, k) is
# checked as one before count_gravity(a + k, k)
_GRAVITY_KINDS = {
    "in": lambda n, k: gravity.count_gravity(n, k),
    "out": lambda n, k: gravity.count_gravity(n, k),
    "mcar-out": lambda a, k: gr.check_multicaracol(a, k) or gravity.count_gravity(a + k, k),
}


def _dyck(args: argparse.Namespace) -> _Listing:
    if args.t is not None:
        if args.a is not None or args.b is not None:
            raise InputError("enumerate dyck takes --t or --a, --b, not both")
        try:
            t = tuple(integer(x) for x in args.t.split(","))
        except InputError:
            raise InputError(f"bad --t {args.t!r}: expected comma-separated integers") from None
    else:
        t = paths.rational_shape(args.a, args.b)
    return _Listing(paths.t_dyck_text_lines(t), paths.t_dyck_json_lines(t), combinat.count_dominating(t),
                    {"t": list(t)})


def _unified(args: argparse.Namespace) -> _Listing:
    g, family = parse_graph_spec(args.graph)
    a = parse_netflow_spec(args.netflow, g, family)
    items = unified.unified_diagrams(g, a)
    return _Listing(
        (f"s={s} sigma={p} alpha={q} flow={f}" for s, p, q, f in items),
        (json.dumps({"shape": s, "sigma": p, "alpha": q, "gamma": f}) for s, p, q, f in items),
        lidskii.volume(g, a), {"graph": args.graph, "netflow": list(a)},
    )


class _Object(NamedTuple):
    needs: tuple[str, ...]  # the options the builder reads ...
    build: Callable[[argparse.Namespace], _Listing]
    unless: str | None = None  # ... unless this option is given instead


_OBJECTS = {
    "gravity": _Object(("n", "k"), lambda args: _Listing(
        gravity.text_lines(args.kind, args.n, args.k), gravity.json_lines(args.kind, args.n, args.k),
        _GRAVITY_KINDS[args.kind](args.n, args.k), {"kind": args.kind, "n": args.n, "k": args.k},
    )),
    "dyck": _Object(("a", "b"), _dyck, unless="t"),
    "unified": _Object(("graph", "netflow"), _unified),
    "truncated": _Object(("n", "k", "i"), lambda args: _Listing(
        unified.truncated_text_lines(args.n, args.k, args.i),
        unified.truncated_json_lines(args.n, args.k, args.i),
        gr.check_caracol(args.n, args.k) or combinat.k_parking_number(args.k, args.n - args.k - 1, args.i),
        {"n": args.n, "k": args.k, "i": args.i},
    )),
    "multilabeled": _Object(("k", "r", "i"), lambda args: _Listing(
        paths.multilabeled_text_lines(args.k, args.r, args.i),
        paths.multilabeled_json_lines(args.k, args.r, args.i),
        combinat.k_parking_number(args.k, args.r, args.i),
        {"k": args.k, "r": args.r, "i": args.i},
    )),
}


def cmd_enumerate(args: argparse.Namespace) -> RunReport:
    row = _OBJECTS[args.object]
    needs = () if row.unless and getattr(args, row.unless) is not None else row.needs
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise InputError(f"enumerate {args.object} needs {', '.join(missing)}")
    listing = row.build(args)
    report = RunReport("enumerate", {"object": args.object, **listing.inputs})
    if listing.expected > args.cap:
        raise InputError(f"would emit {listing.expected} items, more than the cap "
                         f"{args.cap}; raise --cap")
    emitted = list(listing.json if args.render == "json" else listing.text)
    report.results["count"] = len(emitted)
    if args.format == "json":
        report.results["items"] = emitted
    report.layout = lambda summary: "\n".join([*emitted, summary])
    report.check("emitted = estimated count", listing.expected, len(emitted))
    return report


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as an InputError, so that it too ends in one
    `error:` line and exit 2."""

    def error(self, message: str):
        raise InputError(message)


class _Command(NamedTuple):
    what: str  # the help line
    func: str  # the function in this module that runs it
    args: tuple[tuple[str, dict], ...]  # (name, add_argument keywords), after --format and --out
    formats: tuple[str, ...] = ("text", "json")


_INT = {"type": integer}
_COMMANDS = {
    "volume": _Command("normalized volume of a flow polytope", "cmd_volume", (
        ("--graph", {"required": True}), ("--netflow", {"required": True}),
        ("--method", {"choices": (*_METHODS, "all"), "default": "lidskii"}),
    )),
    "kostant": _Command("evaluate the Kostant partition function", "cmd_kostant", (
        ("--graph", {"required": True}), ("--vector", {"help": "JSON list summing to zero"}),
        ("--netflow", {}),
    )),
    "tables": _Command("k-parking triangles and count tables", "cmd_tables", (
        ("kind", {"choices": ("parking", "gravity-counts")}),
        ("--k", {**_INT, "default": 2}), ("--rmax", {**_INT, "default": 5}),
        ("--nmax", {**_INT, "default": 7}),
    ), formats=("text", "json", "csv")),
    "verify": _Command("run invariant suites at desk scale", "cmd_verify", (
        ("suite", {"choices": (*_SUITES, "all")}),
        ("--n", {**_INT, "default": 6}), ("--k", {**_INT, "default": 2}),
        ("--N", {**_INT, "default": 6}), ("--simplex-k", {**_INT, "default": 3}),
    )),
    "enumerate": _Command("stream combinatorial objects", "cmd_enumerate", (
        ("object", {"choices": tuple(_OBJECTS)}),
        ("--kind", {"choices": tuple(_GRAVITY_KINDS), "default": "out"}),
        *((f"--{name}", _INT) for name in "nkriab"),
        ("--t", {"help": "comma-separated reference shape"}), ("--graph", {}), ("--netflow", {}),
        ("--render", {"choices": ("text", "json"), "default": "text"}),
        ("--cap", {**_INT, "default": 10**6}),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of `command` alone when it names a
    command (a valid argv starts with one), else with every subparser, so
    that help and usage errors read the same either way.  Each cmd_*
    function is looked up here, when the parser is built."""
    parser = _Parser(
        prog="flowpoly",
        description="Exact flow-polytope volumes and the caracol-family combinatorial model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in _COMMANDS.items():
        if command not in _COMMANDS or command == name:
            p = sub.add_parser(name, help=row.what)
            p.add_argument("--format", choices=row.formats, default="text")
            p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
            for arg, options in row.args:
                p.add_argument(arg, **options)
            p.set_defaults(func=globals()[row.func])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
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
    payload = report.to_json() if args.format == "json" else report.layout(report.to_text())

    try:
        if args.out is not None:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        else:
            print(payload, flush=True)
    except OSError as exc:
        if args.out is None:
            # the reader is gone or the device is full; send what is still
            # buffered to devnull, so that the interpreter's final flush of
            # stdout cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
