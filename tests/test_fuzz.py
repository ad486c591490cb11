"""Seeded fuzz of the maps of the model and of the command line.

A record of the model is checked once, when it is built: a gravity
diagram is accepted only when its kind's canonical writer gives it back
from its code, and a truncated record only when theta_inverse gives it back
from its theta image.  psi_in, psi_out, xi and xi_inverse check the kind
alone, and theta, cyclic_shift, k_hull and completions check nothing.  So a
mutated listed record, an entry of it moved, dropped or given another type
among them, is built inside the rejection check, and is either rejected
with an InputError or mapped to an image that the inverse takes back to the
same record, a record the enumerator lists; a gravity or truncated mutant
that is built is a listed record, and each of its maps gives for it what
it gives for that record.  The command line keeps its exit-code contract on
every argv: 0, 1 or 2, no traceback, and one `error:` line on exit 2.
"""
from __future__ import annotations

import dataclasses
import functools
import random

from flowpoly import cli
from flowpoly import gravity as GR
from flowpoly import paths as P
from flowpoly import unified as U
from flowpoly.combinat import InputError

SIZES = [(5, 1), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3)]
MUTANTS = 250  # per map and size


@dataclasses.dataclass(frozen=True)
class Shape:
    """A path's column composition alone, so that a mutant of it is no
    TDyckPath checked against a reference before it reaches a map."""

    shape: tuple[int, ...]


def _shift(rng: random.Random, x: int) -> int:
    return x + rng.choice((-1, 1))


def _retype(rng: random.Random, x: int):
    """A value that is no int, though 1.0 and True compare equal to one."""
    return rng.choice(("1", 1.0, True, (1,)))


def _change_int(rng: random.Random, value, change):
    """value with one integer x in it replaced by change(rng, x), or None if it holds none."""
    if type(value) is int:
        return change(rng, value)
    spots = [p for p, entry in enumerate(value) if type(entry) is int or entry]
    if not spots:
        return None
    p = rng.choice(spots)
    return value[:p] + (_change_int(rng, value[p], change),) + value[p + 1:]


def _mutate_tuple(rng: random.Random, value: tuple):
    """value with one entry duplicated, dropped, swapped, shifted, retyped
    or, for an entry that is a tuple, given one more or one fewer element."""
    if not value:
        return None
    ops = ("duplicate", "drop", "swap", "shift", "retype", "arity")
    op, p = rng.choice(ops), rng.randrange(len(value))
    if op == "duplicate":
        return value[:p] + (value[p],) + value[p:]
    if op == "drop":
        return value[:p] + value[p + 1:]
    if op == "swap":
        q = rng.randrange(len(value))
        swapped = list(value)
        swapped[p], swapped[q] = value[q], value[p]
        return tuple(swapped)
    if op == "retype":
        return _change_int(rng, value, _retype)
    if op == "shift" or type(value[p]) is int:
        return _change_int(rng, value, _shift)
    entry = value[p] + (0,) if rng.random() < 0.5 or not value[p] else value[p][:-1]
    return value[:p] + (entry,) + value[p + 1:]


def mutants(rng: random.Random, records: list, count: int) -> list:
    """count builders, each of a listed record with one field changed: a
    scalar moved by one or retyped, or a tuple changed by `_mutate_tuple`; a
    change that leaves the record as it was, or that no field takes, is
    drawn again.  A record that checks itself raises when its builder is
    called, so the caller builds it inside its rejection check.  Records
    are told apart by repr, where True and 1.0 differ from 1."""
    out = []
    while len(out) < count:
        record = rng.choice(records)
        names = [f.name for f in dataclasses.fields(record)
                 if type(getattr(record, f.name)) in (int, tuple)]
        name = rng.choice(names)
        value = getattr(record, name)
        new = rng.choice((_shift, _retype))(rng, value) if type(value) is int else _mutate_tuple(rng, value)
        if new is not None and repr(new) != repr(value):
            out.append(functools.partial(dataclasses.replace, record, **{name: new}))
    return out


@functools.cache
def listed(family: str, *params: int) -> tuple:
    """Every record the enumerator of `family` lists at params, in its order."""
    make = {
        "in": GR.enumerate_in_gravity, "out": GR.enumerate_out_gravity,
        "mcar-out": GR.enumerate_out_gravity_mcar, "truncated": U.enumerate_truncated,
        "multilabeled": P.enumerate_multilabeled,
    }[family]
    try:
        return tuple(make(*params))
    except InputError:
        return ()


def _each_level(make, r: int) -> list:
    return [x for i in range(r + 1) for x in make(i)]


def families(n: int, k: int):
    """(name, listed records, the map, the way back from (image, record)
    to a record, whether a record is listed) for each map fed mutants at
    the caracol (n, k)."""
    a, r = n - k, n - k - 1
    ins, outs = listed("in", n, k), listed("out", n, k)
    in_paths = [Shape(GR.psi_in(d).shape) for d in ins]

    def own_path(x):  # each shape its own reference, so any shape reaches the map
        return P.TDyckPath(x.shape, x.shape)

    yield ("psi_in", ins, GR.psi_in, lambda p, d: GR.psi_in_inverse(p, d.n, d.k),
           lambda d: d in listed("in", d.n, d.k))
    yield ("psi_out", outs, GR.psi_out, lambda p, d: GR.psi_out_inverse(p, d.n, d.k),
           lambda d: d in listed("out", d.n, d.k))
    yield ("xi", outs, GR.xi, lambda m, d: GR.xi_inverse(m),
           lambda d: d in listed("out", d.n, d.k))
    yield ("xi_inverse", listed("mcar-out", a, k), GR.xi_inverse,
           lambda d, m: GR.xi(d), lambda m: m in listed("mcar-out", m.n, m.k))
    yield ("theta", _each_level(lambda i: listed("truncated", n, k, i), r), U.theta,
           lambda m, u: U.theta_inverse(m, u.n, u.k),
           lambda u: u in listed("truncated", u.n, u.k, u.level))
    for name, forward, back in [("psi_in_inverse", GR.psi_in_inverse, GR.psi_in),
                                ("psi_out_inverse", GR.psi_out_inverse, GR.psi_out)]:
        yield (name, in_paths, lambda x, forward=forward: forward(own_path(x), n, k),
               lambda d, x, back=back: Shape(back(d).shape), lambda x: x in in_paths)
    yield ("theta_inverse", _each_level(lambda i: listed("multilabeled", k, r, i), r),
           lambda m: U.theta_inverse(m, n, k), lambda u, m: U.theta(u),
           lambda m: m in listed("multilabeled", k, r, sum(x > 0 for col in m.labels for x in col)))


def test_every_map_rejects_a_mutant_or_takes_it_back_to_a_listed_record():
    rng = random.Random(1)
    seen = {"rejected": 0, "round trip": 0}
    for n, k in SIZES:
        for name, records, forward, back, is_listed in families(n, k):
            for build in mutants(rng, records, MUTANTS):
                try:
                    x = build()
                    image = forward(x)
                except InputError:
                    seen["rejected"] += 1
                    continue
                assert repr(back(image, x)) == repr(x), (name, x, image)
                assert is_listed(x), (name, x)
                seen["round trip"] += 1
    assert min(seen.values()) > 0, seen  # both outcomes occur


def test_a_truncated_mutant_is_rejected_when_built_or_is_read_as_its_listed_twin():
    """cyclic_shift, k_hull and completions check nothing, so a mutant that
    is built must equal a listed record, and every map must read it as
    that record."""
    rng = random.Random(1)
    maps = (U.theta, functools.partial(U.cyclic_shift, 1), U.k_hull, U.completions)
    seen = {"rejected": 0, "listed": 0}
    for n, k in SIZES:
        records = _each_level(lambda i: listed("truncated", n, k, i), n - k - 1)
        twins = {u: u for u in records}
        for build in mutants(rng, records, MUTANTS):
            try:
                u = build()
            except InputError:
                seen["rejected"] += 1
                continue
            assert u in twins, u
            assert [repr(f(u)) for f in maps] == [repr(f(twins[u])) for f in maps], u
            seen["listed"] += 1
    assert min(seen.values()) > 0, seen  # both outcomes occur


def test_a_gravity_mutant_is_rejected_when_built_or_is_read_as_its_listed_twin():
    """The gravity maps check the kind alone, so a mutant that is built must
    equal a record listed at its own parameters, and every map of its kind
    must read it as that record."""
    rng = random.Random(1)
    maps = {"in": (GR.psi_in,), "out": (GR.psi_out, GR.xi), "mcar-out": (GR.xi_inverse,)}
    seen = {"rejected": 0, "listed": 0}
    for n, k in SIZES:
        for kind, params in [("in", (n, k)), ("out", (n, k)), ("mcar-out", (n - k, k))]:
            for build in mutants(rng, listed(kind, *params), MUTANTS):
                try:
                    d = build()
                except InputError:
                    seen["rejected"] += 1
                    continue
                twins = listed(kind, d.n, d.k)  # a shifted n or k may name another family
                assert d in twins, d
                twin = twins[twins.index(d)]
                assert [repr(f(d)) for f in maps[kind]] == [repr(f(twin)) for f in maps[kind]], d
                seen["listed"] += 1
    assert min(seen.values()) > 0, seen  # both outcomes occur


def _int(rng: random.Random, low: int, high: int) -> int:
    """Mostly low..high, where the commands accept most values; else one
    step past either end."""
    return rng.randint(low, high) if rng.random() < 0.85 else rng.choice((low - 1, high + 1))


def _graph(rng: random.Random) -> str:
    kind = rng.choice(("caracol", "mcar", "ps", "complete", "edges"))
    if kind == "caracol":
        n = _int(rng, 2, 6)
        return f"caracol:n={n},k={_int(rng, 1, max(n - 1, 1))}"
    if kind == "mcar":
        return f"mcar:a={_int(rng, 1, 3)},k={_int(rng, 1, 3)}"
    if kind in ("ps", "complete"):
        return f"{kind}:n={_int(rng, 2, 5)}"
    edges = sorted((_int(rng, 1, 3), _int(rng, 2, 4)) for _ in range(rng.randint(0, 5)))
    return "edges:" + str([list(e) for e in edges]).replace(" ", "")


def _netflow(rng: random.Random) -> str:
    kind = rng.choice(("unit", "ones", "xy", "custom", "bogus"))
    if kind == "xy":
        return f"xy:x={_int(rng, 0, 3)},y={_int(rng, 0, 3)}"
    if kind == "custom":
        head = [_int(rng, 0, 2) for _ in range(rng.randint(1, 6))]
        return "custom:" + str([*head, -sum(head)]).replace(" ", "")
    return kind


def _size(rng: random.Random, name: str, low: int, high: int, given: float = 0.9) -> list[str]:
    return [f"--{name}", str(_int(rng, low, high))] if rng.random() < given else []


# enumerate object -> the size options it reads, with their usual ranges
_ENUMERATE = {
    "gravity": [("n", 2, 6), ("k", 1, 4)],
    "dyck": [("a", 1, 7), ("b", 1, 8)],
    "unified": [],
    "truncated": [("n", 2, 6), ("k", 1, 4), ("i", 0, 4)],
    "multilabeled": [("k", 1, 3), ("r", 0, 4), ("i", 0, 4)],
}


def _argv(rng: random.Random) -> list[str]:
    command = rng.choice(("volume", "kostant", "tables", "verify", "enumerate", "bogus"))
    if command == "volume":
        argv = ["volume", "--graph", _graph(rng), "--netflow", _netflow(rng),
                "--method", rng.choice(("lidskii", "terms", "unified", "closed", "all", "x"))]
    elif command == "kostant":
        argv = ["kostant", "--graph", _graph(rng)]
        if rng.random() < 0.5:
            argv += ["--vector", str([_int(rng, -3, 3) for _ in range(rng.randint(0, 6))])]
        if rng.random() < 0.6:
            argv += ["--netflow", _netflow(rng)]
    elif command == "tables":
        argv = ["tables", rng.choice(("parking", "gravity-counts")), *_size(rng, "k", 1, 4),
                *_size(rng, "rmax", 0, 6), *_size(rng, "nmax", 2, 8)]
    elif command == "verify":
        argv = ["verify", rng.choice(("bijections", "lidskii", "simplex", "orbits", "all")),
                *_size(rng, "n", 3, 5), *_size(rng, "k", 1, 4), *_size(rng, "N", 0, 4),
                *_size(rng, "simplex-k", 2, 4)]
    elif command == "enumerate":
        obj = rng.choice(tuple(_ENUMERATE))
        argv = ["enumerate", obj]
        for name, low, high in _ENUMERATE[obj]:
            argv += _size(rng, name, low, high)
        argv += ["--kind", rng.choice(("in", "out", "mcar-out"))] if rng.random() < 0.5 else []
        argv += _size(rng, rng.choice("nkriab"), 0, 4, given=0.1)
        if rng.random() < 0.2:
            argv += ["--t", ",".join(str(_int(rng, 0, 2)) for _ in range(rng.randint(0, 5)))]
        if obj == "unified" or rng.random() < 0.1:
            small = rng.choice(("ps:n=3", "ps:n=4", "caracol:n=4,k=2", "complete:n=3"))
            argv += ["--graph", small, "--netflow", rng.choice(("unit", "ones", "x"))]
        argv += ["--render", rng.choice(("text", "json"))] if rng.random() < 0.5 else []
        argv += ["--cap", str(rng.choice((0, 5, 10**6)))] if rng.random() < 0.3 else []
    else:
        argv = ["bogus"]
    if rng.random() < 0.3:
        argv += ["--format", rng.choice(("text", "json", "csv", "xml"))]
    return argv


def test_every_cli_run_keeps_the_exit_code_contract(capsys):
    """A traceback would raise out of cli.main and fail the test."""
    rng = random.Random(1)
    codes = set()
    for _ in range(250):
        argv = _argv(rng)
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        codes.add(code)
    assert codes >= {0, 2}
