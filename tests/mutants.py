"""Seeded mutation sampling: which small edits of one module do the tests miss?

    python tests/mutants.py                      # 30 mutants of kostant.py
    python tests/mutants.py --count 0 --list     # every site, nothing run
    python tests/mutants.py --module src/flowpoly/lidskii.py --seed 2

Each mutant changes one site of the module's syntax tree:
- a comparison flips (`<` and `<=`, `>` and `>=`, `==` and `!=`);
- a small integer constant (0 to 9) goes up by one;
- a binary or augmented `+` becomes `-`, or `-` becomes `+`.

Sites are numbered in source order, and `random.Random(seed)` picks the
sample, so a seed names the same mutants on every run of the same source.
The tree is copied once to a temporary directory (`.git` and caches
left out); each mutant is written there as `ast.unparse` text and the test
suite runs on it with pytest's `-x` and a fixed Hypothesis seed.  A mutant
is killed when the run fails or times out, and survives when it passes.
The checkout itself is never written.  Standard library only; the file
name keeps pytest from collecting it.
"""
from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-"}


def sites(tree: ast.AST) -> list[tuple[int, int, int, str]]:
    """(line, node index in ast.walk order, operator index, what changes)
    for each mutable site, in source order; the operator index picks one
    operator of a chained comparison and is 0 elsewhere."""
    out = []
    for n, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    what = f"{SYMBOL[type(op)]} -> {SYMBOL[FLIPS[type(op)]]}"
                    out.append((node.lineno, node.col_offset, n, k, what))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            what = f"{SYMBOL[type(node.op)]} -> {SYMBOL[SWAPS[type(node.op)]]}"
            out.append((node.lineno, node.col_offset, n, 0, what))
        elif isinstance(node, ast.Constant) and type(node.value) is int and 0 <= node.value <= 9:
            out.append((node.lineno, node.col_offset, n, 0, f"{node.value} -> {node.value + 1}"))
    return [(line, n, k, what) for line, _, n, k, what in sorted(out)]


def mutate(source: str, site: tuple[int, int, int, str]) -> str:
    """The module's text with one site changed."""
    tree = ast.parse(source)
    _, n, k, _ = site
    node = next(node for i, node in enumerate(ast.walk(tree)) if i == n)
    if isinstance(node, ast.Compare):
        node.ops[k] = FLIPS[type(node.ops[k])]()
    elif isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = SWAPS[type(node.op)]()
    else:
        node.value += 1
    return ast.unparse(tree) + "\n"


def run_tests(tree: Path, tests: list[str], timeout: float) -> tuple[bool, str]:
    """(passed, a short reason) for one pytest run in the copy `tree`."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)  # no replayed failures
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, "timeout"
    lines = proc.stdout.strip().splitlines()
    failed = next((l.split(" - ")[0] for l in lines if l.startswith(("FAILED", "ERROR"))), "")
    return proc.returncode == 0, failed or (lines[-1] if lines else "")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", default="src/flowpoly/kostant.py",
                        help="the module to mutate, relative to the checkout")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=30,
                        help="mutants to run; more than the sites runs them all")
    parser.add_argument("--tests", nargs="*", default=["tests"],
                        help="pytest arguments, relative to the checkout")
    parser.add_argument("--list", action="store_true", help="print every site first")
    args = parser.parse_args(argv)

    source = (ROOT / args.module).read_text()
    every = sites(ast.parse(source))
    if args.list:
        for number, (line, _, _, what) in enumerate(every):
            print(f"site {number:3d}  line {line:4d}  {what}")
    chosen = sorted(random.Random(args.seed).sample(range(len(every)), min(args.count, len(every))))
    if not chosen:
        return 0
    print(f"{args.module}: {len(every)} sites, seed {args.seed}, running {len(chosen)}")

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        target = tree / args.module
        start = time.perf_counter()
        ok, why = run_tests(tree, args.tests, timeout=600)
        if not ok:
            print(f"the unmutated tests fail ({why}); nothing to compare against")
            return 2
        timeout = max(60.0, 10 * (time.perf_counter() - start))
        survivors = []
        for number in chosen:
            line, _, _, what = every[number]
            target.write_text(mutate(source, every[number]))
            passed, why = run_tests(tree, args.tests, timeout)
            verdict = "SURVIVED" if passed else f"killed   {why}"
            print(f"site {number:3d}  line {line:4d}  {what:8s}  {verdict}", flush=True)
            if passed:
                survivors.append(number)
        target.write_text(source)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed; "
          f"survivors: {', '.join(map(str, survivors)) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        if exc.filename is not None:  # a file it reads or copies, not stdout
            raise
        # the reader is gone (`--list | head`) or the device is full; send
        # what is still buffered to devnull, so that the interpreter's final
        # flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)
