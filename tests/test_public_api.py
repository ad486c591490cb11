"""The package's surface: the top level exports exactly `__all__`, and every
public function and class in `src/flowpoly` is reached from the library,
the CLI or the benchmark, not only from the tests."""
from __future__ import annotations

import ast
import inspect
from pathlib import Path

import flowpoly

ROOT = Path(__file__).resolve().parents[1]


def referenced(node: ast.AST) -> set[str]:
    """Names read under node: identifiers, attributes, and string constants
    (the CLI tables and the benchmark look functions up by name), a dotted
    "module.name" string counting for its last part."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value.rsplit(".", 1)[-1])
    return out


def test_every_public_definition_is_reached_outside_the_tests():
    bench = set()
    for path in (ROOT / "bench").glob("*.py"):
        bench |= referenced(ast.parse(path.read_text()))
    # one entry per top-level statement of src/, so a definition's own body
    # (a recursive call, say) does not count as a use of it
    statements = []
    for path in sorted((ROOT / "src" / "flowpoly").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            statements.append((path.stem, stmt, referenced(stmt)))
    assert bench and statements
    unreached = []
    for module, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        name = stmt.name
        in_src = any(name in refs for _, other, refs in statements if other is not stmt)
        if not (in_src or name in bench or name in flowpoly.__all__):
            unreached.append(f"{module}.{name}")
    assert unreached == []


def test_top_level_is_exactly_all():
    for name in flowpoly.__all__:
        assert getattr(flowpoly, name) is not None, name
    public = {
        name
        for name, value in vars(flowpoly).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(flowpoly.__all__)
    assert inspect.ismodule(flowpoly.kostant)
