"""Static scans of the finegrain sources.

No linter is installed, so these AST scans stand in for two dead-code
checks: an unused import is a false dependency edge between modules, and a
public name that only tests reach is API the program does not need.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "finegrain").glob("*.py"))
# the benchmark's program files; its own tests are not callers
BENCH_SOURCES = sorted(p for p in (ROOT / "perfbench").glob("*.py")
                       if not p.name.startswith("test_"))

# names kept without a production caller, each with its reason
NO_CALLER_NEEDED = {
    "gradcheck.check_gradients": "test support: the finite-difference check of every tape op",
}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported_names(tree) - used == set()


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def public_definitions(path: Path, tree: ast.Module):
    """(qualified name, bare name, is method, file, first line, last line) per definition."""
    module = path.stem
    for node in tree.body:
        span = (path, node.lineno, node.end_lineno)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False, *span
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not _is_dunder(target.id):
                    yield f"{module}.{target.id}", target.id, False, *span
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield (f"{module}.{node.name}.{item.name}", item.name, True,
                           path, item.lineno, item.end_lineno)


def loaded_names(tree: ast.Module):
    """(name, line, is attribute) for every name or attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True


def traced_names(tracer: ast.Module) -> set[str]:
    """Each dotted part of the attribute paths in perfbench's tracer.TARGETS."""
    for node in tracer.body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS":
            return {part for _, dotted, _ in ast.literal_eval(node.value)
                    for part in dotted.split(".")}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_public_name_has_a_caller():
    """Each finegrain name is read outside its own definition by finegrain or perfbench.

    A module-level name counts as read by a bare name or an attribute; a
    method only by an attribute (or a tracer target), so that a local
    variable such as `step` does not stand in for `SgdOptimizer.step`.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES + BENCH_SOURCES}
    reads = [(name, path, line, attr) for path, tree in trees.items()
             for name, line, attr in loaded_names(tree)]
    traced = traced_names(trees[ROOT / "perfbench" / "tracer.py"])
    uncalled = []
    for path in SOURCES:
        for qualified, name, method, own, first, last in public_definitions(path, trees[path]):
            if qualified in NO_CALLER_NEEDED or name in traced:
                continue
            if not any(n == name and (attr or not method)
                       and not (p == own and first <= line <= last)
                       for n, p, line, attr in reads):
                uncalled.append(qualified)
    assert not uncalled, f"no caller outside the tests: {', '.join(uncalled)}"
