"""Static scans of the finegrain sources.

No linter is installed, so these AST scans stand in for four dead-code
checks: an unused import is a false dependency edge between modules, a
public name that only tests reach is API the program does not need, a
record field that nothing reads is state the program carries for no one,
and a parameter default that no call overrides is a setting with one
value, which belongs in a constant.  A fifth scan keeps out `global`
statements: a process-wide mode that an op reads is state every caller
shares.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "finegrain").glob("*.py"))
# the benchmark's program files; its own tests are not callers
BENCH_SOURCES = sorted(p for p in (ROOT / "perfbench").glob("*.py")
                       if not p.name.startswith("test_"))
# the modules the tests import, such as the gradient check
TEST_SUPPORT = sorted(p for p in (ROOT / "tests").glob("*.py") if not p.name.startswith("test_"))

# functions, or function.parameter, whose defaults no production call needs to pass
DEFAULTS_NOT_PASSED = {
    "cli.main.argv": "the console script calls main() with no argument",
}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", SOURCES + TEST_SUPPORT, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported_names(tree) - used == set()


def test_no_global_statement():
    """No finegrain function rebinds a module-level name: a mode travels with the objects."""
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert not found, f"global statements: {', '.join(found)}"


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
            if name in traced:
                continue
            if not any(n == name and (attr or not method)
                       and not (p == own and first <= line <= last)
                       for n, p, line, attr in reads):
                uncalled.append(qualified)
    assert not uncalled, f"no caller outside the tests: {', '.join(uncalled)}"


def record_fields(path: Path, tree: ast.Module):
    """(qualified name, field name) per field of each dataclass or NamedTuple."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if (any(getattr(d, "id", None) == "dataclass" for d in decorators)
                or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases)):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{path.stem}.{node.name}.{item.target.id}", item.target.id


def test_every_record_field_has_a_reader():
    """Each field of a finegrain record is read by finegrain or perfbench.

    A field counts as read by an attribute of its name, or by a string
    constant of finegrain naming it, as the cells of `evalharness.SUBTASKS`
    name the fields that `getattr` reads.  Dict keys do not count, nor do
    perfbench's strings: they name config sections, modules and metrics,
    not fields.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES + BENCH_SOURCES}
    read = set()
    for path, tree in trees.items():
        keys = {id(k) for node in ast.walk(tree) if isinstance(node, ast.Dict) for k in node.keys}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (path in SOURCES and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in keys):
                read.add(node.value)
    unread = [qualified for path in SOURCES
              for qualified, name in record_fields(path, trees[path]) if name not in read]
    assert not unread, f"record fields nothing reads: {', '.join(unread)}"


def defaulted_parameters(path: Path, tree: ast.Module):
    """(qualified function name, called name, parameter, positional index or None) per default.

    The called name of `__init__` is its class; a method's positional index
    does not count `self`.  A keyword-only parameter has no index.
    """
    def visit(node, prefix, owner):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                yield from visit(item, f"{prefix}.{item.name}", item.name)
            elif isinstance(item, ast.FunctionDef):
                qualified = f"{prefix}.{item.name}"
                called = owner if item.name == "__init__" else item.name
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                args = item.args.posonlyargs + item.args.args
                skip = 1 if owner and not static else 0
                for index, arg in enumerate(args):
                    if index >= len(args) - len(item.args.defaults):
                        yield qualified, called, arg.arg, index - skip
                for arg, default in zip(item.args.kwonlyargs, item.args.kw_defaults):
                    if default is not None:
                        yield qualified, called, arg.arg, None
                yield from visit(item, qualified, None)
            else:
                yield from visit(item, prefix, owner)

    yield from visit(tree, path.stem, None)


def passes(call: ast.Call, parameter: str, index: int | None) -> bool:
    """Whether the call may pass the parameter: by keyword, by position or by unpacking."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_default_is_overridden_by_a_caller():
    """Each defaulted parameter in finegrain is passed by some finegrain or perfbench call.

    Calls are matched to a definition by the called name alone, so two
    functions of the same name share their callers.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES + BENCH_SOURCES}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    never_passed = []
    for path in SOURCES:
        for qualified, called, parameter, index in defaulted_parameters(path, trees[path]):
            if qualified in DEFAULTS_NOT_PASSED or f"{qualified}.{parameter}" in DEFAULTS_NOT_PASSED:
                continue
            if not any(passes(call, parameter, index) for call in calls.get(called, [])):
                never_passed.append(f"{qualified}({parameter})")
    assert not never_passed, f"defaults no caller overrides: {', '.join(never_passed)}"
