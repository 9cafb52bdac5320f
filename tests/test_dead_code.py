"""Dead-code guard for the library, with the standard `ast` module only.

Every module-level function and class in `src/hypercones` must be named
somewhere outside its own definition: in a library module (the package
`__init__` does not count: re-exporting is not using) or in the benchmark
under `perfbench/`, whose tracer names its targets in strings.  A
definition that only tests call belongs in the tests.  And no library
module may import a name it never uses.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "hypercones").glob("*.py"))
CALLERS = [m for m in MODULES if m.name != "__init__.py"]
CALLERS += sorted((ROOT / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def names_in(node: ast.AST) -> set[str]:
    """Identifiers a subtree mentions: variables, attributes, imported
    names, and the dotted parts of strings such as "autgroup.lie_probe"."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(part for part in sub.value.split(".") if part.isidentifier())
    return out


def unreferenced_definitions() -> list[str]:
    """`module.name` of each library definition that nothing else names."""
    trees = {path: parse(path) for path in CALLERS}
    statements = [
        (path, stmt, names_in(stmt)) for path, tree in trees.items() for stmt in tree.body
    ]
    return [
        f"{path.stem}.{stmt.name}"
        for path, stmt, _ in statements
        if path in MODULES
        and isinstance(stmt, DEFINITIONS)
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; `__all__` counts as a read."""
    tree = parse(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_every_definition_has_a_caller():
    assert unreferenced_definitions() == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []
