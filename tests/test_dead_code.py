"""Dead-code guard for the library, with the standard `ast` module only.

Every module-level function and class in `src/hypercones` must be named
somewhere outside its own definition: in a library module (the package
`__init__` does not count: re-exporting is not using) or in the benchmark
under `perfbench/`, whose tracer names its targets in strings.  A
definition that only tests call belongs in the tests.  The same holds for
class members: a method or property must be read as an attribute outside
its own definition, and a classmethod or staticmethod as `Class.name`.
And no library module may import a name it never uses, or scipy, which
the library does not depend on.

A ratchet keeps configuration from growing back: the defaulted parameters
of the library (positional and keyword-only defaults) may not exceed
DEFAULTED_PARAMETER_CAP.  Lower the cap when a default goes.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "hypercones").glob("*.py"))
CALLERS = [m for m in MODULES if m.name != "__init__.py"]
CALLERS += sorted((ROOT / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
DEFAULTED_PARAMETER_CAP = 11


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


def attribute_reads(node: ast.AST) -> Counter:
    """How often a subtree reads each attribute, under its bare name and,
    where it is read off a plain name, as `Owner.attr` too; dotted strings
    such as "HomoPoly.compose" count as reads."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
            if isinstance(sub.value, ast.Name):
                out[f"{sub.value.id}.{sub.attr}"] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if len(parts) > 1 and all(part.isidentifier() for part in parts):
                out.update(parts[1:])
                out.update(f"{a}.{b}" for a, b in zip(parts, parts[1:]))
    return out


def unread_members() -> list[str]:
    """`module.Class.member` of each non-dunder method or property that no
    library or benchmark code reads outside the member itself."""
    reads = sum((attribute_reads(parse(path)) for path in CALLERS), Counter())
    out = []
    for path in MODULES:
        for cls in parse(path).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("__"):
                    continue
                decorators = {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}
                key = fn.name
                if decorators & {"classmethod", "staticmethod"}:
                    key = f"{cls.name}.{fn.name}"
                if reads[key] <= attribute_reads(fn)[key]:
                    out.append(f"{path.stem}.{cls.name}.{fn.name}")
    return out


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


def imported_packages(path: Path) -> set[str]:
    """Top-level packages a module imports anywhere, function bodies too."""
    out = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            out.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.partition(".")[0])
    return out


def defaulted_parameters() -> int:
    """Parameters with a default value, over every function and lambda."""
    count = 0
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def test_every_definition_has_a_caller():
    assert unreferenced_definitions() == []


def test_every_class_member_is_read():
    assert unread_members() == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_library_never_imports_scipy():
    assert [path.name for path in MODULES if "scipy" in imported_packages(path)] == []


def test_defaulted_parameters_do_not_grow():
    assert defaulted_parameters() <= DEFAULTED_PARAMETER_CAP
