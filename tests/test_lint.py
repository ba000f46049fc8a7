"""Static checks on the package source that no installed linter covers."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "szlab"


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_detector():
    tree = ast.parse("import os, sys\nfrom a.b import c as d, e\nimport x.y\nsys.exit(e(x))\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "d")]


def _orphaned_private_helpers(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level private functions and classes that no module of the package references."""
    defined = [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(f"{name}: {helper}" for name, helper in defined if helper not in used)


def test_orphaned_helper_detector():
    trees = {
        "a.py": ast.parse("def _kept(): pass\ndef _gone(): pass\nclass _Lost: pass\ndef _called(): pass\n"),
        "b.py": ast.parse("from .a import _kept\nimport a\n\ndef public():\n    return a._called()\n"),
    }
    assert _orphaned_private_helpers(trees) == ["a.py: _Lost", "a.py: _gone"]


def test_package_has_no_orphaned_private_helpers():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    offenders = _orphaned_private_helpers(trees)
    if offenders:
        pytest.fail(f"private helpers nothing in src/szlab references: {', '.join(offenders)}")


def _call_sites(tree: ast.Module, callee: str) -> list[str]:
    """The innermost enclosing function, or `<module>`, of each call to `callee` by name or attribute."""
    sites = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == callee:
                    sites.append(scope)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(tree, "<module>")
    return sites


def test_call_site_detector():
    tree = ast.parse("X()\ndef f():\n    m.X(1)\n    def g():\n        return [X() for _ in y]\nclass C:\n    z = X\n")
    assert _call_sites(tree, "X") == ["<module>", "f", "g"]


def test_distance_matrix_has_one_constructor_site():
    # all_pairs_distances raises on a disconnected graph, so building a
    # DistanceMatrix anywhere else could hand out one that is not connected.
    sites = [
        f"{path.name}: {scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope in _call_sites(ast.parse(path.read_text(), str(path)), "DistanceMatrix")
    ]
    assert sites == ["graphs.py: all_pairs_distances"]


def _imported_modules(tree: ast.Module) -> set[str]:
    nodes = list(ast.walk(tree))
    names = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.level == 0}
    return {name.split(".")[0] for name in names}


def test_only_cli_writes_output_formats():
    # cli is the one module that turns results into stdout bytes.
    offenders = [
        f"{path.name}: {', '.join(sorted(found))}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py"
        for found in [_imported_modules(ast.parse(path.read_text(), str(path))) & {"csv", "io", "json"}]
        if found
    ]
    if offenders:
        pytest.fail(f"output formats outside cli.py: {'; '.join(offenders)}")


def test_package_has_no_unused_imports():
    offenders = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    if offenders:
        pytest.fail(f"imported but never used in src/szlab: {', '.join(offenders)}")


def test_package_parses_at_the_python_floor():
    # pyproject.toml declares requires-python >= 3.10.
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_package_stays_within_the_seed_line_count():
    # src/szlab had 2,131 lines at the seed; no change may grow it past that.
    total = sum(len(path.read_text().splitlines()) for path in sorted(SRC.glob("*.py")))
    assert total <= 2131, f"src/szlab has {total} lines, above the seed's 2,131"
