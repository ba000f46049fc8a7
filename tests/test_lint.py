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
