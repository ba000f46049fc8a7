"""Static checks on the package source that no installed linter covers."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "szlab"
BENCH = ROOT / "perfbench"


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
    """Module-level private functions and classes that no module of the package references.

    `__dunder__` names are hooks the interpreter calls, such as a module's `__getattr__`.
    """
    defined = [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
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
        "a.py": ast.parse(
            "def _kept(): pass\ndef _gone(): pass\nclass _Lost: pass\ndef _called(): pass\ndef __getattr__(name): ...\n"
        ),
        "b.py": ast.parse("from .a import _kept\nimport a\n\ndef public():\n    return a._called()\n"),
    }
    assert _orphaned_private_helpers(trees) == ["a.py: _Lost", "a.py: _gone"]


def test_package_has_no_orphaned_private_helpers():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    offenders = _orphaned_private_helpers(trees)
    if offenders:
        pytest.fail(f"private helpers nothing in src/szlab references: {', '.join(offenders)}")


def _dotted(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    base = _dotted(node.value) if isinstance(node, ast.Attribute) else None
    return base and f"{base}.{node.attr}"


def _bench_reads(tree: ast.Module) -> set[str]:
    """Names a benchmark file imports from szlab or reads off a szlab module (`m.name`)."""
    nodes = list(ast.walk(tree))
    # `import szlab.x as y` binds y, and `import szlab.x` binds szlab.
    bound = {
        alias.asname or "szlab"
        for node in nodes
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "szlab"
    }
    names = {
        alias.name
        for node in nodes
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "szlab"
        for alias in node.names
    }
    names.update(
        node.attr
        for node in nodes
        if isinstance(node, ast.Attribute) and (_dotted(node.value) or "").split(".")[0] in bound
    )
    return names


def _uncalled_public_names(package: dict[str, ast.Module], bench: dict[str, ast.Module]) -> list[str]:
    """Module-level public functions and classes with no caller.

    A caller is another package module importing the name, the name's own
    module loading it, or a benchmark file importing it or reading it off a
    szlab module.  `__init__.py` re-exports are not callers, and neither is
    an attribute read off a record (`report.szeged`).
    """
    modules = {name: tree for name, tree in package.items() if name != "__init__.py"}
    defined = [
        (name, node.name)
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    loaded = {
        name: {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for name, tree in modules.items()
    }
    imported = {
        name: {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
        for name, tree in modules.items()
    }
    from_bench = set().union(*map(_bench_reads, bench.values()))
    return sorted(
        f"{name}: {public}"
        for name, public in defined
        if public not in loaded[name] | from_bench
        and not any(public in names for other, names in imported.items() if other != name)
    )


def test_uncalled_public_name_detector():
    package = {
        "a.py": ast.parse(
            "def imported(): pass\ndef gone(): pass\nclass Lost: pass\ndef own(): pass\nX = own()\n"
            "def traced(): pass\ndef read(): pass\ndef chained(): pass\ndef field(): pass\ndef exported(): pass\n"
        ),
        "b.py": ast.parse("from .a import imported\nfrom typing import gone\n"),
        "__init__.py": ast.parse("from .a import exported\n"),
    }
    bench = {
        "k.py": ast.parse("from szlab.a import traced\nimport szlab.a as mod\nmod.read()\n"),
        "r.py": ast.parse("import szlab.cli\nszlab.a.chained()\nreport.field\nLost = 1\n"),
    }
    assert _uncalled_public_names(package, bench) == ["a.py: Lost", "a.py: exported", "a.py: field", "a.py: gone"]


def test_package_has_no_uncalled_public_names():
    # Names only tests call are kept out: tests reach the package through the routes it uses itself.
    package = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    bench = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(BENCH.glob("*.py"))}
    offenders = _uncalled_public_names(package, bench)
    if offenders:
        pytest.fail(f"public names nothing in src/szlab or perfbench calls: {', '.join(offenders)}")


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


def test_surplus_map_has_one_constructor_site():
    # Every surplus map, a block's included, is built by surplus_map, so each one
    # has its total reconciled with Sz - W from the per-edge partitions.
    sites = [
        f"{path.name}: {scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope in _call_sites(ast.parse(path.read_text(), str(path)), "SurplusMap")
    ]
    assert sites == ["proofs.py: surplus_map"]


_LAYOUT = {"packed", "width", "ones"}
# Outside graphs, the packed distance fields are read only where edges separate vertices.
_SEPARATION_KERNEL = {"_differences", "edge_partitions", "side_masks"}


def _layout_uses(tree: ast.Module, attrs: set[str]) -> list[tuple[str, str]]:
    """(top-level function or class, or `<module>`; attribute) for each use of an attribute in `attrs`."""
    uses = []
    for top in tree.body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        uses += [(scope, node.attr) for node in ast.walk(top) if isinstance(node, ast.Attribute) and node.attr in attrs]
    return uses


def test_layout_use_detector():
    tree = ast.parse(
        "x = d.ones\ndef f(d):\n    return d.row(0), d.packed[0]\n"
        "class C:\n    def g(self):\n        return self.width, width\n"
    )
    assert _layout_uses(tree, _LAYOUT) == [("<module>", "ones"), ("f", "packed"), ("C", "width")]


def test_distance_layout_stays_in_graphs_and_the_separation_kernel():
    # Every other reader goes through DistanceMatrix.row.
    offenders = [
        f"{path.name}: {scope} uses .{attr}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "graphs.py"
        for scope, attr in _layout_uses(ast.parse(path.read_text(), str(path)), _LAYOUT)
        if not (path.name == "invariants.py" and scope in _SEPARATION_KERNEL)
    ]
    if offenders:
        pytest.fail(f"the packed distance layout outside graphs and the separation kernel: {'; '.join(offenders)}")


# A Graph keeps one adjacency, its neighbor tuples (`_neigh`); a bitmask copy (`_mask`) is kept nowhere.
_ADJACENCY = {"_neigh", "_mask"}


def _adjacency_offenders(trees: dict[str, ast.Module]) -> list[str]:
    """Reads of `_mask` anywhere, and of `_neigh` outside graphs and canon's search."""
    return [
        f"{name}: {scope} uses .{attr}"
        for name, tree in trees.items()
        for scope, attr in _layout_uses(tree, _ADJACENCY)
        if attr == "_mask" or name != "graphs.py" and (name, scope) != ("canon.py", "_canonical_labeling")
    ]


def test_adjacency_reader_detector():
    trees = {
        "graphs.py": ast.parse("def bfs(g):\n    return g._neigh, g._mask\n"),
        "canon.py": ast.parse("def _canonical_labeling(g):\n    return g._neigh\ndef _refine(g):\n    g._neigh\n"),
        "enumeration.py": ast.parse("x = g.neighbors(0)\nclass C:\n    def f(self, g):\n        return g._neigh\n"),
    }
    assert _adjacency_offenders(trees) == [
        "graphs.py: bfs uses ._mask",
        "canon.py: _refine uses ._neigh",
        "enumeration.py: C uses ._neigh",
    ]


def test_adjacency_is_read_only_in_graphs_and_canons_search():
    # Every other reader goes through Graph's methods, so how adjacency is stored is graphs' own decision.
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    offenders = _adjacency_offenders(trees)
    if offenders:
        pytest.fail(f"._mask, or ._neigh outside graphs and canon's search: {'; '.join(offenders)}")


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
