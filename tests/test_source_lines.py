"""Source layout: every line of the package fits in 79 columns, as PEP 8
asks, every name that a module imports is used, and every private
module-level name is used by the package itself, not by tests alone.  No
linter is configured for the project, so the suite checks all three."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lbmfd"


def test_every_source_line_fits_in_79_columns():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    long = [f"{path.name}:{number}" for path in paths
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 79]
    assert not long, f"lines over 79 columns: {long}"


def test_every_imported_name_is_used():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, f"imported names never used: {unused}"


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert trees
    defined, loaded = {}, set()
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [target.id for target in ast.walk(node)
                           if isinstance(target, ast.Name)
                           and isinstance(target.ctx, ast.Store)]
            else:
                continue
            for target in targets:
                if target.startswith("_") and not target.startswith("__"):
                    defined[target] = f"{name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    unused = [f"{where} {target}" for target, where in defined.items()
              if target not in loaded]
    assert not unused, f"private names the package never uses: {unused}"
