"""Source layout: every line of the package fits in 79 columns, as PEP 8
asks, and every name that a module imports is used.  No linter is
configured for the project, so the suite checks both."""

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
