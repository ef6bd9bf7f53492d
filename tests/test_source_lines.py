"""Source layout: every line of the package fits in 79 columns, as PEP 8
asks, every name that a module imports is used, every private
module-level name is used by the package itself, not by tests alone, and
every measurement record that the package or README cites exists.  No
linter is configured for the project, so the suite checks all four."""

import ast
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lbmfd"


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


def test_every_cited_bench_record_and_key_exists():
    # A citation names a BENCH_*.json record at the root of the repository,
    # and a key of it in backticks right after the name, across a comment's
    # line break, names one of its top-level keys.
    cite = re.compile(r"(BENCH_\d+\.json)`?\s*(?:#\s*)?(?:`(\w+)`)?")
    paths = [*sorted(SRC.glob("*.py")), ROOT / "README.md"]
    cited = [(path.name, *match.groups()) for path in paths
             for match in cite.finditer(path.read_text())]
    assert cited
    missing = []
    for where, name, key in cited:
        record = ROOT / name
        if not record.is_file():
            missing.append(f"{where}: {name}")
        elif key is not None and key not in json.loads(record.read_text()):
            missing.append(f"{where}: {name} `{key}`")
    assert not missing, f"cited records or keys that do not exist: {missing}"
