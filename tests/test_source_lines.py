"""Source layout: every line of the package fits in 79 columns, as PEP 8
asks.  No linter is configured for the project, so the suite checks it."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lbmfd"


def test_every_source_line_fits_in_79_columns():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    long = [f"{path.name}:{number}" for path in paths
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 79]
    assert not long, f"lines over 79 columns: {long}"
