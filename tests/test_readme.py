"""The import lines of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# a `from loquad... import` statement, parenthesised or on one line
IMPORT = re.compile(r"^from loquad(?:\.\w+)* import (?:\([^)]*\)|.*)$",
                    re.MULTILINE)


def test_every_readme_import_runs():
    statements = IMPORT.findall(README.read_text(encoding="utf-8"))
    assert any(s.startswith("from loquad import") for s in statements)
    for statement in statements:
        exec(statement, {})
