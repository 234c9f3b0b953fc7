"""Rules the package source keeps: no handler that swallows every error.

A catch-all turns a bug into a dropped replicate or a silent fallback, so
src/ may catch only the errors a handler can act on.
"""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CATCH_ALL = re.compile(r"^\s*except\s*(Exception\b|:)")


def test_no_catch_all_handlers_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{i}"
             for path in files
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if CATCH_ALL.match(line)]
    assert found == []
