"""The library holds no ``assert`` statement.

Every check the library makes must still run under ``python -O``, which
strips asserts; the CI step that runs the suite with ``-O`` relies on it.
"""

import ast
from pathlib import Path

import circodes

SOURCES = sorted(Path(circodes.__file__).parent.rglob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"codes.py", "search.py", "constructions.py"}


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
