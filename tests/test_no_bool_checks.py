"""The library tests ``bool`` with ``isinstance`` only inside ``errors.py``.

Whether a value counts as an integer argument (an ``int`` or an int
subclass, ``bool`` never) is decided in one place, ``errors.check_int``.
A second ``isinstance(..., bool)`` elsewhere would be a second copy of that
rule, free to drift from it.
"""

import ast
from pathlib import Path

import circodes

SOURCES = sorted(Path(circodes.__file__).parent.rglob("*.py"))


def bool_tests(path: Path) -> list[str]:
    """Each ``isinstance`` call in ``path`` whose class argument names ``bool``."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and any(isinstance(name, ast.Name) and name.id == "bool"
                    for name in ast.walk(node.args[1]))]


def test_the_rule_lives_in_errors():
    assert bool_tests(Path(circodes.__file__).parent / "errors.py") != []


def test_no_bool_isinstance_outside_errors():
    found = [site for path in SOURCES if path.name != "errors.py"
             for site in bool_tests(path)]
    assert found == []
