"""What ``import circodes, circodes.cli`` loads.

Most CLI questions are answered in well under a millisecond, so a fresh
``circodes`` process spends its time importing.  No module of the library
imports ``dataclasses``, which would load ``inspect``, ``ast``, ``dis``,
``tokenize``, ``linecache`` and ``copy`` and build each record class from
generated source.  pytest itself loads both modules, so the import is
checked in a fresh interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import circodes

SOURCES = sorted(Path(circodes.__file__).parent.rglob("*.py"))


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the modules that ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_dataclasses():
    assert {p.name for p in SOURCES} >= {"codes.py", "search.py", "constructions.py"}
    assert [p.name for p in SOURCES if "dataclasses" in imported_modules(p)] == []


def test_fresh_import_loads_neither_dataclasses_nor_inspect():
    # -S: the interpreter's own site start-up may load either module
    src = str(Path(circodes.__file__).parent.parent)
    env = os.environ | {"PYTHONPATH": src}
    probe = ("import sys, circodes, circodes.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
