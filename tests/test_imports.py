"""Every module-level import is used.

A name imported at the top of a module in ``src/accelcert`` (except the
re-exporting ``__init__.py``) or ``tests`` must be referenced by name
somewhere in that module, so code a change deletes leaves no import behind.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "accelcert"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import never referenced by name."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_checker_flags_an_unused_import():
    source = "import numpy as np\nfrom os import path, sep\n\nprint(path)\n"
    assert unused_imports(source) == [(1, "np"), (2, "sep")]


def test_no_unused_module_level_imports():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted(TESTS.glob("*.py"))
    assert len(modules) > 10
    unused = [
        f"{path.relative_to(TESTS.parent)}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text())
    ]
    assert unused == []
