"""Every module-level import and private name is used.

A name imported at the top of a module in ``src/accelcert`` (except the
re-exporting ``__init__.py``) or ``tests`` must be referenced by name
somewhere in that module, and a module-level private name (``_name``,
defined by a def, class or assignment, tuple, list and starred targets
included) in ``src/accelcert`` must be referenced somewhere in the
package, so code a change deletes leaves no import or helper behind.
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


def target_names(target: ast.expr) -> list[str]:
    """The names an assignment target binds, through tuple, list and starred
    targets; attribute and subscript targets bind none."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in target_names(elt)]
    if isinstance(target, ast.Starred):
        return target_names(target.value)
    return []


def dead_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each module-level private def, class or
    assignment in ``sources`` (module -> source) that no module references."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [name for t in node.targets for name in target_names(t)]
            elif isinstance(node, ast.AnnAssign):
                names = target_names(node.target)
            else:
                continue
            dead += [(module, node.lineno, name) for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in used]
    return dead


def test_checker_flags_a_dead_private_name():
    sources = {
        "a": "_LIVE = 1\n_DEAD = 2\n\ndef _helper():\n    return _LIVE\n",
        "b": "from a import _helper\n\nclass _Orphan:\n    pass\n",
        "c": "_A, _B = 1, 2\nprint(_A)\n_C = 3\n",
        "d": "[_D, *_E] = 1, 2\nprint(_D)\n",
    }
    assert dead_private_names(sources) == [
        ("a", 2, "_DEAD"), ("b", 3, "_Orphan"), ("c", 1, "_B"), ("c", 3, "_C"), ("d", 1, "_E"),
    ]


def test_no_dead_private_names_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 5
    assert dead_private_names(sources) == []
