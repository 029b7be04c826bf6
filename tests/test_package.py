"""The package's own rules about what it is made of."""

import ast
import pathlib
import sys

import qdbench

PACKAGE = pathlib.Path(qdbench.__file__).resolve().parent
#: What ``src/qdbench`` may import: the standard library, numpy (the one
#: dependency ``pyproject.toml`` declares) and itself.  scipy is for tests.
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qdbench"}


def _imported_roots(tree: ast.AST):
    """The top-level package of every absolute import in ``tree``, function bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library_numpy_and_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "photon_sim.py" in modules
    outside = {path.relative_to(PACKAGE).as_posix():
               sorted(set(_imported_roots(ast.parse(path.read_text()))) - ALLOWED)
               for path in modules}
    assert outside == {name: [] for name in outside}
