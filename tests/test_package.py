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


#: Names of the stream layout, which only ``photon_sim`` may use.
LAYOUT_NAMES = {"RngSpec", "SourceStreams"}


def _layout_names(tree: ast.AST):
    """Every use of a ``LAYOUT_NAMES`` name in ``tree``: imported, named or read as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in LAYOUT_NAMES:
            yield name


def test_only_photon_sim_handles_the_stream_layout():
    # A source's stream ids, its trains' streams and the chunk keys are
    # defined in photon_sim alone, so no other module builds or picks an
    # RngSpec.  The package's __init__ re-exports RngSpec as public API.
    modules = sorted(PACKAGE.rglob("*.py"))
    users = {path.relative_to(PACKAGE).as_posix(): sorted(set(_layout_names(ast.parse(
        path.read_text())))) for path in modules}
    assert users.pop("photon_sim.py") == sorted(LAYOUT_NAMES)
    assert users.pop("__init__.py") == ["RngSpec"]
    assert users == {name: [] for name in users}
