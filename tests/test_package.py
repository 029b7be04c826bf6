"""The package's own rules about what it is made of."""

import ast
import dataclasses
import importlib
import pathlib
import re
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
LAYOUT_NAMES = {"RngSpec", "SourceStreams", "source_streams"}


def _names(tree: ast.AST):
    """Every name used in ``tree``: imported, named or read as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _parsed(name: str) -> ast.AST:
    return ast.parse((PACKAGE / name).read_text())


def test_only_photon_sim_handles_the_stream_layout():
    # A source's stream ids, its trains' streams and the chunk keys are
    # defined in photon_sim alone, so no other module builds or picks an
    # RngSpec.  The package's __init__ re-exports RngSpec as public API.
    modules = sorted(PACKAGE.rglob("*.py"))
    users = {path.relative_to(PACKAGE).as_posix(): sorted(set(_names(ast.parse(
        path.read_text()))) & LAYOUT_NAMES) for path in modules}
    assert users.pop("photon_sim.py") == sorted(LAYOUT_NAMES)
    assert users.pop("__init__.py") == ["RngSpec"]
    assert users == {name: [] for name in users}


def _source_takers(tree: ast.AST):
    """The functions in ``tree`` with a ``SourceParams`` parameter or one named ``source``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            if any(arg is not None and (arg.arg == "source" or (
                    arg.annotation is not None and "SourceParams" in _names(arg.annotation)))
                   for arg in params):
                yield node.name


def test_the_analysis_takes_no_source():
    # Only the functions that simulate take a whole source; the analysis is
    # given its clicks, its scan, and of its config the kind and tau.
    assert sorted(_source_takers(_parsed("pipeline.py"))) == ["analyze_source",
                                                                "write_source_clicks"]
    for name in ("correlation.py", "inference.py"):
        assert "SourceParams" not in set(_names(_parsed(name)))


def _write_opens(tree: ast.AST):
    """The line of every ``open`` call in ``tree`` whose mode is not a plain read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "open":
            modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            if any(not (isinstance(m, ast.Constant) and m.value in ("r", "rb")) for m in modes):
                yield node.lineno


def test_the_cli_keeps_no_run_logic():
    # The command line parses flags, calls pipeline and report, and prints:
    # every file is written, and removed on failure, by the module that owns
    # it, and the allocator is set where every caller of the pipeline gets it.
    tree = _parsed("cli.py")
    assert "ctypes" not in set(_imported_roots(tree))
    removes = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and node.attr in ("remove", "unlink", "rmdir", "rmtree")]
    assert removes == []
    assert list(_write_opens(tree)) == []
    users = sorted(path.name for path in PACKAGE.glob("*.py")
                   if "_keep_freed_blocks" in set(_names(ast.parse(path.read_text()))))
    assert users == ["pipeline.py"]


#: What the other modules take from ``photon_sim``: its one way into the
#: simulator, the polarization scan, the layout version, the train names
#: and the pulse-count check.
SIMULATOR_API = {"STREAM_LAYOUT", "TRAINS", "check_pulses", "detected_chunks",
                 "synthesize_phi_scan"}


def _photon_sim_imports(tree: ast.AST):
    """The names ``tree`` imports from ``photon_sim``, or ``photon_sim`` if it imports it whole."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("photon_sim", "qdbench.photon_sim"):
                yield from (alias.name for alias in node.names)
            elif node.module in (None, "qdbench"):
                yield from (alias.name for alias in node.names if alias.name == "photon_sim")
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name == "qdbench.photon_sim")


def test_the_simulator_has_one_way_in():
    # Every train is simulated through detected_chunks; the whole-train
    # functions and their batch type are gone.  The package's __init__
    # re-exports RngSpec and sample_emission_time as public API.
    from qdbench import photon_sim

    used = set()
    for path in PACKAGE.rglob("*.py"):
        if path.name not in ("photon_sim.py", "__init__.py"):
            used |= set(_photon_sim_imports(ast.parse(path.read_text())))
    assert used == SIMULATOR_API
    whole_train = {"EventBatch", "simulate_pulse_train", "hbt_streams", "hom_streams"}
    assert not whole_train & set(dir(photon_sim))
    assert not (whole_train | {"Origin"}) & set(dir(qdbench))


#: Public functions that only tests call: the oracles of acceptance
#: criteria 1, 2 and 3, kept as the independent reference the criteria
#: check the simulation against.
TEST_ORACLES = {"exciton_amplitudes", "peak_emission_delay", "cross_intensity_integral"}
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _top_level_names(tree: ast.Module):
    """The names a module defines at its top level: functions, classes and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (target.id for target in targets if isinstance(target, ast.Name))


def _reads(tree: ast.AST):
    """Every name ``tree`` reads, bare or as an attribute; definitions and imports are not reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_public_name_is_used_only_by_tests():
    # A public name of src/qdbench is read by the package itself, by a
    # script or by the README; the package's __init__ re-exporting it is
    # not a use.
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    public, reads = set(), set()
    for path in modules:
        tree = ast.parse(path.read_text())
        public |= {name for name in _top_level_names(tree) if not name.startswith("_")}
        reads |= set(_reads(tree))
    for path in sorted((ROOT / "scripts").glob("*.py")):
        reads |= set(_reads(ast.parse(path.read_text())))
    readme = (ROOT / "README.md").read_text()
    unread = {name for name in public - reads if not re.search(rf"\b{name}\b", readme)}
    assert unread == TEST_ORACLES


def _public_records():
    """Every public dataclass defined in a module of ``src/qdbench``, by qualified name."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"qdbench.{path.stem}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and isinstance(obj, type)
                    and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__):
                yield f"{path.stem}.{name}", obj


def test_no_two_public_records_share_their_fields():
    # One concept, one record: two records with the same fields are one.
    by_fields = {}
    for name, record in _public_records():
        key = tuple(sorted(f.name for f in dataclasses.fields(record)))
        by_fields.setdefault(key, []).append(name)
    assert [names for names in by_fields.values() if len(names) > 1] == []
