"""The package's public surface, and the modules each subcommand loads."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import squarelab

ALL = [
    "AllocationAudit",
    "BenchConfig",
    "BenchRecord",
    "BinaryMatrix",
    "BinaryVolume",
    "CubeResult",
    "DepthFreqMatrix",
    "EdgeKind",
    "FreqState",
    "GenSpec",
    "InvalidCharError",
    "LayerShapeMismatchError",
    "MatrixParseError",
    "PlotTarget",
    "RaggedRowsError",
    "RectResult",
    "SquareResult",
    "VerifyReport",
    "brute_force_cube",
    "brute_force_square",
    "build_histograms",
    "depth_freq_update",
    "dp_full",
    "dp_rows",
    "edge_case_suite",
    "exhaustive_sweep",
    "exists_cube_at_depth",
    "freq_bits",
    "freq_square",
    "freq_square_traced",
    "generate_edge_case",
    "generate_matrix",
    "generate_volume",
    "largest_rect_in_histogram",
    "max_cube",
    "maximal_rectangle",
    "parse_matrix",
    "parse_volume",
    "random_campaign",
    "run_edge_cases",
    "run_grid",
    "serialize_matrix",
    "serialize_volume",
    "trimmed_mean",
    "__version__",
]


SRC = str(Path(squarelab.__file__).parent.parent)


def run_fresh(tmp_path, *argv):
    """Run argv in a fresh interpreter, in tmp_path, on this squarelab."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=60)


# runs `-m module args` or `-c code args` as the interpreter would, and at
# exit writes out sys.modules, so a module loaded by importlib.import_module, which
# `-X importtime` does not report, is listed too; the interpreter's own
# start-up hooks (sitecustomize, .pth files) run as in any other run
LIST_MODULES_AFTER = """import atexit, runpy, sys
listing, flag, target, *args = sys.argv[1:]
sys.argv = [target if flag == "-m" else flag, *args]

def write_listing():
    with open(listing, "w") as out:
        out.write("\\n".join(sys.modules))

atexit.register(write_listing)  # the CLI's entrypoint never returns
if flag == "-m":
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    exec(target, {"__name__": "__main__"})
"""


def loaded_modules(tmp_path, *argv):
    """Every module in sys.modules after a fresh interpreter ran argv."""
    listing = tmp_path / "modules.txt"
    proc = run_fresh(tmp_path, "-c", LIST_MODULES_AFTER, str(listing), *argv)
    assert proc.returncode == 0, proc.stderr
    return set(listing.read_text().split("\n"))


def loaded_submodules(tmp_path, *argv):
    """The squarelab submodules a fresh interpreter imports to run argv."""
    return {name.removeprefix("squarelab.") for name in loaded_modules(tmp_path, *argv)
            if name.startswith("squarelab.")}


def test_import_alone_loads_no_submodule(tmp_path):
    assert loaded_submodules(tmp_path, "-c", "import squarelab") == set()


def test_result_and_error_types_load_only_core(tmp_path):
    # a public name's first access loads its module through importlib
    code = ("import sys, squarelab; squarelab.SquareResult; squarelab.MatrixParseError; "
            "print(sorted(name for name in sys.modules if name.startswith('squarelab.')))")
    proc = run_fresh(tmp_path, "-c", code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['squarelab.core']\n", "")


# subcommand, its input, and every squarelab submodule it loads: no grid,
# squares or cubes, whose source a run with no bytecode would compile
HOT_PATHS = [
    ("solve", "110\n111\n011\n", {"cli", "core", "bitplanes"}),
    ("rect", "110\n111\n011\n", {"cli", "core", "bitplanes", "histogram"}),
    ("cube", "11\n11\n\n11\n11\n", {"cli", "core", "bitplanes"}),
]


@pytest.mark.parametrize("command, text, modules", HOT_PATHS, ids=["solve", "rect", "cube"])
def test_subcommand_loads_only_what_it_runs(tmp_path, command, text, modules):
    (tmp_path / "in.txt").write_text(text)
    assert loaded_submodules(tmp_path, "-m", "squarelab", command, "in.txt") == modules


# the other algorithms take a BinaryMatrix or BinaryVolume, so they load grid,
# and the module of their solver, only when they run
@pytest.mark.parametrize("argv, text, answer, modules", [
    (["solve", "--algo", "freq"], "110\n111\n011\n", "side=2 area=4\n",
     {"cli", "core", "bitplanes", "grid", "squares"}),
    (["cube", "--algo", "brute"], "11\n11\n\n11\n11\n", "side=2\n",
     {"cli", "core", "bitplanes", "grid", "cubes"}),
], ids=["solve-freq", "cube-brute"])
def test_other_algorithms_load_grid_when_they_run(tmp_path, argv, text, answer, modules):
    (tmp_path / "in.txt").write_text(text)
    proc = run_fresh(tmp_path, "-m", "squarelab", *argv, "in.txt")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, answer, "")
    assert loaded_submodules(tmp_path, "-m", "squarelab", *argv, "in.txt") == modules


# a file the bulk check rejects goes to grid's line parser, which core imports
# only then; in-process tests have grid loaded already, so these run fresh
MALFORMED = [
    ("solve", b"110\n10\n011\n", "(line 2): line 2 has 2 cells, expected 3"),
    ("solve", b"110\n1\xff1\n", "(line 2): invalid character '\\udcff' at line 2"),
    ("solve", b"110\n\n011\n", "(line 2): line 2 is blank; a matrix has no blank lines"),
    ("rect", b"110\n10\n011\n", "(line 2): line 2 has 2 cells, expected 3"),
    ("rect", b"110\n1\xff1\n", "(line 2): invalid character '\\udcff' at line 2"),
    ("rect", b"110\n\n011\n", "(line 2): line 2 is blank; a matrix has no blank lines"),
    ("cube", b"11\n11\n\n11\n1\n", "(line 5): line 5 has 1 cells, expected 2"),
    ("cube", b"11\n1\xff\n", "(line 2): invalid character '\\udcff' at line 2"),
    ("cube", b"11\n11\n\n\n11\n11\n", "(line 4): empty layer before line 4"),
]


@pytest.mark.parametrize("command, data, error", MALFORMED,
                         ids=[f"{c}-{k}" for c in ("solve", "rect", "cube")
                              for k in ("ragged", "byte", "blank")])
def test_malformed_file_fails_the_same_in_a_fresh_process(tmp_path, command, data, error):
    (tmp_path / "in.txt").write_bytes(data)
    proc = run_fresh(tmp_path, "-m", "squarelab", command, "in.txt")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"squarelab: parse error {error}\n")


VERIFY_ARGV = ["verify", "--exhaustive-max", "2", "--random-count", "2", "--max-dim", "3"]
# what a plain solve|rect|cube|verify call leaves unloaded: dataclasses, and
# argparse with the gettext and locale it imports, which only the parser in
# commands needs
PARSER_MODULES = {"argparse", "gettext", "locale", "dataclasses"}


@pytest.mark.parametrize("argv, text",
                         [([c, "in.txt"], t) for c, t, _ in HOT_PATHS] + [(VERIFY_ARGV, "")],
                         ids=["solve", "rect", "cube", "verify"])
def test_subcommand_loads_no_dataclasses(tmp_path, argv, text):
    unloaded = PARSER_MODULES - loaded_modules(tmp_path, "-c", "pass")
    if not unloaded:
        pytest.skip("this interpreter loads each of these at start-up")
    (tmp_path / "in.txt").write_text(text)
    assert unloaded & loaded_modules(tmp_path, "-m", "squarelab", *argv) == set()


def test_clean_verify_loads_no_commands(tmp_path):
    # commands holds the parser, and the file writer a finding needs
    assert "commands" not in loaded_submodules(tmp_path, "-m", "squarelab", *VERIFY_ARGV)


# every argv the plain reader declines goes to the parser, which loads commands
@pytest.mark.parametrize("argv", [
    ["gen", "--rows", "2", "--cols", "2", "--density", "0.5"],
    ["verify", "--exhaustive-max", "1", "--random-count", "2", "--max-dim", "3", "--seed=1"],
    ["bench", "--sizes", "4", "--densities", "0.5", "--runs", "1"],
    ["--help"],
    ["solve", "--al", "bits", "in.txt"],
], ids=["gen", "verify", "bench", "help", "solve-abbreviated"])
def test_every_other_argv_loads_the_parser(tmp_path, argv):
    (tmp_path / "in.txt").write_text("110\n111\n011\n")
    assert "commands" in loaded_submodules(tmp_path, "-m", "squarelab", *argv)


def test_gen_loads_no_bench(tmp_path):
    loaded = loaded_submodules(tmp_path, "-m", "squarelab", "gen", "--rows", "2",
                               "--cols", "2", "--density", "0.5")
    assert "cli" in loaded and "bench" not in loaded


def test_all_is_pinned():
    assert squarelab.__all__ == ALL


def test_public_names_are_their_modules_objects():
    for module, names in squarelab._EXPORTS.items():
        defining = importlib.import_module(f"squarelab.{module}")
        for name in names:
            assert getattr(squarelab, name) is getattr(defining, name), name


def test_public_names_are_listed_under_their_defining_module():
    for module, names in squarelab._EXPORTS.items():
        for name in names:
            value = getattr(squarelab, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == f"squarelab.{module}", name


def grid_imports(node):
    """The `from .grid import` statements under an AST node."""
    return {child.lineno for child in ast.walk(node)
            if isinstance(child, ast.ImportFrom) and child.level == 1 and child.module == "grid"}


def test_core_imports_grid_only_in_the_read_fallbacks():
    # core holds the file text; grid, which owns the cell values and the
    # conversions, is loaded only to name the line a malformed file, matrix
    # or volume, fails on, in the reader's one fallback
    tree = ast.parse(Path(squarelab.__file__).with_name("core.py").read_text(encoding="utf-8"))
    fallbacks = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "_raise_line_error"]
    assert len(fallbacks) == 1 and all(map(grid_imports, fallbacks))
    assert grid_imports(tree) == set().union(*map(grid_imports, fallbacks))


def sibling_imports_unused(path):
    """The names `path` imports from a sibling squarelab module and never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name): node.module or "."
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {f"{module}.{name}" for name, module in imported.items() if name not in used}


MODULE_FILES = sorted(path for path in Path(squarelab.__file__).parent.glob("*.py")
                      if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULE_FILES, ids=lambda path: path.stem)
def test_every_sibling_import_is_used(path):
    # a name imported only to be importable from here again is a second home
    # for it; each name is imported from the module that defines it
    assert sibling_imports_unused(path) == set()


def test_every_source_file_parses_with_the_declared_python_floor():
    """pyproject.toml declares Python 3.10 as the floor; every file under
    src/squarelab must parse with 3.10's grammar.  This checks the grammar
    only: a standard-library name or behaviour newer than 3.10 still passes."""
    root = Path(__file__).parent.parent
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text(encoding="utf-8")
    paths = sorted((root / "src" / "squarelab").rglob("*.py"))
    assert len(paths) > 1
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_star_import_binds_all():
    namespace = {}
    exec("from squarelab import *", namespace)
    assert set(ALL) <= namespace.keys()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        squarelab.nope
    assert not hasattr(squarelab, "nope")


def test_submodule_import_gives_the_module():
    from squarelab import verify

    assert verify is sys.modules["squarelab.verify"]
    assert verify.edge_case_suite is squarelab.edge_case_suite


def test_dir_covers_all():
    assert set(ALL) <= set(dir(squarelab))
