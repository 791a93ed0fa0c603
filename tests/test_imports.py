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


def run_fresh(tmp_path, *argv):
    """Run argv in a fresh interpreter, in tmp_path, on this squarelab."""
    env = dict(os.environ, PYTHONPATH=str(Path(squarelab.__file__).parent.parent))
    return subprocess.run([sys.executable, *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=60)


def loaded_modules(tmp_path, *argv):
    """Every module a fresh interpreter imports to run argv, read from the
    `-X importtime` report on stderr."""
    proc = run_fresh(tmp_path, "-X", "importtime", *argv)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


def loaded_submodules(tmp_path, *argv):
    """The squarelab submodules a fresh interpreter imports to run argv."""
    return {name.removeprefix("squarelab.") for name in loaded_modules(tmp_path, *argv)
            if name.startswith("squarelab.")}


def test_import_alone_loads_no_submodule(tmp_path):
    assert loaded_submodules(tmp_path, "-c", "import squarelab") == set()


def test_result_and_error_types_load_only_core(tmp_path):
    # read from sys.modules: `-X importtime` reports import statements only,
    # not the importlib.import_module call a public name's first access makes
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


@pytest.mark.parametrize("argv, text",
                         [([c, "in.txt"], t) for c, t, _ in HOT_PATHS] + [(VERIFY_ARGV, "")],
                         ids=["solve", "rect", "cube", "verify"])
def test_subcommand_loads_no_dataclasses(tmp_path, argv, text):
    if "dataclasses" in loaded_modules(tmp_path, "-c", "pass"):
        pytest.skip("this interpreter loads dataclasses at start-up")
    (tmp_path / "in.txt").write_text(text)
    assert "dataclasses" not in loaded_modules(tmp_path, "-m", "squarelab", *argv)


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
