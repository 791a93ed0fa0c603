"""The package's public surface, and the modules each subcommand loads."""

import importlib
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


def loaded_modules(tmp_path, *argv):
    """Every module a fresh interpreter imports to run argv, read from the
    `-X importtime` report on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(squarelab.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


def loaded_submodules(tmp_path, *argv):
    """The squarelab submodules a fresh interpreter imports to run argv."""
    return {name.removeprefix("squarelab.") for name in loaded_modules(tmp_path, *argv)
            if name.startswith("squarelab.")}


def test_import_alone_loads_no_submodule(tmp_path):
    assert loaded_submodules(tmp_path, "-c", "import squarelab") == set()


HOT_PATHS = [
    ("solve", "110\n111\n011\n", {"bench", "cubes", "histogram", "verify"}),
    ("rect", "110\n111\n011\n", {"bench", "cubes", "squares", "verify"}),
    ("cube", "11\n11\n\n11\n11\n", {"bench", "histogram", "squares", "verify"}),
]


@pytest.mark.parametrize("command, text, unused", HOT_PATHS, ids=["solve", "rect", "cube"])
def test_subcommand_loads_only_what_it_runs(tmp_path, command, text, unused):
    (tmp_path / "in.txt").write_text(text)
    loaded = loaded_submodules(tmp_path, "-m", "squarelab", command, "in.txt")
    assert "cli" in loaded
    assert not loaded & unused


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
