"""Maximal-square algorithms laboratory.

Solvers for the largest all-ones square in a binary matrix (a single-pass
frequency method and its bit-parallel form, plus dynamic-programming and
brute-force references), a histogram-based maximal-rectangle baseline, a 3D
cube extension, differential verification campaigns, and a benchmark harness.

Each public name is declared once, in _EXPORTS, under the module that defines
it, and that module is imported on first access, so `import squarelab` loads
no submodule and a result or error type loads only `core`.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "bench": ("BenchConfig", "BenchRecord", "run_edge_cases", "run_grid", "trimmed_mean"),
    "core": (
        "CubeResult", "InvalidCharError", "LayerShapeMismatchError", "MatrixParseError",
        "PlotTarget", "RaggedRowsError", "RectResult", "SquareResult",
    ),
    "cubes": (
        "DepthFreqMatrix", "brute_force_cube", "depth_freq_update", "exists_cube_at_depth",
        "max_cube",
    ),
    "grid": (
        "BinaryMatrix", "BinaryVolume", "EdgeKind", "GenSpec", "generate_edge_case",
        "generate_matrix", "generate_volume", "parse_matrix", "parse_volume",
        "serialize_matrix", "serialize_volume",
    ),
    "histogram": ("build_histograms", "largest_rect_in_histogram", "maximal_rectangle"),
    "squares": (
        "AllocationAudit", "FreqState", "brute_force_square", "dp_full", "dp_rows",
        "freq_bits", "freq_square", "freq_square_traced",
    ),
    "verify": ("VerifyReport", "edge_case_suite", "exhaustive_sweep", "random_campaign"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
