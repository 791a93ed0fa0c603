"""Maximal-square algorithms laboratory.

Solvers for the largest all-ones square in a binary matrix (a single-pass
frequency method and its bit-parallel form, plus dynamic-programming and
brute-force references), a histogram-based maximal-rectangle baseline, a 3D
cube extension, differential verification campaigns, and a benchmark harness.
"""

from .bench import (
    BenchConfig,
    BenchRecord,
    PlotTarget,
    run_edge_cases,
    run_grid,
    trimmed_mean,
)
from .cubes import (
    CubeResult,
    DepthFreqMatrix,
    brute_force_cube,
    depth_freq_update,
    exists_cube_at_depth,
    max_cube,
)
from .grid import (
    BinaryMatrix,
    BinaryVolume,
    EdgeKind,
    GenSpec,
    InvalidCharError,
    LayerShapeMismatchError,
    MatrixParseError,
    RaggedRowsError,
    generate_edge_case,
    generate_matrix,
    generate_volume,
    parse_matrix,
    parse_volume,
    serialize_matrix,
    serialize_volume,
)
from .histogram import (
    RectResult,
    build_histograms,
    largest_rect_in_histogram,
    maximal_rectangle,
)
from .squares import (
    AllocationAudit,
    FreqState,
    SquareResult,
    brute_force_square,
    dp_full,
    dp_rows,
    freq_bits,
    freq_square,
    freq_square_traced,
)
from .verify import (
    VerifyReport,
    edge_case_suite,
    exhaustive_sweep,
    random_campaign,
)

__version__ = "0.1.0"

__all__ = [
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
