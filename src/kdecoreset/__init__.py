"""Coresets for Gaussian kernel density estimation by recursive
discrepancy halving.

The pipeline colors a point set +-1 with a vector-balancing walk applied
to a factored kernel Gram matrix, certifies the coloring against
multi-scale lattice grids (Las Vegas: retry until the deterministic checks
pass), keeps the +1 half, and repeats until the target coreset size is
reached. Also ships a random-sampling baseline, a sup-error evaluation
harness, and a recheck of stored halving rounds.
"""

from .colorizer import ColoringFailure, color_all, color_cell, partition, recheck, verify
from .coreset import CoresetResult, HalvingFailure, build_coreset, halve_indices, random_baseline
from .decomp import build_gram, psd_factor
from .evaluation import EvalReport, build_query_grid, linf_error
from .kernel import kernel_sum, lattice_sum
from .schedule import (
    Constants,
    Grid,
    GridSchedule,
    build_schedule,
    default_constants,
    ell,
    ilog,
    n_sequence,
)
from .walk import WalkOutput, gsw_color

__version__ = "0.1.0"

__all__ = [
    "ColoringFailure", "color_all", "color_cell", "partition", "recheck", "verify",
    "CoresetResult", "HalvingFailure", "build_coreset", "halve_indices", "random_baseline",
    "build_gram", "psd_factor",
    "EvalReport", "build_query_grid", "linf_error",
    "kernel_sum", "lattice_sum",
    "Constants", "Grid", "GridSchedule", "build_schedule", "default_constants",
    "ell", "ilog", "n_sequence",
    "WalkOutput", "gsw_color",
    "__version__",
]
