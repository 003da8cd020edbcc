"""Coresets for Gaussian kernel density estimation by recursive
discrepancy halving.

The pipeline colors a point set +-1 with a vector-balancing walk applied
to a factored kernel Gram matrix, certifies the coloring against
multi-scale lattice grids (Las Vegas: retry until the deterministic checks
pass), keeps the +1 half, and repeats until the target coreset size is
reached. Also ships a random-sampling baseline, a brute-force coloring
oracle, and a sup-error evaluation harness.
"""

from .colorizer import ColoringFailure, color_all, color_cell, partition, verify
from .coreset import (
    CoresetResult,
    build_coreset,
    halve_indices,
    oracle_min_discrepancy,
    random_baseline,
)
from .decomp import GramFactor, augment, build_gram, psd_factor
from .evaluation import (
    EvalReport,
    build_query_grid,
    linf_error,
    truncation_order,
    truncation_audit,
)
from .kernel import kernel_sum, lattice_kde, lattice_sum
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
from .walk import WalkOutput, gsw_color, subgaussian_audit

__version__ = "0.1.0"

__all__ = [
    "ColoringFailure", "color_all", "color_cell", "partition", "verify",
    "CoresetResult", "build_coreset", "halve_indices",
    "oracle_min_discrepancy", "random_baseline",
    "GramFactor", "augment", "build_gram", "psd_factor",
    "EvalReport", "build_query_grid", "linf_error",
    "truncation_order", "truncation_audit",
    "kernel_sum", "lattice_kde", "lattice_sum",
    "Constants", "Grid", "GridSchedule", "build_schedule", "default_constants",
    "ell", "ilog", "n_sequence",
    "WalkOutput", "gsw_color", "subgaussian_audit",
    "__version__",
]
