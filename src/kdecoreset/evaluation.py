"""Sup-norm error estimation between KDEs, query-grid construction, and
the Taylor-truncation audit.

The query grid covers the data's bounding box expanded by the margin
sqrt(3 log n) + 3; beyond that margin both KDEs are below e^(-margin^2),
so the reported analytic tail term bounds the unsearched region. Within
the grid, the measured sup is a lower bound on the true sup, off by at
most the kernel's per-coordinate Lipschitz constant times half the cell
width per axis; that discretization term is reported alongside.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .kernel import as_coloring, as_points, lattice_kde
from .schedule import Grid

__all__ = [
    "EvalReport",
    "build_query_grid",
    "linf_error",
    "truncation_order",
    "truncation_audit",
    "discrepancy_profile",
]

# Per-coordinate Lipschitz constant of exp(-||x - p||^2): max of 2t e^(-t^2).
KERNEL_LIPSCHITZ = math.sqrt(2.0) * math.exp(-0.5)

# Default caps: per-axis resolution n_eff = min(n, MAX_RESOLUTION) and a
# total enumeration budget (an O(n^d) literal grid is infeasible for d >= 2;
# the reported discretization term keeps the estimate sound).
MAX_RESOLUTION = 512
DEFAULT_GRID_BUDGET = 131072


@dataclass(frozen=True)
class EvalReport:
    """Sup error over a query grid plus the terms bounding the true sup."""

    sup_error: float
    argmax_query: tuple
    grid: Grid
    n_queries: int
    discretization_bound: float
    tail_bound: float
    runtime_seconds: float = 0.0

    @property
    def upper_bound(self):
        """Analytic upper bound on the true sup over all of R^d."""
        return max(self.sup_error + self.discretization_bound, self.tail_bound)


def expansion_margin(n):
    """Beyond this sup-norm distance from the data, any KDE of n points is
    negligible relative to the verification scale."""
    return math.sqrt(3.0 * math.log(max(n, 2))) + 3.0


def build_query_grid(points, resolution=None, budget=DEFAULT_GRID_BUDGET, margin=None):
    """Query grid for sup-error search.

    The grid is centered on the data's bounding box, extends `margin`
    beyond it per axis (default sqrt(3 log n) + 3), and has cell width
    1/n_eff with n_eff = min(n, MAX_RESOLUTION) unless `resolution`
    overrides n_eff. Enumeration is capped at `budget` points via an
    integer-stride sublattice (pass budget=None for the literal width).
    """
    pts = as_points(points)
    n = pts.shape[0]
    if margin is None:
        margin = expansion_margin(n)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    center = (lo + hi) / 2.0
    radius = float(np.max((hi - lo) / 2.0)) + margin
    n_eff = min(n, MAX_RESOLUTION) if resolution is None else int(resolution)
    if n_eff < 1:
        raise ValueError("resolution must be positive")
    grid = Grid(width=1.0 / n_eff, radius=radius, dim=pts.shape[1], center=tuple(center))
    return grid.coarsened(budget)


def linf_error(points_p, points_q, grid=None, resolution=None, budget=DEFAULT_GRID_BUDGET):
    """Max over the grid of |kde(P, x) - kde(Q, x)| with soundness terms.

    When no grid is given, one is built over the union of both sets, so
    linf_error(P, Q) == linf_error(Q, P) exactly.
    """
    start = time.perf_counter()
    p = as_points(points_p)
    q = as_points(points_q, dim=p.shape[1])
    if grid is None:
        union = np.concatenate([p, q], axis=0)
        grid = build_query_grid(union, resolution=resolution, budget=budget,
                                margin=expansion_margin(max(p.shape[0], q.shape[0])))
    diff = np.abs(lattice_kde(p, grid) - lattice_kde(q, grid))
    at = int(np.argmax(diff))
    axes = grid.axes()
    index = np.unravel_index(at, [axis.size for axis in axes])
    margin = grid.radius - max(np.abs(np.concatenate([p, q]) - np.asarray(grid.center)).max(), 0.0)
    tail = 2.0 * math.exp(-margin * margin) if margin > 0 else 2.0
    return EvalReport(
        sup_error=float(diff[at]),
        argmax_query=tuple(axis[i] for axis, i in zip(axes, index)),
        grid=grid,
        n_queries=diff.size,
        discretization_bound=2.0 * KERNEL_LIPSCHITZ * (grid.width / 2.0) * p.shape[1],
        tail_bound=tail,
        runtime_seconds=time.perf_counter() - start,
    )


def truncation_order(n, d):
    """Truncation order: rho with rho + 1 = ceil(2 e^2 d (sqrt(3 log n) + 3)
    + log n + 2d)."""
    logn = math.log(max(n, 2))
    return math.ceil(2.0 * math.e ** 2 * d * (math.sqrt(3.0 * logn) + 3.0) + logn + 2.0 * d) - 1


def truncation_audit(points, signs, x, rho):
    """Residual of truncating the Taylor expansion of the weighted
    discrepancy kernel at order rho.

    Computes |sum_p sigma(p) e^(2||p||^2) e^(-||x - 3p||^2 / 3)
    - e^(-||x||^2 / 3) sum_p sigma(p) e^(-||p||^2)
      sum_{k <= rho} (2 <x, p>)^k / k!|
    as a scalar series (term magnitudes via log-gamma, so rho ~ 100 does
    not overflow). With rho = truncation_order(n, d) the residual is at most 1
    for cells in the unit ball and queries within the expansion margin.
    """
    pts = as_points(points)
    sigma = as_coloring(signs, n=pts.shape[0]).astype(np.float64)
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    sqn = np.einsum("nd,nd->n", pts, pts)
    d3 = xv[None, :] - 3.0 * pts
    exact = float(np.sum(sigma * np.exp(2.0 * sqn - np.einsum("nd,nd->n", d3, d3) / 3.0)))
    inner = pts @ xv
    ks = np.arange(rho + 1, dtype=np.float64)
    # log |(2u)^k / k!| with sign bookkeeping; u = 0 contributes only k = 0
    # (its k = 0 entry is 0 * -inf, patched below with the exact value 1).
    with np.errstate(divide="ignore", invalid="ignore"):
        log_u = np.log(np.abs(2.0 * inner))
        log_terms = ks[None, :] * log_u[:, None] - _lgamma(ks + 1.0)[None, :]
    signs_k = np.where(inner[:, None] < 0.0, np.where(ks[None, :] % 2 == 1, -1.0, 1.0), 1.0)
    terms = np.where(np.isneginf(log_terms), 0.0, signs_k * np.exp(log_terms))
    terms[:, 0] = 1.0
    series = terms.sum(axis=1)
    truncated = math.exp(-float(xv @ xv) / 3.0) * float(np.sum(sigma * np.exp(-sqn) * series))
    return abs(exact - truncated)


def _lgamma(values):
    return np.vectorize(math.lgamma)(values)


def discrepancy_profile(points, signs, query_points, thresholds=None):
    """Tabulate |signed discrepancy| over query points.

    Returns a dict with the queried points, |D| values, and, when
    per-point thresholds are supplied, the ratio |D| / threshold (the
    quantity verify() maximizes).
    """
    from .kernel import signed_discrepancy_batch

    pts = as_points(points)
    qs = as_points(query_points, dim=pts.shape[1], allow_empty=True)
    disc = np.abs(signed_discrepancy_batch(pts, signs, qs))
    out = {"queries": qs, "abs_discrepancy": disc}
    if thresholds is not None:
        thr = np.asarray(thresholds, dtype=np.float64)
        out["ratios"] = disc / thr
    return out
