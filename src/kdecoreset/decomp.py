"""Scaled kernel Gram matrix, its unit-norm factorization, and the
augmented input vectors for the balancing walk.

The Gram couples the cell's data points (scaled by sqrt(3)) with the
verification grid points (scaled by 1/sqrt(3)); its factor columns are
unit vectors whose inner products reproduce the matrix. Only data points
receive augmented walk inputs; grid columns exist as audit witnesses.

Memory: `build_gram` for n data and g grid points is one (n + g)^2
float64 array (plus `psd_factor`'s working set of the same order); callers
cap g via the schedule's grid budget. `kernel_factor`, which the colorizer
uses, factors a data-only cell by pivoted partial Cholesky on kernel
columns computed on demand: O(n r) memory and O(n r^2) time for numerical
rank r, instead of O(n^2) memory and O(n^3) time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _sq_dists, as_points

__all__ = ["GramFactor", "build_gram", "psd_factor", "kernel_factor", "augment"]

# Eigenvalues in [-EIG_TOL * lambda_max, 0] are numerical noise and clamp
# to zero; anything more negative signals a corrupted input matrix.
EIG_TOL = 1e-8

_BALL_SLACK = 1e-9

# Pivots at or below this are numerically zero; it matches psd_factor's
# 1e-12 eigenvalue floor on a unit-diagonal matrix.
_PIVOT_TOL = 1e-12

# kernel_factor's dense cut-offs: cells of at most _DENSE_MAX points, and
# cells whose pivot count passes n / _RANK_FRACTION, are factored densely.
# The first holds more than bit-identity: pivoting small cells too worsened
# the sup error of spread normal(0, 5) chains (median of 16, 3.14 -> 3.54).
# The second pays off at d = 3 (2000 points, rank 1523: 1.9 s dense vs 3.2 s
# pivoted, one BLAS thread) but not at d = 2, where finishing the pivoting
# is 3-5x faster (450 points, rank 100: 0.03 vs 0.007 s).
_DENSE_MAX = 256
_RANK_FRACTION = 4


def build_gram(points, grids=()):
    """Assemble the scaled kernel Gram matrix for a centered cell.

    Args:
      points: (n, d) data points, required to lie in the unit sup-norm ball
        (cells are centered before calling).
      grids: iterable of Grid descriptors or (g_i, d) arrays contributing
        witness points.

    Returns:
      (N, N) symmetric matrix with unit diagonal, N = n + total grid points,
      ordered data first. Entries are exp(-||a - b||^2) after scaling data
      points by sqrt(3) and grid points by 1/sqrt(3); in particular the
      data/data block is exp(-3 ||p - q||^2).
    """
    pts = _cell_points(points)
    blocks = [np.sqrt(3.0) * pts]
    for g in grids:
        gp = g.points() if hasattr(g, "points") and callable(getattr(g, "points")) else np.asarray(g, dtype=np.float64)
        if gp.ndim != 2 or gp.shape[1] != pts.shape[1]:
            raise ValueError("grid points must be a 2-D array matching the data dimension")
        if gp.shape[0]:
            blocks.append(gp / np.sqrt(3.0))
    scaled = np.concatenate(blocks, axis=0)
    return np.exp(-_sq_dists(scaled, scaled))


def _cell_points(points):
    pts = as_points(points)
    if np.abs(pts).max() > 1.0 + _BALL_SLACK:
        raise ValueError("data point outside the unit sup-norm ball; center the cell first")
    return pts


@dataclass(frozen=True)
class GramFactor:
    """Unit-norm column factor U of a Gram matrix: U^T U reproduces M.

    columns has shape (dim_m, N) with one column per Gram row; the first
    n_data columns belong to data points, the rest to grid witnesses.
    """

    columns: np.ndarray
    n_data: int

    @property
    def dim_m(self):
        return self.columns.shape[0]

    @property
    def data_columns(self):
        return self.columns[:, : self.n_data]

    def gram(self):
        """Reconstruct the inner-product matrix of the columns."""
        return self.columns.T @ self.columns


def _above_noise_floor(w):
    # Ascending eigenvalues above 1e-12 of the largest (taken as at least 1).
    return w > 1e-12 * max(float(w[-1]), 1.0)


def psd_factor(matrix, n_data=None):
    """Factor a symmetric unit-diagonal PSD matrix into unit-norm columns.

    Uses a symmetric eigendecomposition with eigenvalues below the noise
    floor (1e-12 of the largest) clamped to zero; columns are
    sqrt(Lambda) Q^T restricted to the remaining eigenvalues, so the factor
    dimension is the numerical rank. The clamp handles the exact rank
    deficiency that duplicate points and dense grids produce, and it
    perturbs reconstructed inner products by at most ~1e-12 * lambda_max
    entrywise. For data-only cells, `kernel_factor` reaches the same factor
    by pivoted Cholesky stopped at the numerical rank, which never takes a
    zero pivot.

    Raises ValueError when an eigenvalue is below -EIG_TOL * lambda_max,
    which means the input was not (numerically) positive semidefinite.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    # build_gram's output is exactly symmetric; only other input pays for
    # the tolerance check.
    if not ((m == m.T).all() or np.allclose(m, m.T, atol=1e-12)):
        raise ValueError("matrix must be symmetric")
    w, q = np.linalg.eigh(m)
    lam_max = max(float(w[-1]), 0.0)
    if float(w[0]) < -EIG_TOL * max(lam_max, 1.0):
        raise ValueError(
            f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e} "
            f"vs max {lam_max:.3e}"
        )
    keep = _above_noise_floor(w)
    cols = (q[:, keep] * np.sqrt(w[keep])).T
    n = m.shape[0] if n_data is None else int(n_data)
    if not 0 <= n <= m.shape[0]:
        raise ValueError("n_data out of range")
    return GramFactor(columns=np.ascontiguousarray(cols), n_data=n)


def kernel_factor(points):
    """The GramFactor of `build_gram(points)`, without building that matrix.

    Runs pivoted partial Cholesky (Harbrecht, Peters & Schneider, 2012) on
    Gram columns computed on demand: the largest residual diagonal entry
    (first index on ties) is the next pivot, and the factorization stops
    once it is at most 1e-12. The r x n triangular factor L is then rotated
    onto the eigenvectors of L L^T, truncated by psd_factor's rule, so
    dim_m is psd_factor's numerical rank. Entries of the reconstructed Gram
    are within ~1e-11 of build_gram's.

    Cells of at most 256 points, and cells whose pivot count passes n / 4,
    return psd_factor(build_gram(points)) unchanged.
    """
    pts = _cell_points(points)
    n = pts.shape[0]
    if n <= _DENSE_MAX:
        return psd_factor(build_gram(pts))
    s = np.sqrt(3.0) * pts
    max_rank = n // _RANK_FRACTION
    resid = np.ones(n)
    rows = np.empty((min(64, max_rank), n))
    k = 0
    while True:
        j = int(np.argmax(resid))
        pivot = float(resid[j])
        if pivot <= _PIVOT_TOL:
            break
        if k == max_rank:
            return psd_factor(build_gram(pts))
        if k == rows.shape[0]:
            grown = np.empty((min(2 * k, max_rank), n))
            grown[:k] = rows
            rows = grown
        diff = s - s[j]
        col = np.exp(-np.einsum("nd,nd->n", diff, diff))
        row = (col - rows[:k, j] @ rows[:k]) / math.sqrt(pivot)
        rows[k] = row
        resid -= row**2
        resid[j] = 0.0
        k += 1
    low = rows[:k]
    w, q = np.linalg.eigh(low @ low.T)
    keep = _above_noise_floor(w)
    return GramFactor(columns=np.ascontiguousarray(q[:, keep].T @ low), n_data=n)


def augment(factor, points, d=None):
    """Walk input vectors: rows (1; v_p * e^(2 ||p||^2)) / sqrt(1 + e^(4d)).

    v_p is the data column of `factor` for point p. Each row has euclidean
    norm sqrt((1 + e^(4||p||^2)) / (1 + e^(4d))) <= 1 for p in the unit
    sup-norm ball, which is the walk's norm precondition.

    Returns an (n, dim_m + 1) array, one row per data point.
    """
    pts = as_points(points)
    if d is None:
        d = pts.shape[1]
    if factor.n_data != pts.shape[0]:
        raise ValueError("factor data columns do not match the point count")
    sqn = np.einsum("nd,nd->n", pts, pts)
    weights = np.exp(2.0 * sqn)
    scale = 1.0 / math.sqrt(1.0 + math.exp(4.0 * d))
    out = np.empty((pts.shape[0], factor.dim_m + 1), dtype=np.float64)
    out[:, 0] = scale
    out[:, 1:] = (factor.data_columns * weights).T * scale
    return out
