"""Scaled kernel Gram matrix, its factorization into (nearly) unit-norm
columns, the augmented vectors, and the balancing walk's input: their top
singular directions (walk_input).

The Gram couples the cell's data points (scaled by sqrt(3)) with the
verification grid points (scaled by 1/sqrt(3)); the inner products of its
factor columns reproduce the matrix. Only data points receive augmented
walk inputs; grid columns exist as audit witnesses.

Memory: `build_gram` for n data and g grid points is one (n + g)^2
float64 array (plus `psd_factor`'s working set of the same order); callers
cap g via the schedule's grid budget. `kernel_factor`, which the colorizer
uses, factors every data-only cell of more than `_DENSE_MAX` points by
pivoted partial Cholesky on kernel columns computed on demand, to a proved
entrywise error of at most `_ERROR_BUDGET`: O(n r + r^2) memory and
O(n r^2 + r^3) time for pivot count r, and never an n x n array. Small
cells take the dense route, which factors a stack of cells of one size at
once: one `build_gram` and one stacked eigh per chunk of cells, whose Gram
temporaries hold no more floats than those of one `_DENSE_MAX`-point
cell. A single cell is a stack of one. `walk_input` holds the augmented
vectors x (n x (dim_m + 1)) while numpy's SVD of x holds about 3.8 times
as much again, its left singular vectors included: 14.9 MB of peak RSS
for the 2574 x 201 x of the benchmark mixture's largest cell.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _sq_dists, as_points

__all__ = ["GramFactor", "build_gram", "psd_factor", "kernel_factor", "augment", "walk_input"]

# Eigenvalues in [-EIG_TOL * lambda_max, 0] are numerical noise and clamp
# to zero; anything more negative signals a corrupted input matrix.
EIG_TOL = 1e-8

_BALL_SLACK = 1e-9

# kernel_factor pivots until every residual diagonal entry is at most
# _PIVOT_TOL, then drops eigen-directions of the pivoted factor while every
# Gram entry stays within _ERROR_BUDGET; the pivoting takes 1e-12 of it.
_PIVOT_TOL = 1e-12
_ERROR_BUDGET = 5e-11

# kernel_factor factors cells of at most _DENSE_MAX points densely. Pivoting
# small cells too worsened the sup error of spread normal(0, 5) chains
# (median of 16, 3.14 -> 3.54).
_DENSE_MAX = 256

# walk_input keeps the top singular directions of a cell's augmented
# vectors and drops a tail of at most TAU of their squared Frobenius norm.
TAU = 1e-3


def build_gram(points, grids=()):
    """Assemble the scaled kernel Gram matrix for a centered cell.

    Args:
      points: (n, d) data points, required to lie in the unit sup-norm ball
        (cells are centered before calling), or a stack (C, n, d) of such
        sets of one size.
      grids: iterable of Grid descriptors or (g_i, d) arrays contributing
        witness points.

    Returns:
      (N, N) symmetric matrix with unit diagonal, N = n + total grid points,
      ordered data first. Entries are exp(-||a - b||^2) after scaling data
      points by sqrt(3) and grid points by 1/sqrt(3); in particular the
      data/data block is exp(-3 ||p - q||^2). A stack gives (C, N, N),
      each matrix the one its set gets alone, bit for bit.
    """
    pts = _cell_points(points)
    blocks = [np.sqrt(3.0) * pts]
    for g in grids:
        gp = g.points() if hasattr(g, "points") and callable(getattr(g, "points")) else np.asarray(g, dtype=np.float64)
        if gp.ndim != 2 or gp.shape[1] != pts.shape[-1]:
            raise ValueError("grid points must be a 2-D array matching the data dimension")
        if gp.shape[0]:
            blocks.append(np.broadcast_to(gp / np.sqrt(3.0), pts.shape[:-2] + gp.shape))
    scaled = np.concatenate(blocks, axis=-2)
    return np.exp(-_sq_dists(scaled, scaled))


def _cell_points(points):
    """`points` as one (n, d) set or a (C, n, d) stack, checked finite,
    nonempty and in the unit sup-norm ball."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 3:
        as_points(pts.reshape(-1, pts.shape[2]))
    else:
        pts = as_points(pts)
    if np.abs(pts).max() > 1.0 + _BALL_SLACK:
        raise ValueError("data point outside the unit sup-norm ball; center the cell first")
    return pts


@dataclass(frozen=True)
class GramFactor:
    """Column factor U of a unit-diagonal Gram matrix: U^T U reproduces M.

    columns has shape (dim_m, N) with one column per Gram row; the first
    n_data columns belong to data points, the rest to grid witnesses.
    Column norms are 1 within the factor's error: psd_factor's clamp, or
    kernel_factor's budget of 5e-11 on squared norms.
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


def psd_factor(matrix, n_data=None):
    """Factor a symmetric unit-diagonal PSD matrix into unit-norm columns.

    Uses a symmetric eigendecomposition with eigenvalues below the noise
    floor (1e-12 of the largest) clamped to zero; columns are
    sqrt(Lambda) Q^T restricted to the remaining eigenvalues, so the factor
    dimension is the numerical rank. The clamp handles the exact rank
    deficiency that duplicate points and dense grids produce, and it
    perturbs reconstructed inner products by at most ~1e-12 * lambda_max
    entrywise. Data-only cells of more than 256 points take
    `kernel_factor`'s pivoted route instead, whose factor is truncated by
    an absolute error budget, not by this relative floor.

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
    n = m.shape[0] if n_data is None else int(n_data)
    if not 0 <= n <= m.shape[0]:
        raise ValueError("n_data out of range")
    return _eigen_factor(*np.linalg.eigh(m), n)


def _eigen_factor(w, q, n_data):
    """psd_factor's PSD check and truncation of one eigendecomposition."""
    lam_max = max(float(w[-1]), 0.0)
    if float(w[0]) < -EIG_TOL * max(lam_max, 1.0):
        raise ValueError(
            f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e} "
            f"vs max {lam_max:.3e}"
        )
    keep = w > 1e-12 * max(lam_max, 1.0)
    cols = (q[:, keep] * np.sqrt(w[keep])).T
    return GramFactor(columns=np.ascontiguousarray(cols), n_data=n_data)


def kernel_factor(points):
    """The GramFactor of `build_gram(points)`, without building that matrix.

    Cells of more than 256 points run pivoted partial Cholesky (Harbrecht,
    Peters & Schneider, 2012) on Gram columns computed on demand: the
    largest residual diagonal entry (first index on ties) is the next
    pivot, and the factorization stops once every one is at most 1e-12.
    The r x n factor L is then rotated onto the eigenvectors of L L^T, and
    the weakest directions are dropped while each column's lost squared
    norm plus its residual diagonal stays at most 5e-11. What is left out,
    the pivoting's Schur complement plus the dropped directions, is PSD, so
    its largest entry is on its diagonal: every reconstructed Gram entry is
    within 5e-11 of build_gram's, up to rounding, and build_gram is never
    called.

    Cells of at most 256 points return psd_factor(build_gram(points))
    unchanged.

    `points` may be a stack of C cells of one size, (C, n, d); the result
    is then an iterator over the cells' factors, computed as they are
    taken. Cells of at most 256 points are factored in chunks that share
    one build_gram and one stacked eigh, each factor the one its cell gets
    alone, bit for bit.
    """
    pts = _cell_points(points)
    stack = pts if pts.ndim == 3 else pts[None]
    factors = _dense_factors(stack) if stack.shape[1] <= _DENSE_MAX else map(_pivoted_factor, stack)
    return factors if pts.ndim == 3 else next(factors)


def _dense_factors(stack):
    """psd_factor(build_gram(cell)) for each cell of a (C, n, d) stack,
    lazily, in chunks whose Gram temporaries hold no more floats than one
    _DENSE_MAX-point cell's. build_gram frees its distance temporaries
    before eigh starts."""
    cells, n, _ = stack.shape
    step = max(1, _DENSE_MAX ** 2 // n ** 2)
    for start in range(0, cells, step):
        w, q = np.linalg.eigh(build_gram(stack[start:start + step]))
        for item in zip(w, q):
            yield _eigen_factor(*item, n)


def _pivoted_factor(pts):
    """kernel_factor of one cell of more than _DENSE_MAX points."""
    n = pts.shape[0]
    s = np.sqrt(3.0) * pts
    resid = np.ones(n)
    rows = np.empty((64, n))
    k = 0
    while True:
        j = int(np.argmax(resid))
        pivot = float(resid[j])
        if pivot <= _PIVOT_TOL:
            break
        if k == rows.shape[0]:
            grown = np.empty((min(2 * k, n), n))
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
    # Dropping eigen-direction i takes (q_i . low_p)^2 from column p's
    # squared norm; those sum to w_i over p, so only w_i <= budget * n can
    # drop. The rest of the residual is the pivoting's, also PSD.
    cand = int(np.searchsorted(w, _ERROR_BUDGET * n, "right"))
    lost = q[:, :cand].T @ low
    np.square(lost, out=lost)
    np.cumsum(lost, axis=0, out=lost)
    lost += np.maximum(resid, 0.0)
    # Each row's max is at least the one before it, so the rows within
    # the budget come first.
    drop = np.count_nonzero(lost.max(axis=1) <= _ERROR_BUDGET)
    del lost
    return GramFactor(columns=q[:, drop:].T @ low, n_data=n)


def walk_input(factor, points):
    """The walk's input for a cell: augment(factor, points) on its top
    singular directions.

    With x = augment(factor, points) = U S V^T (thin SVD), the rows of
    U S = x V have the inner products of x's rows. Only the first r
    directions are kept, r the fewest whose dropped tail of squared
    singular values sum(s[r:]^2) is at most TAU * ||x||_F^2 (the trace of
    the rows' Gram). Any ±1 coloring's signed sum then moves by a squared
    norm of at most n * TAU * ||x||_F^2, and every row's norm is at most
    its norm in x, so at most 1.

    Returns an (n, r) array, 1 <= r <= dim_m + 1.
    """
    x = augment(factor, points)
    del factor  # the caller's only reference, freed before the SVD's copies of x
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    del x  # lowered the mixture chain's peak RSS by about 0.3 MB
    tail = np.cumsum((s * s)[::-1])[::-1]
    r = np.count_nonzero(tail > TAU * tail[0])
    return u[:, :r] * s[:r]


def augment(factor, points):
    """Augmented vectors: rows (1; v_p * e^(2 ||p||^2)) / sqrt(1 + e^(4d)).

    v_p is the data column of `factor` for point p and d the dimension of
    `points`. Each row has euclidean norm sqrt((1 + e^(4||p||^2)) /
    (1 + e^(4d))) <= 1 for p in the unit sup-norm ball, which is the
    walk's norm precondition.

    Returns an (n, dim_m + 1) array, one row per data point.
    """
    pts = as_points(points)
    if factor.n_data != pts.shape[0]:
        raise ValueError("factor data columns do not match the point count")
    sqn = np.einsum("nd,nd->n", pts, pts)
    weights = np.exp(2.0 * sqn)
    scale = 1.0 / math.sqrt(1.0 + math.exp(4.0 * pts.shape[1]))
    out = np.empty((pts.shape[0], factor.dim_m + 1), dtype=np.float64)
    out[:, 0] = scale
    # (v_p * w_p) * scale, written in place: no n x dim_m temporaries.
    columns = out[:, 1:]
    np.multiply(factor.data_columns.T, weights[:, None], out=columns)
    columns *= scale
    return out
