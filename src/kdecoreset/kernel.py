"""Weighted Gaussian kernel sums: the KDE and the signed kernel discrepancy.

Points are rows of float64 arrays and the kernel bandwidth is fixed at 1,
i.e. k(x, y) = exp(-||x - y||^2). To use bandwidth h, rescale coordinates
by 1/h before calling into this module.

Both quantities are sum_p w_p exp(-||x - p||^2): the KDE with w_p = 1/n,
the signed discrepancy with w_p = sigma(p). kernel_sum evaluates it at
arbitrary queries and lattice_sum on a tensor lattice, factoring the
kernel per axis there.

All functions are pure; they can be called concurrently from any number of
threads. Both evaluators reduce through a BLAS matrix product, so their
results are reproducible for a fixed numpy and BLAS build (and are the
same from run to run on one machine), not for a fixed numpy alone.
"""

import numpy as np

__all__ = [
    "as_points",
    "as_coloring",
    "kernel_sum",
    "LatticeTables",
    "lattice_sum",
    "lattice_kde",
]

# Cap on temporary floats per block in batched evaluations.
_BLOCK_ELEMS = 8_000_000


def as_points(points, dim=None, allow_empty=False):
    """Coerce to a finite float64 (n, d) array of points.

    Accepts an (n, d) array or anything np.asarray handles. A 1-D input
    of length d is treated as a single point.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, 1 if dim is None else dim)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array of points, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("point set has non-finite coordinates")
    if not allow_empty and arr.shape[0] == 0:
        raise ValueError("point set is empty")
    if dim is not None and arr.shape[0] and arr.shape[1] != dim:
        raise ValueError(f"dimension mismatch: points have dim {arr.shape[1]}, expected {dim}")
    return arr


def as_coloring(signs, n=None):
    """Coerce to an int64 vector with entries exactly -1 or +1."""
    s = np.asarray(signs)
    if s.ndim != 1:
        raise ValueError("coloring must be one-dimensional")
    out = s.astype(np.int64)
    if not np.array_equal(out, s) or not np.all(np.abs(out) == 1):
        raise ValueError("coloring entries must be exactly -1 or +1")
    if n is not None and out.size != n:
        raise ValueError(f"coloring length {out.size} does not match point count {n}")
    return out


def _sq_dists(queries, points):
    """Squared euclidean distances, shape (q, n), by direct differences.

    Direct differencing (rather than the norm expansion) keeps each entry
    bit-compatible with a per-pair loop, which the naive oracles rely on.
    """
    diff = queries[:, None, :] - points[None, :, :]
    return np.einsum("qnd,qnd->qn", diff, diff)


def kernel_sum(points, weights, queries):
    """sum_p w_p exp(-||x - p||^2) at every query row x, shape (q,).

    A 1-D query is one point, and an empty query set gives an empty vector.
    Queries are taken in blocks whose distance temporaries hold at most
    _BLOCK_ELEMS floats.
    """
    pts = as_points(points)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (pts.shape[0],):
        raise ValueError(f"expected {pts.shape[0]} weights, got shape {w.shape}")
    qs = as_points(queries, dim=pts.shape[1], allow_empty=True)
    block = max(1, _BLOCK_ELEMS // max(1, pts.size))
    out = np.empty(qs.shape[0])
    for start in range(0, qs.shape[0], block):
        out[start:start + block] = np.exp(-_sq_dists(qs[start:start + block], pts)) @ w
    return out


class LatticeTables:
    """Per-axis Gaussian tables of a point set on a tensor-lattice Grid.

    exp(-||s - p||^2) = prod_j exp(-(s_j - p_j)^2), so a weighted kernel sum
    at every lattice point needs one (2k + 1) x m table per axis instead of
    (2k + 1)^d x m kernel values. Identical rows are merged first (their
    weights are summed in sum()), so weights that cancel on duplicates give
    an exact 0 rather than the residue of a fused multiply-add. The merged
    rows are in lexicographic order, the order np.unique(axis=0) gives, and
    inverse maps each input row to its merged row.

    The merged rows are taken in chunks whose d tables together hold at
    most _BLOCK_ELEMS floats, and the chunks' sums are added. When all rows
    fit in one chunk the tables are kept, so one instance serves any number
    of weight vectors at one matrix product each; otherwise each sum()
    rebuilds them chunk by chunk, so memory stays bounded for any n and k.
    """

    __slots__ = ("axes", "rows", "inverse", "_chunk", "_tables")

    def __init__(self, points, grid):
        pts = as_points(points, dim=grid.dim)
        # A lexsort (first column most significant) avoids np.unique's
        # structured-dtype view, which dominates on small cells.
        order = np.lexsort(pts.T[::-1])
        ranked = pts[order]
        new = np.empty(order.size, dtype=bool)
        new[0] = True
        np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
        self.rows = ranked[new]
        self.inverse = np.empty(order.size, dtype=np.intp)
        self.inverse[order] = np.cumsum(new) - 1
        self.axes = grid.axes()
        self._chunk = max(1, _BLOCK_ELEMS // sum(axis.size for axis in self.axes))
        self._tables = self._build(self.rows) if self.rows.shape[0] <= self._chunk else None

    def _build(self, rows):
        tables = []
        for j, axis in enumerate(self.axes):
            t = np.subtract.outer(axis, rows[:, j])
            np.square(t, out=t)
            np.negative(t, out=t)
            tables.append(np.exp(t, out=t))
        return tables

    def sum(self, weights):
        """sum_p w_p exp(-||s - p||^2) at every grid point s, in
        Grid.points() order."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != self.inverse.shape:
            raise ValueError(f"expected {self.inverse.size} weights, got shape {w.shape}")
        merged = np.bincount(self.inverse, weights=w, minlength=self.rows.shape[0])
        if self._tables is not None:
            return _contract(self._tables, merged)
        out = 0.0
        for start in range(0, merged.size, self._chunk):
            part = slice(start, start + self._chunk)
            out = out + _contract(self._build(self.rows[part]), merged[part])
        return out


def lattice_sum(points, weights, grid):
    """sum_p w_p exp(-||s - p||^2) at every point s of `grid`, in
    Grid.points() order.

    Costs d * (2k + 1) * n exps plus (2k + 1)^d * n multiply-adds in BLAS,
    for k = grid.axis_steps(), against (2k + 1)^d * n exps pairwise.
    """
    return LatticeTables(points, grid).sum(weights)


def lattice_kde(points, grid):
    """KDE of `points` at every point of `grid`, in Grid.points() order."""
    pts = as_points(points, dim=grid.dim)
    return lattice_sum(pts, np.ones(pts.shape[0]), grid) / pts.shape[0]


def _contract(tables, w):
    """sum_m w_m prod_j tables[j][i_j, m] for every index tuple (i_1..i_d),
    flattened in C order.

    The leading axes form the rows of a Khatri-Rao product that is
    multiplied against the last axis table. Its trailing (inner) axes are
    built once; the outer ones, if the whole product would exceed
    _BLOCK_ELEMS floats, are looped over, each outer index scaling the
    inner block by its row of weights.
    """
    *lead, last = tables
    m = w.size
    split = len(lead)
    rows = 1
    while split > 0 and rows * lead[split - 1].shape[0] * m <= _BLOCK_ELEMS:
        split -= 1
        rows *= lead[split].shape[0]
    # The first inner table starts the product as it is, uncopied.
    inner = lead[split] if split < len(lead) else np.ones((1, m))
    for t in lead[split + 1:]:
        inner = (inner[:, None, :] * t[None, :, :]).reshape(-1, m)
    outer = tuple(t.shape[0] for t in lead[:split])
    out = np.empty(outer + (rows, last.shape[0]))
    for index in np.ndindex(*outer):
        scale = w
        for t, i in zip(lead, index):
            scale = scale * t[i]
        out[index] = (inner * scale) @ last.T
    return out.reshape(-1)
