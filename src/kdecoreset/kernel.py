"""Weighted Gaussian kernel sums: the KDE and the signed kernel discrepancy.

Points are rows of float64 arrays and the kernel bandwidth is fixed at 1,
i.e. k(x, y) = exp(-||x - y||^2). To use bandwidth h, rescale coordinates
by 1/h before calling into this module.

Both quantities are sum_p w_p exp(-||x - p||^2): the KDE with w_p = 1/n,
the signed discrepancy with w_p = sigma(p). kernel_sum evaluates it at
arbitrary queries and lattice_sum on a tensor lattice, factoring the
kernel per axis there.

Lattice tables set every entry below tiny^(1/d) (2^-511 at d = 2, with
tiny = 2^-1022 the smallest normal float) to exactly 0. So no subnormal
operand, and no subnormal product of d entries, reaches the BLAS
contraction, where subnormal arithmetic runs many times slower on x86.
Where the data prove that no entry falls that low, the tables skip the
floor's scan: with reach the largest |lattice coordinate| plus the largest
|row coordinate|, every per-axis exponent is at most reach^2, so the scan
is skipped when reach^2 <= -ln(tiny^(1/d)) - 1. That holds for every
verification table up to d = 6: a cell's points lie within 1 of its
center and its grids within sqrt(3 ln n) + 3, so reach^2 <=
(sqrt(3 ln n) + 4)^2 <= 115.4 for cells of up to e^(e^e) ~ 3.8 million
points, below 708/6 - 1. Eval lattices skip it where the data are compact
(the acceptance mixture: reach 4-7, against 18.8 at d = 2) and keep it
where they are spread.

Every sum works in blocks of at most _BLOCK_ELEMS floats, so its memory
beyond its output stays bounded for any n, C and k. A lattice sum over
more merged rows than _BLOCK_ELEMS // (sum of the axis lengths), 1,040 on
a 63 x 63 grid, adds the sums of its row chunks in that order.

All functions are pure; they can be called concurrently from any number of
threads. Both evaluators reduce through a BLAS matrix product, so their
results are reproducible for a fixed numpy and BLAS build (and are the
same from run to run on one machine), not for a fixed numpy alone.
"""

import math

import numpy as np

__all__ = [
    "as_points",
    "as_coloring",
    "kernel_sum",
    "LatticeTables",
    "lattice_sum",
]

# Cap on the floats of every block of a kernel sum (1 MiB): query blocks,
# chunks of table rows, blocks of stacked sets and chunks of items.
_BLOCK_ELEMS = 1 << 17

# Smallest normal float64; lattice tables in d dimensions floor at _TINY^(1/d).
_TINY = np.finfo(np.float64).tiny


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
    """Coerce to an int64 vector with entries exactly -1 or +1. The input's
    dtype must be an integer one: True is not +1, nor is 1.0."""
    s = np.asarray(signs)
    if s.dtype.kind not in "iu":
        raise ValueError(f"coloring must have an integer dtype, not {s.dtype}")
    if s.ndim != 1:
        raise ValueError("coloring must be one-dimensional")
    out = s.astype(np.int64)
    if not np.array_equal(out, s) or not np.all(np.abs(out) == 1):
        raise ValueError("coloring entries must be exactly -1 or +1")
    if n is not None and out.size != n:
        raise ValueError(f"coloring length {out.size} does not match point count {n}")
    return out


def _sq_dists(queries, points):
    """Squared euclidean distances, shape (q, n), by direct differences;
    stacks (C, q, d) and (C, n, d) give (C, q, n).

    Direct differencing (rather than the norm expansion), accumulated axis
    by axis, keeps each entry bit-compatible with a per-pair loop, which the
    naive oracles rely on, and holds one (q, n) difference at a time.
    """
    out = np.zeros(np.broadcast_shapes(queries.shape[:-2], points.shape[:-2])
                   + (queries.shape[-2], points.shape[-2]))
    for j in range(queries.shape[-1]):
        diff = queries[..., :, None, j] - points[..., None, :, j]
        out += np.square(diff, out=diff)
    return out


def kernel_sum(points, weights, queries):
    """sum_p w_p exp(-||x - p||^2) at every query row x, shape (q,).

    A 1-D query is one point, and an empty query set gives an empty vector.
    Queries are taken in blocks of q rows with q * n * d <= _BLOCK_ELEMS,
    so each (q, n) distance temporary holds at most _BLOCK_ELEMS / d floats.
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
    """The merged rows of point sets, for weighted Gaussian kernel sums on
    tensor lattices. Each sum takes its lattice: a Grid, or a sequence of d
    per-axis coordinate arrays whose Cartesian product is the lattice (a
    sub-rectangle of a Grid, say). For several sets, the lattice may also
    be a sequence of Grids of one shape (one dimension and one 2k + 1
    points per axis), one per set: each set is then tabulated on its own
    grid's coordinates, and sets stack by grid shape, not by grid.

    exp(-||s - p||^2) = prod_j exp(-(s_j - p_j)^2), so a weighted kernel sum
    at every lattice point needs one (2k + 1) x m table per axis instead of
    (2k + 1)^d x m kernel values. Identical rows are merged first (their
    weights are summed in blocks()), so weights that cancel on duplicates
    give an exact 0 rather than the residue of a fused multiply-add. The
    merged rows are in lexicographic order, the order np.unique(axis=0)
    gives, and rows[inverse] gives back the points.

    `points` is one (n, d) set; or, with `counts`, C sets of counts[c] >= 1
    points each, their rows one set after another (ragged sets, of any
    sizes). The sets share the work: one broadcast exp per axis builds
    their tables in a (C, 2k + 1, m) layout, and one stacked matrix product
    contracts them. Sets are stacked only with sets that merge to the same
    row count m, so each keeps the matrix shapes it has alone and its sums
    are the same bit for bit as in a set of one (padding to a common m
    would change them). For several sets, rows holds every set's merged
    rows in turn, and inverse is flat.

    The instance keeps the merged rows, not tables: each sum builds its
    own, block by block (see blocks()), and folds the weights into them in
    place. So memory stays bounded for any C, n and k, and any number of
    weight vectors can be summed, on any lattices, one after another.
    """

    __slots__ = ("rows", "inverse", "_one", "_groups")

    def __init__(self, points, counts=None):
        self._one = counts is None
        flat = as_points(points)
        if counts is not None:
            sizes = np.asarray(counts, dtype=np.intp)
            if sizes.ndim != 1 or not sizes.size or sizes.min() < 1 or sizes.sum() != len(flat):
                raise ValueError(f"set sizes {sizes.tolist()} do not split {len(flat)} points")
        cells, d = 1 if counts is None else sizes.size, flat.shape[1]
        if cells > 1:
            starts = np.cumsum(sizes) - sizes
        # A lexsort (set, then first column most significant) avoids
        # np.unique's structured-dtype view, which dominates on small cells.
        keys = flat.T[::-1]
        order = np.lexsort((*keys, np.repeat(np.arange(cells), sizes)) if cells > 1 else keys)
        ranked = flat[order]
        new = np.empty(order.size, dtype=bool)
        np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
        new[starts if cells > 1 else 0] = True  # each set's first row starts a merged row
        merged = np.cumsum(new) - 1
        self.rows = ranked[new]
        self.inverse = np.empty(order.size, dtype=np.intp)
        self.inverse[order] = merged
        # Sets with one merged row count m form a group: their set
        # positions, the (c, m) indices of their merged rows (None when one
        # group holds every set in order) and those rows (c, m, d).
        if cells > 1:
            first = merged[starts]
            counts = np.diff(first, append=self.rows.shape[0])
        if cells == 1 or (counts == counts[0]).all():
            self._groups = [(np.arange(cells), None, self.rows.reshape(cells, -1, d))]
        else:
            self._groups = []
            # Not np.unique: its first call imports numpy.ma.
            for m in sorted(set(counts.tolist())):
                sets = np.flatnonzero(counts == m)
                index = first[sets, None] + np.arange(m)
                self._groups.append((sets, index, self.rows[index]))

    def _lattice(self, grid):
        """(axes, which, floor) of a lattice, as sum() takes it: per axis,
        one row of coordinates per distinct lattice (sets of one schedule
        share its Grid object, so its row); per set, the row of its lattice
        (None for one lattice); and the floor of a table entry on it."""
        grids = [grid] if hasattr(grid, "axes") else list(grid)
        which = None
        if hasattr(grids[0], "axes"):
            distinct = list({id(g): g for g in grids}.values())
            if len({(g.dim, g.axis_steps()) for g in distinct}) > 1:
                raise ValueError("the grids of one sum must have one shape")
            axes = [np.stack(coords) for coords in zip(*(g.axes() for g in distinct))]
            if len(distinct) > 1:
                where = {id(g): i for i, g in enumerate(distinct)}
                which = np.array([where[id(g)] for g in grids])
        else:
            grids = [grid]
            axes = [np.asarray(axis, dtype=np.float64)[None] for axis in grid]
        if len(axes) != self.rows.shape[1]:
            raise ValueError(f"dimension mismatch: points have dim {self.rows.shape[1]}, "
                             f"the lattice {len(axes)} axes")
        cells = sum(group[0].size for group in self._groups)
        if len(grids) not in (1, cells):
            raise ValueError(f"expected one grid or {cells} grids, got {len(grids)}")
        return axes, which, _table_floor(axes, self.rows)

    def sum(self, weights, grid):
        """sum_p w_p exp(-||s - p||^2) at every point s of the lattice
        `grid`, in Grid.points() order: shape (G,) for one set's (n,)
        weights, or (C, G) for the flat weights of several sets."""
        cells = sum(group[0].size for group in self._groups)
        out = None
        for sets, part in self.blocks(weights, grid):
            if part.shape[0] == cells:  # one block of every set, in order
                out = part
            else:
                if out is None:
                    out = np.empty((cells, part.shape[1]))
                out[sets] = part
        return out[0] if self._one else out

    def blocks(self, weights, grid):
        """sum()'s sums in blocks of whole sets, as (set positions, (c, G)
        sums of those sets), one merged-row group after another; each block
        is fresh, for the caller to reuse. A block holds as many sets as
        take at most _BLOCK_ELEMS floats at 3 G + m * (sum of axis sizes)
        per set of m merged rows, for its sums, their matrix products and
        the caller's work on them beside its tables. Tables are built in
        chunks of at most _BLOCK_ELEMS // (sum of axis sizes) rows, whose
        sums are added in row order."""
        axes, which, floor = self._lattice(grid)
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != self.inverse.shape:
            raise ValueError(f"expected weights of shape {self.inverse.shape}, got shape {w.shape}")
        merged = np.bincount(self.inverse, weights=w, minlength=self.rows.shape[0])
        sizes = [axis.shape[1] for axis in axes]
        per_row = max(1, _BLOCK_ELEMS // sum(sizes))
        for sets, index, rows in self._groups:
            part = merged.reshape(rows.shape[:2]) if index is None else merged[index]
            m = part.shape[1]
            step = max(1, _BLOCK_ELEMS // (3 * math.prod(sizes) + m * sum(sizes)))
            for start in range(0, sets.size, step):
                block = slice(start, start + step)
                on = axes if which is None else [axis[which[sets[block]]] for axis in axes]
                # No name here keeps a block: it is freed while the next is summed.
                yield sets[block], _block_sum(rows[block], on, floor, part[block], per_row)


def _block_sum(rows, axes, floor, merged, per_row):
    """_contract of a block's (c, m, d) rows with weights (c, m) on `axes`,
    its tables built per chunk of per_row rows."""
    out = None
    for row in range(0, merged.shape[1], per_row):
        chunk = (slice(None), slice(row, row + per_row))
        sums = _contract(_build(rows[chunk], axes, floor), merged[chunk])
        out = sums if out is None else out + sums
    return out


def _build(rows, axes, floor):
    """Tables (c, 2k + 1, m) per axis of a (c, m, d) stack of rows on
    `axes` (per axis one row of coordinates, or one per set), with entries
    below `floor` set to 0 (see the module docstring)."""
    tables = []
    for j, axis in enumerate(axes):
        t = axis[:, :, None] - rows[:, None, :, j]
        np.square(t, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        if floor:
            t[t < floor] = 0.0
        tables.append(t)
    return tables


def _table_floor(axes, rows):
    """The floor of a table entry on lattice `axes` (per axis, its rows of
    coordinates) for merged rows (m, d): _TINY^(1/d), or 0 where no entry
    can fall below it, so _build skips its scan. Each per-axis exponent is
    at most reach^2, for reach the largest |lattice coordinate| plus the
    largest |row coordinate|; one unit of slack covers rounding."""
    floor = _TINY ** (1.0 / rows.shape[1])
    reach = max(float(np.abs(axis).max(initial=0.0)) for axis in axes) + float(np.abs(rows).max())
    return 0.0 if reach * reach <= -math.log(floor) - 1.0 else floor


def lattice_sum(points, weights, grid):
    """sum_p w_p exp(-||s - p||^2) at every point s of `grid` (a Grid or
    per-axis coordinates, as LatticeTables.sum takes), in Grid.points() order.

    Costs d * (2k + 1) * n exps plus (2k + 1)^d * n multiply-adds in BLAS,
    for k = grid.axis_steps(), against (2k + 1)^d * n exps pairwise.
    """
    return LatticeTables(points).sum(weights, grid)


def _contract(tables, w):
    """For each stack item c, sum_m w[c, m] prod_j tables[j][c, i_j, m] for
    every index tuple (i_1..i_d), flattened in C order: shape (C, G).

    The leading axes form the rows of a Khatri-Rao product that is
    multiplied against the last axis table, in one stacked matrix product
    whose items have the shapes a stack of one would have. Its trailing
    (inner) axes are built once per chunk of items; the outer ones, if one
    item's product would exceed _BLOCK_ELEMS floats, are looped over, each
    outer index scaling the inner block by its row of weights. Items are
    taken in chunks whose inner blocks hold at most _BLOCK_ELEMS floats.
    With no outer loop the weights are folded into the inner block in
    place, so the tables are the caller's to give up: the first inner
    table is overwritten. At d = 1 the weights are the inner block.
    """
    *lead, last = tables
    cells, m = w.shape
    split = len(lead)
    rows = 1
    while split > 0 and rows * lead[split - 1].shape[1] * m <= _BLOCK_ELEMS:
        split -= 1
        rows *= lead[split].shape[1]
    outer = tuple(t.shape[1] for t in lead[:split])
    step = max(1, _BLOCK_ELEMS // (rows * m))
    # With one chunk and no outer loop, the one product is the result.
    whole = not outer and step >= cells
    out = None if whole else np.empty((cells,) + outer + (rows, last.shape[1]))
    for start in range(0, cells, step):
        items = slice(start, start + step)
        # The first inner table starts the product as it is, uncopied.
        inner = lead[split][items] if split < len(lead) else None
        for t in lead[split + 1:]:
            inner = (inner[:, :, None, :] * t[items, None, :, :]).reshape(inner.shape[0], -1, m)
        last_t = last[items].transpose(0, 2, 1)
        for index in np.ndindex(*outer):
            scale = w[items, None, :]
            for t, i in zip(lead, index):
                scale = scale * t[items, None, i]
            if inner is None:
                product = scale @ last_t
            elif outer:  # the inner block serves every outer index
                product = (inner * scale) @ last_t
            else:
                product = np.multiply(inner, scale, out=inner) @ last_t
            if whole:
                return product.reshape(cells, -1)
            out[(items,) + index] = product
    return out.reshape(cells, -1)
