"""Verification schedule: iterated-log level count, shrinking radii,
bounded lattice grids, and per-level discrepancy thresholds.

A schedule for a cell of n points consists of the decreasing sequence
n_0 = log^2 n, n_1 = sqrt(3 log n) + 3, n_{i+1} = sqrt(3 * 2^(L-i) * log n_i)
down to level L = ell(n), one lattice grid per level (cell width
1/(c0 * n_i), radius n_{i+1}), and threshold constants. Logs are natural.

Schedules are immutable after construction and safe to share across threads.
build_schedule memoizes them per (n, d, constants), up to _SCHEDULE_CACHE
entries, so color_cell's certification and the CLI's re-verification share
one schedule, and one threshold vector per level, for each cell size and
set of constants. Every n below N_MIN gets one shared fallback schedule.
The colorizer stacks cells by grid shape (level count and per-level axis
lengths), not by schedule: under the default grid budget, every size in
d = 2, 3 and 6 up to at least 5000 points has a one-level grid of one
shape, so each round's cells, and verify's cells of all rounds, form one
stack, each cell on its own schedule's grid and thresholds.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "N_MIN",
    "Constants",
    "default_constants",
    "ilog",
    "ell",
    "n_sequence",
    "Grid",
    "GridSchedule",
    "build_schedule",
]

# Below this cell size the multi-scale recursion degenerates (log^2 n is
# smaller than the cell's own scale) and a single fallback grid is used.
N_MIN = 16

# c1 and c_big default to this and 4x this at d = 1, times _dim_scale(d):
# the factor by which the walk input's balance coordinate 1/sqrt(1 + e^(4d))
# shrinks from d = 1 to d. Accept behaviour still depends on d: from d = 2
# on, all +1 and half-split colorings pass (ROADMAP item 7).
_BASE_C1 = 10.0

# Default cap on enumerated points per verification grid.
DEFAULT_GRID_BUDGET = 4096

# Most schedules build_schedule keeps; once used for verification, each
# holds one threshold vector of at most grid_budget floats per level
# (about 1.8 MB for the 57 schedules of the 71 cell sizes of a 4096-point
# spread chain).
_SCHEDULE_CACHE = 256


def _dim_scale(d):
    return math.sqrt((1.0 + math.exp(4.0 * d)) / (1.0 + math.exp(4.0)))


@dataclass(frozen=True)
class Constants:
    """Threshold constants for a schedule.

    c0 sets the grid resolution, c1 the per-level discrepancy thresholds,
    c_big the cap on |sum sigma|. grid_budget caps the number of enumerated
    points per verification grid (None = enumerate the literal lattice).
    """

    c0: float
    c1: float
    c_big: float
    grid_budget: int | None = DEFAULT_GRID_BUDGET


def default_constants(d, c0=None, c1=None, c_big=None, strict=False,
                      grid_budget=DEFAULT_GRID_BUDGET):
    """Default constants for dimension d.

    The theory only pins these up to "sufficiently large"; the defaults are
    calibrated so that accepted colorings remain certified (the Las Vegas
    check is exact) while retry rates stay near 1 for d <= 3. Strict mode
    restores the inequalities the proofs ask of the constants
    (c1 > c0, c_big >= max(e^(2 d^2), 4 c1 + 7)) and enumerates grids at
    the literal lattice width, which is impractically dense for d >= 2.

    Raises ValueError unless c0, c1 and c_big are finite and positive: a
    nonpositive c1 makes every threshold nonpositive, so verification
    would accept colorings it never checked.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    scale = _dim_scale(d)
    c0 = 20.0 * d if c0 is None else float(c0)
    c1 = _BASE_C1 * scale if c1 is None else float(c1)
    c_big = 4.0 * _BASE_C1 * scale if c_big is None else float(c_big)
    for name, value in (("c0", c0), ("c1", c1), ("c_big", c_big)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"constant {name} must be finite and positive, got {value!r}")
    if strict:
        c1 = max(c1, 2.0 * c0)
        c_big = max(c_big, math.exp(2.0 * d * d), 4.0 * c1 + 7.0)
        grid_budget = None
    return Constants(c0=c0, c1=c1, c_big=c_big, grid_budget=grid_budget)


def ilog(k, n):
    """Iterated natural logarithm: log applied k times to n.

    Returns None (the "undefined-negative" sentinel) when an intermediate
    value drops to <= 0 before the k applications complete, rather than
    raising: callers treat that as "the iteration has bottomed out".
    """
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    v = float(n)
    for _ in range(k):
        if v <= 0.0:
            return None
        v = math.log(v)
    return v


def ell(n):
    """Level count: max(k - 3, 0) for the smallest k with ilog(k, n) < 0
    or undefined."""
    if n < 2:
        raise ValueError("ell(n) requires n >= 2")
    k = 1
    while (v := ilog(k, n)) is not None and v >= 0.0:
        k += 1
    return max(k - 3, 0)


def n_sequence(n):
    """The decreasing sequence [n_0, ..., n_L] for a cell of n points, with
    L = max(ell(n), 1).

    n_0 = log^2 n, n_1 = sqrt(3 log n) + 3, and
    n_{i+1} = sqrt(3 * 2^(L - i) * log n_i) for i = 1, ..., L - 1.
    Raises for n below N_MIN, where the recursion degenerates; callers fall
    back to the single-grid schedule (see build_schedule).
    """
    if n < N_MIN:
        raise ValueError(f"n_sequence: n = {n} is below the degenerate threshold {N_MIN}")
    L = max(ell(n), 1)
    logn = math.log(n)
    seq = [logn * logn, math.sqrt(3.0 * logn) + 3.0]
    for i in range(1, L):
        seq.append(math.sqrt(3.0 * 2.0 ** (L - i) * math.log(seq[i])))
    return seq


@dataclass(frozen=True)
class Grid:
    """A bounded lattice grid: {center + width * (i_1, ..., i_d)} with
    |width * i_j| <= radius for integer i_j."""

    width: float
    radius: float
    dim: int
    center: tuple = None

    def __post_init__(self):
        if self.width <= 0 or self.radius <= 0 or self.dim < 1:
            raise ValueError("grid width, radius and dim must be positive")
        c = (0.0,) * self.dim if self.center is None else tuple(float(v) for v in self.center)
        if len(c) != self.dim:
            raise ValueError("grid center has wrong dimension")
        object.__setattr__(self, "center", c)

    def axis_steps(self):
        # Largest integer k with k * width <= radius; the 1e-9 slop absorbs
        # float division error when radius is an exact multiple of width.
        return int(math.floor(self.radius / self.width + 1e-9))

    def count(self):
        """Closed-form point count (2 * axis_steps + 1)^d."""
        return (2 * self.axis_steps() + 1) ** self.dim

    def axes(self):
        """Per-axis coordinates: the grid is their Cartesian product."""
        k = self.axis_steps()
        offs = self.width * np.arange(-k, k + 1, dtype=np.float64)
        return [offs + self.center[j] for j in range(self.dim)]

    def points(self):
        """Enumerate the grid as an (N, d) array, lexicographic in the
        integer indices; deterministic across calls."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.dim)

    def coarsened(self, max_points):
        """The sparsest-needed integer-stride sublattice with at most
        max_points points. Coarsened points are a subset of this grid's
        points, so every checked point is a genuine lattice point."""
        if max_points is not None and max_points < 1:
            raise ValueError(f"grid point budget must be at least 1, got {max_points}")
        if max_points is None or self.count() <= max_points:
            return self
        per_axis = max(1, int(max_points ** (1.0 / self.dim)))
        stride = max(1, int(math.ceil((2 * self.axis_steps() + 1) / per_axis)))
        g = Grid(self.width * stride, self.radius, self.dim, self.center)
        while g.count() > max_points:
            stride += 1
            g = Grid(self.width * stride, self.radius, self.dim, self.center)
        return g


@dataclass(frozen=True)
class GridSchedule:
    """Grids and thresholds for the cells of one size (of every size below
    N_MIN, for the fallback schedule). seq has length ell + 1; grids has
    length ell."""

    dim: int
    ell: int
    seq: tuple
    constants: Constants
    grids: tuple

    def verification_grids(self):
        """Per-level grids to check during verification, coarsened to the
        constants' budget (strict mode checks the literal width)."""
        return tuple(g.coarsened(self.constants.grid_budget) for g in self.grids)

    @cached_property
    def verification_levels(self):
        """(grid, thresholds) per level: the verification grid and the
        threshold c1 * n_{i+1} * exp(-(2/3)||s - center||^2) at each of its
        points in Grid.points() order, built as an outer product of
        per-axis factors. Computed once per schedule; read-only."""
        levels = []
        for level, grid in enumerate(self.verification_grids()):
            thresholds = np.float64(self.constants.c1 * self.seq[level + 1])
            for axis, c in zip(grid.axes(), grid.center):
                thresholds = np.multiply.outer(thresholds, np.exp(-(2.0 / 3.0) * (axis - c) ** 2))
            thresholds = thresholds.reshape(-1)
            thresholds.setflags(write=False)
            levels.append((grid, thresholds))
        return tuple(levels)


def build_schedule(n, d, constants=None):
    """Build the verification schedule for a cell of n points in R^d.

    Memoized per (n, d, constants), with None standing for
    default_constants(d): equal arguments return the same (immutable)
    schedule.

    For n below N_MIN the multi-scale sequence degenerates; every such n
    shares one fallback schedule: a single grid of width 1/(c0 * N_MIN) and
    radius sqrt(3 log N_MIN) + 3, with seq = [N_MIN, radius].
    """
    if n < 1:
        raise ValueError("cell must contain at least one point")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return _schedule(n if n >= N_MIN else None, d,
                     default_constants(d) if constants is None else constants)


@lru_cache(maxsize=_SCHEDULE_CACHE)
def _schedule(n, d, cst):
    """build_schedule's memoized body; n is None for the fallback schedule."""
    if n is None:
        n_eff = float(N_MIN)
        radius = math.sqrt(3.0 * math.log(n_eff)) + 3.0
        grid = Grid(1.0 / (cst.c0 * n_eff), radius, d)
        return GridSchedule(dim=d, ell=1, seq=(n_eff, radius), constants=cst, grids=(grid,))
    seq = n_sequence(n)
    L = len(seq) - 1
    grids = tuple(Grid(1.0 / (cst.c0 * seq[i]), seq[i + 1], d) for i in range(L))
    return GridSchedule(dim=d, ell=L, seq=tuple(seq), constants=cst, grids=grids)
