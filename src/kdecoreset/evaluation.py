"""Sup-norm error estimation between KDEs and query-grid construction.

The query grid covers the data's bounding box expanded by the margin
sqrt(3 log n) + 3; beyond that margin both KDEs are below e^(-margin^2),
so the reported analytic tail term bounds the unsearched region. Within
the grid, the measured sup is a lower bound on the true sup, off by at
most the kernel's per-coordinate Lipschitz constant times half the cell
width per axis; that discretization term is reported alongside.

The lattice max is found without summing the far field. A KDE of points
in a box B satisfies KDE(x) <= exp(-dist(x, B)^2), and so does
|KDE_P - KDE_Q| for B the bounding box of P and Q together (the per-box
kernel bound of dual-tree methods: Gray & Moore, "Nonparametric density
estimation: toward computational tractability", SDM 2003). M0, the
largest |KDE_P - KDE_Q| on a coarse sub-lattice of grid points inside B,
is a lower bound on the lattice max, so only grid points with
dist(x, B)^2 <= ln(1 / M0) can hold it. The sums are taken on the axis
rectangle where the per-axis distance to B meets that bound on every
axis, with a slack of 1e-6 in the exponent that keeps rounding from
pruning a point that could reach M0 (M0 = 0, as for Q = P, prunes
nothing). The reported sup, argmax and bounds are those of the whole
grid, up to the last bits that BLAS may sum in another order for the
smaller product; the rectangle's lattice points are counted in
`n_evaluated`.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .kernel import LatticeTables, as_points
from .schedule import Grid

__all__ = [
    "EvalReport",
    "build_query_grid",
    "linf_error",
]

# Per-coordinate Lipschitz constant of exp(-||x - p||^2): max of 2t e^(-t^2).
KERNEL_LIPSCHITZ = math.sqrt(2.0) * math.exp(-0.5)

# Default caps: per-axis resolution n_eff = min(n, MAX_RESOLUTION) and a
# total enumeration budget (an O(n^d) literal grid is infeasible for d >= 2;
# the reported discretization term keeps the estimate sound).
MAX_RESOLUTION = 512
DEFAULT_EVAL_BUDGET = 131072

# At most this many grid points per axis probe for the lower bound M0.
_PROBES_PER_AXIS = 16

# Far-field pruning keeps every point with dist^2 <= ln(1 / M0) + _SLACK.
_SLACK = 1e-6


@dataclass(frozen=True)
class EvalReport:
    """Sup error over a query grid plus the terms bounding the true sup.

    n_queries is the number of grid points the sup covers, n_evaluated
    the number in the rectangle whose KDEs were summed; the others are
    certified below the sup (see the module docstring).
    """

    sup_error: float
    argmax_query: tuple
    grid: Grid
    n_queries: int
    n_evaluated: int
    discretization_bound: float
    tail_bound: float
    runtime_seconds: float = 0.0

    @property
    def upper_bound(self):
        """Analytic upper bound on the true sup over all of R^d, at most 1:
        two KDEs both lie in [0, 1]."""
        return min(max(self.sup_error + self.discretization_bound, self.tail_bound), 1.0)


def expansion_margin(n):
    """Beyond this sup-norm distance from the data, any KDE of n points is
    negligible relative to the verification scale."""
    return math.sqrt(3.0 * math.log(max(n, 2))) + 3.0


def build_query_grid(points, resolution=None, budget=DEFAULT_EVAL_BUDGET, margin=None):
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


def linf_error(points_p, points_q, grid=None, resolution=None, budget=DEFAULT_EVAL_BUDGET):
    """Max over the grid of |kde(P, x) - kde(Q, x)| with soundness terms.

    The gap is one signed sum over the merged rows of P and Q, P weighted
    |Q| and Q weighted -|P|, divided by |P| |Q| after the sum: every merged
    weight is an integer (exact up to 2^53), so linf_error(P, Q) ==
    linf_error(Q, P) exactly, as is the grid built over P and Q when none
    is given. Only the rectangle of grid points that can hold the max is
    summed (see the module docstring).
    """
    start = time.perf_counter()
    p = as_points(points_p)
    q = as_points(points_q, dim=p.shape[1])
    union = np.concatenate([p, q], axis=0)
    if grid is None:
        grid = build_query_grid(union, resolution=resolution, budget=budget,
                                margin=expansion_margin(max(p.shape[0], q.shape[0])))
    elif grid.dim != p.shape[1]:
        raise ValueError(f"dimension mismatch: points have dim {p.shape[1]}, the grid {grid.dim}")
    lo, hi = union.min(axis=0), union.max(axis=0)
    tables = LatticeTables(union)
    weights = np.repeat([float(q.shape[0]), -float(p.shape[0])], [p.shape[0], q.shape[0]])
    scale = float(p.shape[0] * q.shape[0])
    axes = grid.axes()
    # M0 from at most _PROBES_PER_AXIS grid points per axis inside the box
    # (the one nearest its middle where it holds none).
    probes = []
    for axis, a, b in zip(axes, lo, hi):
        inside = axis[(axis >= a) & (axis <= b)]
        if not inside.size:
            inside = axis[[np.argmin(np.abs(axis - (a + b) / 2.0))]]
        probes.append(inside[::math.ceil(inside.size / _PROBES_PER_AXIS)])
    m0 = float(np.abs(tables.sum(weights, probes)).max()) / scale
    reach = _SLACK - math.log(m0) if m0 > 0.0 else math.inf
    # On each sorted axis, the points within reach of the box are one run.
    rect = []
    for axis, a, b in zip(axes, lo, hi):
        near = np.flatnonzero(np.maximum(np.maximum(a - axis, axis - b), 0.0) ** 2 <= reach)
        rect.append(slice(near[0], near[-1] + 1))
    diff = tables.sum(weights, [axis[s] for axis, s in zip(axes, rect)])
    at = int(np.argmax(np.abs(diff, out=diff)))
    index = np.unravel_index(at, [s.stop - s.start for s in rect])
    margin = grid.radius - max(np.maximum(hi - grid.center, grid.center - lo).max(), 0.0)
    tail = 2.0 * math.exp(-margin * margin) if margin > 0 else 2.0
    return EvalReport(
        sup_error=float(diff[at]) / scale,
        argmax_query=tuple(float(axis[s.start + i]) for axis, s, i in zip(axes, rect, index)),
        grid=grid,
        n_queries=grid.count(),
        n_evaluated=diff.size,
        discretization_bound=2.0 * KERNEL_LIPSCHITZ * (grid.width / 2.0) * p.shape[1],
        tail_bound=tail,
        runtime_seconds=time.perf_counter() - start,
    )
