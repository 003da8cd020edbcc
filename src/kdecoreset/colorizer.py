"""End-to-end low-discrepancy coloring: partition into unit sup-norm cells,
per-cell balancing walk with Las Vegas grid verification, and balance flips.

Each cell is the set of points nearest (in sup norm) to one site of the
side-2 integer lattice; after translating by the site, a cell lies in the
unit ball, which is the precondition of the per-cell guarantees. Colorings
are translation invariant, so cells are processed centered and never
un-centered. Identical points in a cell are paired off with opposite signs
and only the rest is walked. Verification grids are lattices in centered
coordinates; each cell tabulates its kernel per grid axis once and reuses
the tables for every coloring it checks.

Cells could be colored concurrently (seeds are split per cell); this
implementation processes them sequentially in lexicographic center order,
which is also the deterministic report order.
"""

from dataclasses import dataclass

import numpy as np

from .decomp import augment, kernel_factor
from .kernel import LatticeTables, as_coloring, as_points
from .schedule import build_schedule
from .walk import gsw_color

__all__ = [
    "CellAssignment",
    "CellColoringReport",
    "ColoringFailure",
    "partition",
    "verify",
    "balance_flips",
    "color_cell",
    "color_all",
]

DEFAULT_RETRY_BUDGET = 64


class ColoringFailure(RuntimeError):
    """Raised when a cell exhausts its retry budget.

    Accepted colorings are certified unconditionally; running out of
    retries therefore signals miscalibrated constants, which the message
    surfaces.
    """

    def __init__(self, cell_center, size, retries, constants, max_ratio):
        self.cell_center = tuple(cell_center)
        self.size = size
        self.retries = retries
        self.constants = constants
        self.max_ratio = max_ratio
        super().__init__(
            f"cell at {self.cell_center} (n={size}) failed verification "
            f"{retries} times (last max threshold ratio {max_ratio:.3g}); "
            f"constants c0={constants.c0:.6g} c1={constants.c1:.6g} "
            f"c_big={constants.c_big:.6g} are likely miscalibrated"
        )


@dataclass(frozen=True)
class CellAssignment:
    """One nonempty cell: its side-2 lattice center and member indices."""

    center: tuple
    members: np.ndarray


@dataclass(frozen=True)
class CellColoringReport:
    """Outcome of coloring one cell.

    coloring: final signs over members (post flip).
    flipped: member positions whose sign was flipped for balance.
    retries: failed verification attempts before acceptance.
    max_grid_ratio: max |discrepancy| / threshold over all checked grid
      points for the accepted (pre-flip) coloring; < 1 by construction.
    """

    center: tuple
    members: np.ndarray
    coloring: np.ndarray
    retries: int
    flipped: np.ndarray
    max_grid_ratio: float
    imbalance_before_flip: int

    @property
    def accepted_coloring(self):
        """The coloring that passed verification, before balance flips."""
        signs = self.coloring.copy()
        signs[self.flipped] *= -1
        return signs


def partition(points):
    """Assign each point to its nearest side-2 lattice site,
    2 * ceil((x - 1) / 2) per coordinate, as a tuple of Python floats.

    Returns nonempty CellAssignments sorted by center (lexicographic);
    members are ascending original indices and the cells partition the
    input. Every member is within sup-norm distance 1 of its center.
    """
    pts = as_points(points)
    centers = 2.0 * np.ceil((pts - 1.0) / 2.0)
    # From 2^53 on, x - 1 can round across a site; move such centers one site toward x.
    off = pts - centers
    far = np.abs(off) > 1.0
    if far.any():
        centers[far] += 2.0 * np.sign(off[far])
    # A stable sort (first column most significant) lists each cell's members
    # as one run in ascending order; -0.0 and 0.0 tie, and the run's first
    # member supplies the cell's center. Points of dimension 0 share one cell.
    order = np.lexsort(centers.T[::-1]) if pts.shape[1] else np.arange(len(pts))
    ranked = centers[order]
    starts = np.flatnonzero(np.any(ranked[1:] != ranked[:-1], axis=1)) + 1
    return [
        CellAssignment(center=tuple(c), members=idx)
        for c, idx in zip(ranked[np.r_[0, starts]].tolist(), np.split(order, starts))
    ]


def _cell_tables(points_centered, schedule):
    # The per-axis tables depend on the cell's points and the grids, not on
    # the signs: built once per cell, then each check is one matrix product.
    return [LatticeTables(points_centered, grid) for grid, _ in schedule.verification_levels]


def verify(points_centered, signs, schedule, tables=None):
    """Check a cell coloring against every grid threshold.

    Passes iff |sum_p sigma(p) e^(-||s - p||^2)| < c1 * n_{i+1} *
    e^(-(2/3)||s||^2) strictly at every checked grid point s of every level
    and |sum sigma| <= c_big. `tables` may carry the cell's LatticeTables
    per level, to reuse them across colorings of the same cell.

    Returns (passed, max_ratio, imbalance) where max_ratio is the worst
    |discrepancy| / threshold over all checked points.
    """
    pts = as_points(points_centered)
    if len(signs) != pts.shape[0]:
        raise ValueError("coloring length does not match the cell size")
    sigma = as_coloring(signs)
    if tables is None:
        tables = _cell_tables(pts, schedule)
    max_ratio = 0.0
    for (_, thresholds), cell_tables in zip(schedule.verification_levels, tables):
        disc = cell_tables.sum(sigma)
        max_ratio = max(max_ratio, float(np.max(np.abs(disc) / thresholds)))
    imbalance = int(np.sum(sigma))
    passed = max_ratio < 1.0 and abs(imbalance) <= schedule.constants.c_big
    return passed, max_ratio, imbalance


def _pair_duplicates(group):
    """Pair each point with the last unpaired point of its merged row
    (group[i]) and sign the later one -1, so pairs cancel exactly; the walk
    would move identical vectors in lockstep to one sign. Returns the signs
    and the ascending unpaired positions."""
    signs = np.ones(group.size, dtype=np.int64)
    unpaired = {}
    for i, g in enumerate(group.tolist()):
        if unpaired.pop(g, None) is None:
            unpaired[g] = i
        else:
            signs[i] = -1
    return signs, np.array(sorted(unpaired.values()), dtype=np.intp)


def balance_flips(signs):
    """Positions to flip so that a ±1 coloring has |#(+1) - #(-1)| <= 1: the
    fewest majority-sign entries, ascending from the lowest; `signs` is unchanged."""
    total = int(signs.sum())
    if abs(total) < 2:
        return np.empty(0, dtype=np.intp)
    return (signs == (1 if total > 0 else -1)).nonzero()[0][:abs(total) // 2]


def color_cell(cell, points, constants, seed, retry_budget=DEFAULT_RETRY_BUDGET):
    """Color one cell: walk, verify (Las Vegas), then balance-flip.

    Args:
      cell: CellAssignment for this cell.
      points: the full (n, d) point set the members index into; only the
        members' rows are read and validated.
      constants: Constants, or None for default_constants(d); the coloring
        is certified against build_schedule(cell size, d, constants).
      seed: integer or SeedSequence; attempt k uses the k-th split, which
        is spawned only when the attempt starts.
      retry_budget: walk attempts before raising ColoringFailure; at
        least 1. A cell left with at most two unpaired points gets one
        attempt at the fixed coloring (+1, -1) and no walk.

    Returns a CellColoringReport. The gram factorization is deterministic,
    so it is built once and only the walk reruns on retries.
    """
    if retry_budget < 1:
        raise ValueError(f"retry budget must be at least 1, got {retry_budget}")
    if cell.members.size == 0:
        raise ValueError("cannot color an empty cell")
    pts = as_points(np.asarray(points, dtype=np.float64)[cell.members]) - np.asarray(cell.center)
    n, d = pts.shape
    schedule = build_schedule(n, d, constants)
    tables = _cell_tables(pts, schedule)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    signs, rest = _pair_duplicates(tables[0].inverse)
    if rest.size > 2:
        walked = pts[rest]
        vectors = augment(kernel_factor(walked), walked, d)
        draw, budget = lambda: gsw_color(vectors, root.spawn(1)[0]).signs, retry_budget
    else:
        # One or two points left bypass the walk: alternate signs, lowest +1.
        draw, budget = lambda: [1, -1][:rest.size], 1
    for retries in range(budget):
        signs[rest] = draw()
        passed, ratio, imbalance = verify(pts, signs, schedule, tables)
        if passed:
            break
    else:
        raise ColoringFailure(cell.center, n, budget, schedule.constants, ratio)
    flipped = balance_flips(signs)
    signs[flipped] *= -1
    return CellColoringReport(
        center=cell.center,
        members=cell.members,
        coloring=signs,
        retries=retries,
        flipped=flipped,
        max_grid_ratio=ratio,
        imbalance_before_flip=imbalance,
    )


def color_all(points, constants=None, seed=0, retry_budget=DEFAULT_RETRY_BUDGET):
    """Color a whole point set cell by cell.

    Args:
      points: (n, d) array of points.
      constants: Constants of every cell's schedule, or None for
        default_constants(d).
      seed: root seed; one split per cell in center order.
      retry_budget: per-cell retry budget.

    Returns (signs, reports): the global int64 coloring assembled from the
    per-cell colorings, and the list of CellColoringReports in cell order.
    """
    pts = as_points(points)
    cells = partition(pts)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    seeds = root.spawn(len(cells))
    signs = np.zeros(pts.shape[0], dtype=np.int64)
    reports = []
    for cell, cell_seed in zip(cells, seeds):
        report = color_cell(cell, pts, constants, cell_seed, retry_budget)
        signs[cell.members] = report.coloring
        reports.append(report)
    return signs, reports
