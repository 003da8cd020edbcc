"""End-to-end low-discrepancy coloring: partition into unit sup-norm cells,
per-cell balancing walk with Las Vegas grid verification, and balance flips.

Each cell is the set of points nearest (in sup norm) to one site of the
side-2 integer lattice; after translating by the site, a cell lies in the
unit ball, which is the precondition of the per-cell guarantees. Colorings
are translation invariant, so cells are processed centered and never
un-centered. Verification grids are lattices in centered coordinates; each
cell tabulates its kernel per grid axis once and reuses the tables for
every coloring it checks.

Cells could be colored concurrently (seeds are split per cell); this
implementation processes them sequentially in lexicographic center order,
which is also the deterministic report order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .decomp import augment, build_gram, psd_factor
from .kernel import LatticeTables, as_coloring, as_points
from .schedule import build_schedule
from .walk import gsw_color

__all__ = [
    "CellAssignment",
    "CellColoringReport",
    "ColoringFailure",
    "partition",
    "verify",
    "color_cell",
    "color_all",
]

DEFAULT_RETRY_BUDGET = 64
_CELL_SLACK = 1e-12


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
    post_flip_ratio: same quantity for the final coloring (diagnostic).
    """

    center: tuple
    members: np.ndarray
    coloring: np.ndarray
    retries: int
    flipped: np.ndarray
    max_grid_ratio: float
    post_flip_ratio: float
    imbalance_before_flip: int

    @property
    def accepted_coloring(self):
        """The coloring that passed verification, before balance flips."""
        signs = self.coloring.copy()
        signs[self.flipped] *= -1
        return signs


def cell_center_of(point):
    """Nearest side-2 lattice site, ties toward the lexicographically
    smaller center: 2 * ceil((x - 1) / 2) per coordinate."""
    p = np.asarray(point, dtype=np.float64)
    return 2.0 * np.ceil((p - 1.0) / 2.0)


def partition(points):
    """Assign each point to its nearest side-2 lattice site.

    Returns nonempty CellAssignments sorted by center (lexicographic);
    members are ascending original indices and the cells partition the
    input. Every member is within sup-norm distance 1 of its center.
    """
    pts = as_points(points)
    centers = 2.0 * np.ceil((pts - 1.0) / 2.0)
    cells = {}
    for i, c in enumerate(map(tuple, centers)):
        cells.setdefault(c, []).append(i)
    return [
        CellAssignment(center=c, members=np.asarray(idx, dtype=np.intp))
        for c, idx in sorted(cells.items())
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
    passed = max_ratio < 1.0 and abs(imbalance) <= schedule.c_big
    return passed, max_ratio, imbalance


def _direct_coloring(n):
    # Size 1 or 2 bypasses the walk: alternate signs, lowest index +1.
    return np.array([1, -1][:n], dtype=np.int64)


def _balance_flip(signs):
    """Flip the minimum number of majority-sign entries (lowest index
    first) so that |#(+1) - #(-1)| <= 1. Returns flipped positions."""
    total = int(signs.sum())
    n_flips = abs(total) // 2
    if n_flips == 0:
        return np.empty(0, dtype=np.intp)
    majority = 1 if total > 0 else -1
    positions = np.flatnonzero(signs == majority)[:n_flips]
    signs[positions] *= -1
    return positions


def color_cell(cell, points, schedule, seed, retry_budget=DEFAULT_RETRY_BUDGET):
    """Color one cell: walk, verify (Las Vegas), then balance-flip.

    Args:
      cell: CellAssignment for this cell.
      points: the full (n, d) point set the members index into.
      schedule: GridSchedule built for this cell's size and dimension.
      seed: integer or SeedSequence; attempt k uses the k-th split.
      retry_budget: attempts before raising ColoringFailure.

    Returns a CellColoringReport. The gram factorization is deterministic,
    so it is built once and only the walk reruns on retries.
    """
    pts = as_points(points)[cell.members] - np.asarray(cell.center)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot color an empty cell")
    tables = _cell_tables(pts, schedule)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    if n <= 2:
        signs = _direct_coloring(n)
        passed, ratio, imbalance = verify(pts, signs, schedule, tables)
        if not passed:
            raise ColoringFailure(cell.center, n, 1, schedule.constants, ratio)
        retries = 0
    else:
        vectors = augment(psd_factor(build_gram(pts)), pts, schedule.dim)
        retries = 0
        ratio = math.inf
        for attempt_seed in root.spawn(retry_budget):
            signs = gsw_color(vectors, attempt_seed).signs
            passed, ratio, imbalance = verify(pts, signs, schedule, tables)
            if passed:
                break
            retries += 1
        else:
            raise ColoringFailure(cell.center, n, retries, schedule.constants, ratio)
    flipped = _balance_flip(signs)
    if flipped.size:
        _, post_ratio, _ = verify(pts, signs, schedule, tables)
    else:
        post_ratio = ratio
    return CellColoringReport(
        center=cell.center,
        members=cell.members,
        coloring=signs,
        retries=retries,
        flipped=flipped,
        max_grid_ratio=ratio,
        post_flip_ratio=post_ratio,
        imbalance_before_flip=imbalance,
    )


def color_all(points, schedule_builder=None, seed=0, retry_budget=DEFAULT_RETRY_BUDGET):
    """Color a whole point set cell by cell.

    Args:
      points: (n, d) array or PointSet.
      schedule_builder: callable (cell_size, dim) -> GridSchedule; defaults
        to build_schedule with default constants.
      seed: root seed; one split per cell in center order.
      retry_budget: per-cell retry budget.

    Returns (signs, reports): the global int64 coloring assembled from the
    per-cell colorings, and the list of CellColoringReports in cell order.
    """
    pts = as_points(points)
    if schedule_builder is None:
        schedule_builder = lambda n, d: build_schedule(n, d)
    cells = partition(pts)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    seeds = root.spawn(len(cells))
    signs = np.zeros(pts.shape[0], dtype=np.int64)
    reports = []
    for cell, cell_seed in zip(cells, seeds):
        schedule = schedule_builder(len(cell.members), pts.shape[1])
        report = color_cell(cell, pts, schedule, cell_seed, retry_budget)
        signs[cell.members] = report.coloring
        reports.append(report)
    return signs, reports
