"""End-to-end low-discrepancy coloring: partition into unit sup-norm cells,
per-cell balancing walk with Las Vegas grid verification, and balance flips.

Each cell is the set of points nearest (in sup norm) to one site of the
side-2 integer lattice; after translating by the site, a cell lies in the
unit ball, which is the precondition of the per-cell guarantees. Colorings
are translation invariant, so cells are processed centered and never
un-centered. Identical points in a cell are paired off with opposite signs
and only the rest is walked. Verification grids are lattices in centered
coordinates, and the kernel is tabulated per grid axis.

Cells are independent (seeds are split per cell, in lexicographic center
order, which is also the report order), so cells of one size are colored
as a stack, in chunks of bounded memory: they share one broadcast per
table and one stacked matrix product per level, one check of every first
walk attempt, and one dense factorization per chunk of cells with one
unpaired count. Walks stay per cell, and cells whose first attempt fails
are retried afterwards in center order, each retry an attempt on a stack
of one. Re-verification (_verify_stack) checks stacks the same way. Each
cell's result is the one it gets alone, bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from . import kernel
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
    # The per-axis tables depend on the cells' points and the grids, not on
    # the signs: built once per stack, then each check is one matrix
    # product per level.
    return [LatticeTables(points_centered, grid) for grid, _ in schedule.verification_levels]


def _check(sigma, schedule, tables):
    """The (passed, max_ratio, imbalance) of each coloring of a stack's
    (C, n) sigma, a list, on the stack's tables."""
    ratio = None
    for (_, thresholds), level in zip(schedule.verification_levels, tables):
        disc = level.sum(sigma)
        np.abs(disc, out=disc)
        disc /= thresholds
        worst = disc.max(axis=-1)
        ratio = worst if ratio is None else np.maximum(ratio, worst)
    c_big = schedule.constants.c_big
    return [(r < 1.0 and abs(i) <= c_big, r, i)
            for r, i in zip(ratio.tolist(), sigma.sum(axis=-1).tolist())]


def verify(points_centered, signs, schedule):
    """Check a cell coloring against every grid threshold.

    Passes iff |sum_p sigma(p) e^(-||s - p||^2)| < c1 * n_{i+1} *
    e^(-(2/3)||s||^2) strictly at every checked grid point s of every level
    and |sum sigma| <= c_big.

    Returns (passed, max_ratio, imbalance) where max_ratio is the worst
    |discrepancy| / threshold over all checked points. This is
    _verify_stack's stack of one, and a cell checked in any stack gets
    this result bit for bit.
    """
    pts = as_points(points_centered)
    if len(signs) != pts.shape[0]:
        raise ValueError("coloring length does not match the cell size")
    return _verify_stack(pts[None], as_coloring(signs)[None], schedule)[0]


def _stack_step(n, schedule):
    """Cells of n points per stack chunk: as many as hold at most
    _BLOCK_ELEMS floats of discrepancies, matrix-product results and tables
    together, 2 G + n * (sum of axis sizes) per cell on the largest grid,
    of G points."""
    grid, thresholds = max(schedule.verification_levels, key=lambda level: level[1].size)
    per_cell = 2 * thresholds.size + n * grid.dim * (2 * grid.axis_steps() + 1)
    return max(1, kernel._BLOCK_ELEMS // per_cell)


def _verify_stack(points_centered, signs, schedule):
    """verify for a stack of C cells of one size: points (C, n, d) and
    signs (C, n). Returns each cell's (passed, max_ratio, imbalance), in
    stack order. The cells share each level's LatticeTables, in chunks of
    _stack_step cells.
    """
    pts = np.asarray(points_centered, dtype=np.float64)
    sigma = as_coloring(np.ravel(signs)).reshape(np.shape(signs))
    if pts.ndim != 3 or sigma.shape != pts.shape[:2]:
        raise ValueError(f"expected signs of shape {pts.shape[:2]} for points of "
                         f"shape {pts.shape}, got {sigma.shape}")
    step = _stack_step(pts.shape[1], schedule)
    results = []
    for start in range(0, len(pts), step):
        part = slice(start, start + step)
        results += _check(sigma[part], schedule, _cell_tables(pts[part], schedule))
    return results


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
    and a retry recomputes it; only the walk's seed changes. color_all
    colors its cells through the same code, this cell being a stack of one.
    """
    if cell.members.size == 0:
        raise ValueError("cannot color an empty cell")
    pts = np.asarray(points, dtype=np.float64)
    as_points(pts[cell.members])
    return _color_cells([cell], pts, constants, [seed], retry_budget)[0]


def _attempt(cells, points, schedule, roots):
    """One attempt at each of a stack of cells of one size: a walk with
    the root's next split for a cell left with more than two unpaired
    points, the fixed coloring for the others. Returns each cell's
    (signs, unpaired positions, (passed, max_ratio, imbalance)).

    The cells share one LatticeTables per level, whose inverse rows give
    their duplicate pairing, and one _check; walked cells with one
    unpaired count share their dense factors (kernel_factor of a stack).
    """
    centers = np.array([cell.center for cell in cells], dtype=np.float64)
    pts = points[np.stack([cell.members for cell in cells])] - centers[:, None, :]
    tables = _cell_tables(pts, schedule)
    paired = [_pair_duplicates(inverse) for inverse in tables[0].inverse]
    sigma = np.stack([signs for signs, _ in paired])
    walked = {}
    for j, (_, rest) in enumerate(paired):
        if rest.size > 2:
            walked.setdefault(rest.size, []).append(j)
        else:
            # One or two points left bypass the walk: alternate signs, lowest +1.
            sigma[j, rest] = [1, -1][:rest.size]
    for items in walked.values():
        stack = np.stack([pts[j, paired[j][1]] for j in items])
        for j, factor, rows in zip(items, kernel_factor(stack), stack):
            vectors = augment(factor, rows, points.shape[1])
            sigma[j, paired[j][1]] = gsw_color(vectors, roots[j].spawn(1)[0]).signs
    return [(signs.copy(), rest, result)
            for signs, (_, rest), result in zip(sigma, paired, _check(sigma, schedule, tables))]


def _color_cells(cells, points, constants, seeds, retry_budget):
    """color_cell of each of `cells` with its seed, in order; `points` is
    the float64 array their members index into.

    First attempts go in stacks of _stack_step cells of one size. Cells
    whose first attempt fails are retried afterwards in the order of
    `cells`, one at a time and one attempt per stack of one, so the first
    to exhaust its budget raises what it raises alone.
    """
    if retry_budget < 1:
        raise ValueError(f"retry budget must be at least 1, got {retry_budget}")
    roots = [s if isinstance(s, np.random.SeedSequence) else np.random.SeedSequence(s)
             for s in seeds]
    sizes = {}
    for i, cell in enumerate(cells):
        sizes.setdefault(cell.members.size, []).append(i)
    schedules = {n: build_schedule(n, points.shape[1], constants) for n in sizes}
    first = {}
    for n, group in sizes.items():
        step = _stack_step(n, schedules[n])
        for start in range(0, len(group), step):
            part = group[start:start + step]
            first.update(zip(part, _attempt([cells[i] for i in part], points, schedules[n],
                                            [roots[i] for i in part])))
    reports = []
    for i, cell in enumerate(cells):
        schedule = schedules[cell.members.size]
        signs, rest, (passed, ratio, imbalance) = first.pop(i)
        budget = retry_budget if rest.size > 2 else 1
        retries = 0
        while not passed:
            retries += 1
            if retries == budget:
                raise ColoringFailure(cell.center, cell.members.size, budget, schedule.constants, ratio)
            [(signs, _, (passed, ratio, imbalance))] = _attempt([cell], points, schedule, [roots[i]])
        flipped = balance_flips(signs)
        signs[flipped] *= -1
        reports.append(CellColoringReport(
            center=cell.center,
            members=cell.members,
            coloring=signs,
            retries=retries,
            flipped=flipped,
            max_grid_ratio=ratio,
            imbalance_before_flip=imbalance,
        ))
    return reports


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
    Each report is the one color_cell gives the cell with its split.
    """
    pts = as_points(points)
    cells = partition(pts)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    reports = _color_cells(cells, pts, constants, root.spawn(len(cells)), retry_budget)
    signs = np.zeros(pts.shape[0], dtype=np.int64)
    for report in reports:
        signs[report.members] = report.coloring
    return signs, reports
