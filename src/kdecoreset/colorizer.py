"""End-to-end low-discrepancy coloring: partition into unit sup-norm cells,
per-cell balancing walk with Las Vegas grid verification, and balance flips.

Each cell is the set of points nearest (in sup norm) to one site of the
side-2 integer lattice; after translating by the site, a cell lies in the
unit ball, which is the precondition of the per-cell guarantees. Colorings
are translation invariant, so cells are processed centered and never
un-centered. Identical and near-identical points in a cell are paired off
with opposite signs and only the rest is walked, on the top singular
directions of its kernel vectors. decomp.walk_input, the one decomp call
made here, yields those for a stack of cells of one unpaired count.
Verification grids are lattices in centered coordinates, and the kernel
is tabulated per grid axis.

Cells are independent (seeds are split per cell, in lexicographic center
order, which is also the report order), so cells whose schedules have one
grid shape (level count and per-level axis lengths; under the default
grid budget, every size in one dimension) are colored as one stack, in
ascending size. Each cell keeps its own schedule's grid coordinates and
thresholds, and the cells share one LatticeTables (their merged rows,
summed on each level's grids in blocks that bound the stack's memory),
one check of every first walk attempt, and one walk_input stack of the
cells with one unpaired count (small cells share stacked dense factors
there). Walks stay per cell, and cells whose first attempt fails are
retried afterwards in center order, each retry an attempt on a stack of
one. recheck re-verifies
stored rounds the same way, the cells of all rounds in one stack per
grid shape (_verify_stack), each cell's flips undone and judged once
(_undo_flips). Each cell's result is the one it gets alone, bit for bit.
"""

from dataclasses import dataclass
from itertools import accumulate, chain, groupby

import numpy as np

from .decomp import _ERROR_BUDGET, walk_input
from .kernel import LatticeTables, as_coloring, as_points
from .schedule import build_schedule
from .walk import gsw_color

__all__ = [
    "CellAssignment",
    "CellColoringReport",
    "ColoringFailure",
    "partition",
    "verify",
    "recheck",
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
    centers, members, sizes = _cell_runs(as_points(points))
    return [CellAssignment(center=tuple(c), members=idx)
            for c, idx in zip(centers.tolist(), np.split(members, np.cumsum(sizes)[:-1]))]


def _cell_runs(pts):
    """partition of a float64 (n, d) array, as runs: the cells' centers
    (C, d), the members of every cell one cell after another, and the
    cell sizes (C,)."""
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
    starts = np.r_[0, np.flatnonzero(np.any(ranked[1:] != ranked[:-1], axis=1)) + 1]
    return ranked[starts], order, np.diff(starts, append=len(pts))


def _check(sigma, counts, schedules, tables):
    """The (passed, max_ratio, imbalance) of each coloring in sigma, the
    colorings of cells of `counts` points one after another, each against
    its schedule's grids and thresholds, level by level, on the stack's
    LatticeTables; a list in stack order."""
    ratio = None
    for level in zip(*(s.verification_levels for s in schedules)):
        grids, thresholds = zip(*level)
        worst = np.empty(len(counts))
        for sets, disc in tables.blocks(sigma, grids):
            np.abs(disc, out=disc)
            # Each run of cells of one schedule divides by its thresholds.
            row = 0
            for _, run in groupby([thresholds[i] for i in sets.tolist()], key=id):
                run = list(run)
                disc[row:row + len(run)] /= run[0]
                row += len(run)
            worst[sets] = disc.max(axis=-1)
            del disc  # not alive while the next block is summed
        ratio = worst if ratio is None else np.maximum(ratio, worst)
    c_big = schedules[0].constants.c_big
    imbalance = np.add.reduceat(sigma, [0, *accumulate(counts[:-1])])
    return [(r < 1.0 and abs(i) <= c_big, r, i)
            for r, i in zip(ratio.tolist(), imbalance.tolist())]


def verify(points_centered, signs, schedule):
    """Check a cell coloring against every grid threshold.

    Passes iff |sum_p sigma(p) e^(-||s - p||^2)| < c1 * n_{i+1} *
    e^(-(2/3)||s||^2) strictly at every checked grid point s of every level
    and |sum sigma| <= c_big.

    Returns (passed, max_ratio, imbalance) where max_ratio is the worst
    |discrepancy| / threshold over all checked points. This is
    _verify_stack's stack of one, and a cell checked in any stack of cells
    whose schedules have one grid shape gets this result bit for bit.
    """
    pts = as_points(points_centered)
    if len(signs) != pts.shape[0]:
        raise ValueError("coloring length does not match the cell size")
    return _verify_stack(pts, as_coloring(signs), [schedule], [pts.shape[0]])[0]


def _schedule_groups(sizes, d, constants):
    """[(schedules, positions)] of cells of `sizes` points in R^d: the cells
    whose schedules have one grid shape (level count and per-level axis
    lengths) form a group, their positions by ascending size (ties in
    order) beside each one's schedule. Cells of one size share a schedule,
    and so do all cells of fewer than N_MIN points."""
    schedules = {n: build_schedule(n, d, constants) for n in set(sizes)}
    shapes = {n: tuple(grid.axis_steps() for grid, _ in schedule.verification_levels)
              for n, schedule in schedules.items()}
    groups = {}
    for i in sorted(range(len(sizes)), key=sizes.__getitem__):
        group_schedules, positions = groups.setdefault(shapes[sizes[i]], ([], []))
        group_schedules.append(schedules[sizes[i]])
        positions.append(i)
    return list(groups.values())


def _verify_stack(points_centered, signs, schedules, counts):
    """verify for a nonempty stack of cells: float64 points (N, d) and
    int64 ±1 signs (N,), as verify and recheck check them, of cells of
    `counts` points one after another (a list), each checked against its
    schedule in the list `schedules`, all of one grid shape. Returns each
    cell's (passed, max_ratio, imbalance), in stack order. The cells share
    one LatticeTables, summed on each level's grids."""
    return _check(signs, counts, schedules, LatticeTables(points_centered, counts))


def recheck(points, rounds, constants=None, start=None):
    """Recheck stored halving rounds of `points`: each cell's certificate,
    as the build checked it, and the chain of kept sets.

    rounds: per round, (coloring, kept, flipped), as in a RoundReport: the
    stored ±1 coloring of the round's set, its kept indices into points,
    and each cell's recorded flip positions, in cell order. The first set
    is `start` (as CoresetResult.presample_indices; None for every point),
    each later one the kept set before it. constants is as in color_all.

    Returns, per round, (cells, owned, chained, runs): each cell's (passed,
    max_ratio, imbalance), bit for bit what verify gives its accepted
    coloring alone (for a build's rounds, its report's max_grid_ratio and
    imbalance_before_flip); whether each cell's recorded flips are that
    coloring's balance flips; whether kept is the +1 positions of the
    coloring; and partition's runs. The cells of all rounds are checked in
    one stack per grid shape. A cell whose flip positions are not a list,
    tuple or array of integers in [0, its size) undoes none and does not
    own them; when flips are not one entry per cell, no cell does. An
    empty set, a coloring that as_coloring refuses (its dtype not integer,
    bool included) or not over its set, an entry of start or of a kept
    set outside [0, len(points)), or a repeated entry of start raises
    ValueError naming the round.
    """
    pts = as_points(points)
    current = (np.arange(len(pts), dtype=np.intp) if start is None
               else _indices(start, len(pts), "round 0: start"))
    if current.size and np.bincount(current).max() > 1:
        raise ValueError("round 0: start repeats an entry")
    rounds_read, stack = [], []
    for rno, (coloring, kept, flipped) in enumerate(rounds):
        if not current.size:
            raise ValueError(f"round {rno}: the round's set is empty")
        try:
            coloring = as_coloring(coloring, current.size)
        except ValueError:
            raise ValueError(f"round {rno}: coloring is not ±1 over the round's "
                             f"{current.size} points") from None
        centers, members, sizes = _cell_runs(pts[current])
        accepted, owned = _undo_flips(coloring[members], sizes, flipped)
        stack.append((pts[current][members] - np.repeat(centers, sizes, axis=0), accepted, sizes))
        rounds_read.append((owned.tolist(), np.array_equal(current[coloring == 1], kept),
                            (centers, members, sizes)))
        current = _indices(kept, len(pts), f"round {rno}: kept")
    if not stack:
        return []
    centered, accepted, sizes = map(np.concatenate, zip(*stack))
    ends = np.cumsum(sizes)
    checked = [None] * sizes.size
    for schedules, group in _schedule_groups(sizes.tolist(), pts.shape[1], constants):
        counts = sizes[group]
        # The group's rows: each cell's run of rows, up to its end.
        rows = np.repeat(ends[group] - np.cumsum(counts), counts) + np.arange(counts.sum())
        for cno, result in zip(group, _verify_stack(centered[rows], accepted[rows], schedules,
                                                    counts.tolist())):
            checked[cno] = result
    bounds = [0, *accumulate(len(owned) for owned, _, _ in rounds_read)]
    return [(checked[a:b], owned, chained, runs)
            for a, b, (owned, chained, runs) in zip(bounds, bounds[1:], rounds_read)]


def _indices(values, n, where):
    """`values` as a 1-D intp array of indices, each in [0, n)."""
    idx = np.asarray(values, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"{where} is not a 1-D array of indices")
    if idx.size and not 0 <= idx.min() <= idx.max() < n:
        raise ValueError(f"{where} has an entry outside [0, {n})")
    return idx


def _near_groups(rows, owner):
    """Group labels of merged rows (owner[k] the set of rows[k]): the
    coarsest grouping, refined coordinate by coordinate until it holds
    still, in which no group's sorted values of any coordinate step by more
    than delta = 5e-11 / (1.49 sqrt(d)), 5e-11 the factor's error budget
    (decomp._ERROR_BUDGET). Rows of one set within that distance of each
    other in every coordinate share a group; e^(-3 t^2) changes by at most
    sqrt(6/e) < 1.49 per unit of t, so their Gram columns agree within that
    budget. Groups never span sets, and without such rows every merged row
    is a group of its own."""
    delta = _ERROR_BUDGET / (1.49 * np.sqrt(max(rows.shape[1], 1)))
    label, groups = owner, -1
    while groups != rows.shape[0]:
        before = groups
        for x in rows.T:
            order = np.lexsort((x, label))
            start = np.empty(order.size, dtype=bool)
            start[0] = True
            ranked, run = x[order], label[order]
            start[1:] = (run[1:] != run[:-1]) | (ranked[1:] - ranked[:-1] > delta)
            label = np.empty_like(order)
            label[order] = np.cumsum(start) - 1
            groups = int(start.sum())
        if groups == before:
            break
    return label


def _pair_duplicates(group):
    """Pair each point with the last unpaired point of its group (group[i];
    _near_groups of its merged row) and sign the later one -1, so pairs
    cancel to within the factor's error; the walk would move (near-)
    identical vectors in lockstep to one sign. Returns the signs and the
    ascending unpaired positions."""
    signs = np.ones(group.size, dtype=np.int64)
    unpaired = {}
    for i, g in enumerate(group.tolist()):
        if unpaired.pop(g, None) is None:
            unpaired[g] = i
        else:
            signs[i] = -1
    return signs, np.array(sorted(unpaired.values()), dtype=np.intp)


def balance_flips(signs, counts=None):
    """Positions to flip so that a ±1 coloring has |#(+1) - #(-1)| <= 1: the
    fewest majority-sign entries, ascending from the lowest; `signs` is
    unchanged.

    With counts, `signs` holds len(counts) colorings one after another, of
    counts[c] entries each, and the result is (positions, flips): every
    coloring's positions in turn, each relative to its coloring's start,
    and the number of them per coloring. One coloring is a batch of one.
    """
    s = np.asarray(signs)
    sizes = np.asarray([s.size] if counts is None else counts, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(sizes.size), sizes)
    sums = np.concatenate(([0], np.cumsum(s, dtype=np.int64)))
    totals = sums[starts + sizes] - sums[starts]
    want = np.where(np.abs(totals) < 2, 0, np.abs(totals) // 2)
    hit = s == np.where(totals > 0, 1, -1)[owner]
    # Rank of each majority entry within its coloring, from 1.
    ranks = np.concatenate(([0], np.cumsum(hit)))
    rank = ranks[1:] - ranks[starts][owner]
    positions = np.flatnonzero(hit & (rank <= want[owner]))
    cell = owner[positions]
    positions -= starts[cell]
    if counts is None:
        return positions
    return positions, np.bincount(cell, minlength=sizes.size)


def _cell_flips(positions, size):
    """One cell's recorded flip positions if they are a list, tuple or
    array of integers (not bool) in [0, size), else None."""
    values = positions.tolist() if isinstance(positions, np.ndarray) else positions
    if isinstance(values, (list, tuple)) and all(
            type(p) is int or isinstance(p, np.integer) for p in values):
        return values if not values or 0 <= min(values) <= max(values) < size else None


def _undo_flips(signs, counts, flipped):
    """The colorings verification accepted, from stored ones: `signs` holds
    colorings of cells of `counts` points one after another, each stored
    after its balance flips, which negated the positions flipped[c] of cell
    c, relative to its start. Returns (accepted, owned): the colorings with
    those positions negated back (a position listed twice is negated once),
    and whether each cell's positions are exactly its accepted coloring's
    own balance flips. A cell whose positions _cell_flips rejects undoes
    none and does not own them; when flipped is not one entry per cell, no
    cell does."""
    counts = np.asarray(counts, dtype=np.intp)
    accepted = np.array(signs, dtype=np.int64)
    if len(flipped) != counts.size:
        return accepted, np.zeros(counts.size, dtype=bool)
    recorded = [_cell_flips(p, size) for p, size in zip(flipped, counts.tolist())]
    fits = np.fromiter((p is not None for p in recorded), bool, counts.size)
    flips = np.fromiter((len(p or ()) for p in recorded), np.intp, counts.size)
    positions = np.fromiter(chain.from_iterable(p or () for p in recorded), np.intp, flips.sum())
    cell = np.repeat(np.arange(counts.size), flips)
    accepted[(np.cumsum(counts) - counts)[cell] + positions] *= -1
    derived, own_flips = balance_flips(accepted, counts)
    owned = fits & (own_flips == flips)
    # The cells with as many recorded as own flips list them in one order
    # in both, so their positions compare one by one.
    comparable = owned[cell]
    differ = positions[comparable] != derived[owned[np.repeat(np.arange(counts.size), own_flips)]]
    owned[cell[comparable][differ]] = False
    return accepted, owned


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
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return _color_cells([cell], pts, constants, [root], retry_budget)[0]


def _attempt(cells, points, schedules, roots):
    """One attempt at each of a stack of cells of one grid shape, each
    checked against its schedule in `schedules`: a walk with the root's
    next split for a cell left with more than two unpaired points, the
    fixed coloring for the others. Returns each cell's
    (signs, unpaired positions, (passed, max_ratio, imbalance)).

    The cells share one LatticeTables, whose merged rows give their
    (near-)duplicate pairing, and one _check; walked cells with one
    unpaired count are one walk_input stack, whose dense factors they
    share.
    """
    counts = [cell.members.size for cell in cells]
    starts = [0, *accumulate(counts)]
    centers = np.array([cell.center for cell in cells], dtype=np.float64)
    pts = (points[np.concatenate([cell.members for cell in cells])]
           - np.repeat(centers, counts, axis=0))
    tables = LatticeTables(pts, counts)
    owner = np.empty(tables.rows.shape[0], dtype=np.intp)
    owner[tables.inverse] = np.repeat(np.arange(len(cells)), counts)
    group = _near_groups(tables.rows, owner)[tables.inverse]
    paired = [_pair_duplicates(group[a:b]) for a, b in zip(starts, starts[1:])]
    sigma = np.concatenate([signs for signs, _ in paired])
    walked = {}
    for j, (_, rest) in enumerate(paired):
        if rest.size > 2:
            walked.setdefault(rest.size, []).append(j)
        else:
            # One or two points left bypass the walk: alternate signs, lowest +1.
            sigma[starts[j] + rest] = [1, -1][:rest.size]
    for items in walked.values():
        stack = np.stack([pts[starts[j] + paired[j][1]] for j in items])
        for j, vectors in zip(items, walk_input(stack)):
            sigma[starts[j] + paired[j][1]] = gsw_color(vectors, roots[j].spawn(1)[0]).signs
    return [(sigma[a:b].copy(), rest, result) for a, b, (_, rest), result
            in zip(starts, starts[1:], paired, _check(sigma, counts, schedules, tables))]


def _color_cells(cells, points, constants, roots, retry_budget):
    """color_cell of each of `cells` with its SeedSequence in `roots`, in
    order; `points` is the float64 array their members index into.

    First attempts go in one stack per grid shape, by ascending size.
    Cells whose first attempt fails are retried afterwards in the order of
    `cells`, one at a time and one attempt per stack of one, so the first
    to exhaust its budget raises what it raises alone. The accepted
    colorings' balance flips are taken as one batch.
    """
    if retry_budget < 1:
        raise ValueError(f"retry budget must be at least 1, got {retry_budget}")
    d = points.shape[1]
    sizes = [cell.members.size for cell in cells]
    first = {}
    for schedules, group in _schedule_groups(sizes, d, constants):
        first.update(zip(group, _attempt([cells[i] for i in group], points, schedules,
                                         [roots[i] for i in group])))
    accepted = []
    for i, cell in enumerate(cells):
        signs, rest, (passed, ratio, imbalance) = first.pop(i)
        budget = retry_budget if rest.size > 2 else 1
        retries = 0
        while not passed:
            retries += 1
            schedule = build_schedule(sizes[i], d, constants)
            if retries == budget:
                raise ColoringFailure(cell.center, sizes[i], budget, schedule.constants, ratio)
            [(signs, _, (passed, ratio, imbalance))] = _attempt([cell], points, [schedule],
                                                                [roots[i]])
        accepted.append((signs, retries, ratio, imbalance))
    positions, flips = balance_flips(np.concatenate([signs for signs, *_ in accepted]), sizes)
    reports = []
    for cell, (signs, retries, ratio, imbalance), flipped in zip(
            cells, accepted, np.split(positions, np.cumsum(flips)[:-1])):
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
