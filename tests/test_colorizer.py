import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kdecoreset import colorizer
from kdecoreset.colorizer import (
    CellAssignment,
    ColoringFailure,
    balance_flips,
    color_all,
    color_cell,
    _verify_stack,
    partition,
    verify,
)
from kdecoreset.decomp import augment, kernel_factor, walk_input
from kdecoreset.kernel import LatticeTables, kernel_sum
from kdecoreset.schedule import build_schedule, default_constants
from kdecoreset.walk import gsw_color

import naive
from audits import oracle_min_discrepancy
from tracing import traced_peak


def small_constants(d, budget=400):
    return default_constants(d, grid_budget=budget)


def test_partition_single_cell():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(20, 2))
    cells = partition(pts)
    assert len(cells) == 1
    assert cells[0].center == (0.0, 0.0)
    assert np.array_equal(cells[0].members, np.arange(20))


def test_partition_tie_break():
    cells = partition(np.array([[1.0, 0.0]]))
    assert cells[0].center == (0.0, 0.0)
    cells = partition(np.array([[-1.0, 3.0]]))
    assert cells[0].center == (-2.0, 2.0)
    assert all(type(v) is float for v in cells[0].center)


def test_partition_properties():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-10, 10, size=(300, 2))
    cells = partition(pts)
    all_members = np.concatenate([c.members for c in cells])
    assert np.array_equal(np.sort(all_members), np.arange(300))
    assert len(all_members) == len(set(all_members.tolist()))
    for c in cells:
        offs = np.abs(pts[c.members] - np.asarray(c.center))
        assert offs.max() <= 1.0 + 1e-12
    centers = [c.center for c in cells]
    assert centers == sorted(centers)


def test_partition_beyond_2_53():
    # Float spacing is 2 on [2^53, 2^54), so x - 1 is a tie that can round
    # down across a site: (2^53 + 2) - 1 rounds to 2^53.
    big = 2.0 ** 53 + np.arange(-8.0, 9.0)
    pts = np.concatenate([big, -big]).reshape(-1, 1)
    for c in partition(pts):
        assert np.abs(pts[c.members, 0] - c.center[0]).max() <= 1.0
        assert c.center[0] % 2.0 == 0.0


@st.composite
def lattice_points(draw):
    """Up to 60 points in d = 0..6 from a mix of odd integers (cell
    boundaries), signed zeros, small floats and offsets of 2^53 and beyond;
    rows repeat a small pool, so cells hold ties of every kind."""
    d = draw(st.integers(0, 6))
    coord = st.one_of(
        st.integers(-4, 3).map(lambda k: 2.0 * k + 1.0),
        st.sampled_from([0.0, -0.0]),
        st.floats(-6.0, 6.0),
        st.integers(-9, 9).map(lambda k: 2.0 ** 53 + k),
        st.integers(-9, 9).map(lambda k: -(2.0 ** 54) + 3 * k),
        st.floats(2.0 ** 53, 2.0 ** 62),
    )
    row = st.lists(coord, min_size=d, max_size=d)
    pool = draw(st.lists(row, min_size=1, max_size=8))
    rows = draw(st.lists(st.one_of(st.sampled_from(pool), row), min_size=1, max_size=60))
    return np.array(rows, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(lattice_points())
def test_partition_matches_dict_reference(pts):
    # repr tells -0.0 from 0.0: a center is its first member's tuple.
    cells = partition(pts)
    expected = naive.partition(pts)
    assert [repr(c.center) for c in cells] == [repr(center) for center, _ in expected]
    assert [c.members.tolist() for c in cells] == [members for _, members in expected]
    assert all(c.members.dtype == np.intp for c in cells)


def test_verify_cancelling_duplicates():
    pts = np.array([[0.2, -0.1], [0.2, -0.1]])
    sch = build_schedule(2, 2, small_constants(2))
    passed, ratio, imbalance = verify(pts, np.array([1, -1]), sch)
    assert passed and ratio == 0.0 and imbalance == 0


def test_verify_all_plus_fails():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.2, 0.2, size=(1000, 2))
    sch = build_schedule(1000, 2, small_constants(2))
    passed, ratio, imbalance = verify(pts, np.ones(1000, dtype=np.int64), sch)
    assert not passed and ratio > 1.0
    assert imbalance == 1000


def test_verify_matches_naive_recheck():
    rng = np.random.default_rng(3)
    cst = small_constants(2, budget=150)
    for trial in range(5):
        pts = rng.uniform(-1, 1, size=(40, 2))
        signs = rng.choice([-1, 1], size=40)
        sch = build_schedule(40, 2, cst)
        passed, ratio, _ = verify(pts, signs, sch)
        grids = [g.points() for g in sch.verification_grids()]
        naive_pass, naive_ratio = naive.verify_cell(
            pts, signs, grids, sch.constants.c1, sch.seq, sch.constants.c_big)
        assert passed == naive_pass
        assert ratio == pytest.approx(naive_ratio, rel=1e-9)


@st.composite
def verify_stacks(draw):
    """1-8 cells of one size in d = 1..6 with their colorings. Each cell's
    rows come from a small pool (duplicates), coordinates include the cell
    boundary +-1 and +-0.0, and some cells are moved by a large offset."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 24))
    coord = st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0]), st.floats(-1.0, 1.0))
    cells = []
    for _ in range(draw(st.integers(1, 8))):
        pool = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=n))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        offset = draw(st.sampled_from([0.0, 0.0, 1e3, -1234.5, 2.0 ** 53]))
        cells.append(np.asarray([pool[i] for i in picks]) + offset)
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(cells) * n,
                          max_size=len(cells) * n))
    return np.stack(cells), np.asarray(signs).reshape(len(cells), n)


def stacked(pts, signs, schedule):
    """_verify_stack of C cells of one size, points (C, n, d), signs (C, n)."""
    count, n, d = pts.shape
    return _verify_stack(pts.reshape(-1, d), signs.ravel(), [schedule] * count, [n] * count)


def results_bits(results):
    return [(passed, ratio.hex(), imbalance) for passed, ratio, imbalance in results]


@settings(max_examples=150, deadline=None)
@given(verify_stacks(), st.sampled_from([None, 64, 3000]))
def test_verify_stack_matches_each_cell_alone(stack, block):
    # Every cell of a stack gets the (passed, ratio, imbalance) it gets
    # alone, bit for bit, also when a small _BLOCK_ELEMS splits the stack.
    pts, signs = stack
    sch = build_schedule(pts.shape[1], pts.shape[2], small_constants(pts.shape[2], budget=300))
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr("kdecoreset.kernel._BLOCK_ELEMS", block)
        got = stacked(pts, signs, sch)
        alone = [verify(p, s, sch) for p, s in zip(pts, signs)]
    assert results_bits(got) == results_bits(alone)


@st.composite
def ragged_cell_stacks(draw):
    """1-10 cells of 1..40 points each, of any mix of sizes on both sides
    of N_MIN, in d = 1..3, with their colorings. Rows come from small pools
    (duplicates), and coordinates include the cell boundary +-1 and
    +-0.0."""
    d = draw(st.integers(1, 3))
    coord = st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0]), st.floats(-1.0, 1.0))
    cells = []
    for _ in range(draw(st.integers(1, 10))):
        n = draw(st.integers(1, 40))
        pool = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=n))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        cells.append(np.asarray([pool[i] for i in picks]))
    signs = [np.asarray(draw(st.lists(st.sampled_from([-1, 1]), min_size=len(c), max_size=len(c))))
             for c in cells]
    return cells, signs


def grid_shape(schedule):
    return tuple(grid.axes()[0].size for grid, _ in schedule.verification_levels)


def forced_floor(axes, rows):
    """_table_floor that keeps the floor's scan whatever the data."""
    return np.finfo(np.float64).tiny ** (1.0 / rows.shape[1])


@settings(max_examples=150, deadline=None)
@given(ragged_cell_stacks(), st.sampled_from([None, 64, 3000]), st.booleans())
@example(([np.linspace(-1.0, 1.0, 16)[:, None], np.linspace(-0.5, 1.0, 17)[:, None],
           np.zeros((3, 1))], [np.resize([1, -1], 16), np.resize([-1, 1], 17), np.ones(3)]),
         None, False)
def test_ragged_small_cell_stack_matches_each_cell_alone(stack, block, forced):
    # Cells whose schedules have one grid shape form one stack, in
    # ascending size, each checked on its own schedule's grid and
    # thresholds: each gets the (passed, ratio, imbalance) verify gives it
    # alone with the floor's scan run, bit for bit, in blocks (a small
    # _BLOCK_ELEMS) or not, with the floor forced or as _table_floor
    # decides (skipped here). Below N_MIN every size shares one
    # schedule; in d = 2, 3 every size here has one shape, in d = 1 shapes
    # differ (the example's 16 and 17 points), and so do the groups.
    cells, signs = stack
    d = cells[0].shape[1]
    cst = small_constants(d, budget=300)
    sizes = [len(c) for c in cells]
    schedules = [build_schedule(n, d, cst) for n in sizes]
    groups = colorizer._schedule_groups(sizes, d, cst)
    assert len(groups) == len({grid_shape(s) for s in schedules})
    assert sorted(i for _, group in groups for i in group) == list(range(len(cells)))
    got = [None] * len(cells)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr("kdecoreset.kernel._BLOCK_ELEMS", block)
        if forced:
            mp.setattr("kdecoreset.kernel._table_floor", forced_floor)
        for group_schedules, group in groups:
            assert [sizes[i] for i in group] == sorted(sizes[i] for i in group)
            assert group_schedules == [schedules[i] for i in group]
            assert len({grid_shape(s) for s in group_schedules}) == 1
            checked = _verify_stack(np.concatenate([cells[i] for i in group]),
                                    np.concatenate([signs[i] for i in group]), group_schedules,
                                    [sizes[i] for i in group])
            for i, result in zip(group, checked):
                got[i] = result
        mp.setattr("kdecoreset.kernel._table_floor", forced_floor)
        alone = [verify(c, s, sch) for c, s, sch in zip(cells, signs, schedules)]
    assert results_bits(got) == results_bits(alone)


def test_verify_stack_chunked(monkeypatch):
    # With _BLOCK_ELEMS at 5000, a d = 2 cell of 20 distinct points on the
    # one 17 x 17 grid of its schedule needs 3 * 289 + 20 * 34 = 1547
    # floats, so 30 cells are summed in blocks of 3; each block's tables
    # and products keep the unpatched shapes (20 rows are one chunk, and
    # 17 x 20 needs no outer loop in _contract).
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(30, 20, 2))
    signs = rng.choice([-1, 1], size=(30, 20))
    sch = build_schedule(20, 2, small_constants(2, budget=300))
    assert [thresholds.size for _, thresholds in sch.verification_levels] == [289]
    alone = [verify(p, s, sch) for p, s in zip(pts, signs)]
    blocks = []
    sums = LatticeTables.blocks

    def counted(tables, weights, grid):
        for sets, part in sums(tables, weights, grid):
            blocks.append(len(sets))
            yield sets, part

    monkeypatch.setattr(LatticeTables, "blocks", counted)
    monkeypatch.setattr("kdecoreset.kernel._BLOCK_ELEMS", 5000)
    assert results_bits(stacked(pts, signs, sch)) == results_bits(alone)
    assert blocks == [3] * 10


def test_verify_stack_memory_bounded():
    # 4000 cells of 20 points on the default d = 2 grid (63 x 63): their
    # discrepancies alone would take 127 MB, and products and tables twice
    # that; summed in blocks of 9 cells the traced peak is 6.3 MB (1.0 MB
    # in stack chunks of 9, each with its own LatticeTables).
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(4000, 20, 2))
    signs = rng.choice([-1, 1], size=(4000, 20))
    sch = build_schedule(20, 2, default_constants(2))
    got, peak = traced_peak(lambda: stacked(pts, signs, sch))
    assert peak < 150e6, f"peak {peak / 1e6:.0f} MB"
    assert results_bits(got[::997]) == results_bits(
        [verify(p, s, sch) for p, s in zip(pts[::997], signs[::997])])


def test_verify_stack_failing_cell_leaves_the_others():
    # All +1 on 300 points in d = 1 fails both the grid check (ratio 4-5.3,
    # ROADMAP item 7) and the balance cap; only that cell of the stack
    # fails, and the others keep their results.
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1, 1, size=(4, 300, 1))
    cell = CellAssignment(center=(0.0,), members=np.arange(300))
    signs = np.stack([color_cell(cell, p, None, seed=s).accepted_coloring
                      for s, p in enumerate(pts)])
    sch = build_schedule(300, 1, default_constants(1))
    before = stacked(pts, signs, sch)
    signs[2] = 1
    after = stacked(pts, signs, sch)
    assert [passed for passed, _, _ in before] == [True] * 4
    assert [passed for passed, _, _ in after] == [True, True, False, True]
    assert after[2][1] > 1.0 and after[2][2] == 300
    assert results_bits(after[:2] + after[3:]) == results_bits(before[:2] + before[3:])


item_7 = pytest.mark.xfail(raises=AssertionError, strict=True, reason="ROADMAP item 7")


@pytest.mark.parametrize("d, n", [
    (1, 300),
    pytest.param(2, 50, marks=item_7),
    pytest.param(3, 1000, marks=item_7),
    pytest.param(6, 1000, marks=item_7),
])
def test_verify_rejects_constant_coloring(d, n):
    # A certificate that passes the constant coloring certifies nothing.
    pts = np.random.default_rng(9).uniform(-1, 1, size=(n, d))
    passed, ratio, _ = verify(pts, np.ones(n, dtype=np.int64),
                              build_schedule(n, d, default_constants(d)))
    assert not passed, f"all +1 passes with max ratio {ratio:.3g}"


def test_color_cell_singleton():
    pts = np.array([[0.3]])
    cell = CellAssignment(center=(0.0,), members=np.array([0]))
    report = color_cell(cell, pts, small_constants(1), seed=0)
    assert report.coloring.tolist() == [1]
    assert report.flipped.size == 0 and report.retries == 0
    assert report.max_grid_ratio < 1.0
    # Only the members' rows are read and validated.
    other = color_cell(cell, np.array([[0.3], [np.nan]]), small_constants(1), seed=0)
    assert other.max_grid_ratio == report.max_grid_ratio


def test_color_cell_duplicate_pair():
    pts = np.array([[0.1, 0.2], [0.1, 0.2]])
    cell = CellAssignment(center=(0.0, 0.0), members=np.array([0, 1]))
    report = color_cell(cell, pts, small_constants(2), seed=0)
    assert sorted(report.coloring.tolist()) == [-1, 1]
    assert report.max_grid_ratio == 0.0


def test_color_cell_pairs_boundary_duplicates():
    # The walk moves identical vectors in lockstep, so eight copies of a
    # boundary point took one sign and failed all 64 verifications (ratio
    # 1.01). Paired off by index, they cancel and three points walk.
    pts = np.array([1.0] * 8 + [-0.856, 0.057, -0.965]).reshape(-1, 1)
    cell = CellAssignment(center=(0.0,), members=np.arange(11))
    report = color_cell(cell, pts, default_constants(1), seed=0)
    assert report.accepted_coloring[:8].tolist() == [1, -1] * 4
    assert report.retries == 0 and report.max_grid_ratio < 1.0


def test_color_cell_balance_and_acceptance():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(101, 2))
    cell = CellAssignment(center=(0.0, 0.0), members=np.arange(101))
    cst = small_constants(2)
    retries = []
    for seed in range(10):
        report = color_cell(cell, pts, cst, seed=seed)
        assert abs(int(report.coloring.sum())) <= 1
        assert report.max_grid_ratio < 1.0
        assert abs(report.imbalance_before_flip) <= cst.c_big
        assert report.flipped.size <= math.ceil(cst.c_big / 2) + 1
        retries.append(report.retries)
    assert np.mean(retries) <= 4.0


def test_balance_flips_takes_fewest_majority_entries_lowest_first():
    for signs, flips in [([1, -1, 1, 1, 1, -1, 1, 1], [0, 2]), ([-1, 1, -1, -1], [0]),
                         ([1, 1, 1], [0]), ([1, -1, -1, 1], []), ([-1], []), ([], [])]:
        signs = np.array(signs, dtype=np.int64)
        before = signs.copy()
        assert balance_flips(signs).tolist() == flips, before
        assert np.array_equal(signs, before)
        signs[flips] *= -1
        assert abs(int(signs.sum())) <= 1


def reference_flips(signs):
    """The balance-flip rule, one coloring at a time."""
    total = int(signs.sum())
    if abs(total) < 2:
        return []
    return np.flatnonzero(signs == (1 if total > 0 else -1))[:abs(total) // 2].tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from([-1, 1]), max_size=20), min_size=1, max_size=12))
def test_balance_flips_batch_matches_each_coloring(colorings):
    # A ragged batch (empty colorings included) gives every coloring's own
    # flips, relative to its start, and their count; one coloring is a
    # batch of one.
    arrays = [np.asarray(c, dtype=np.int64) for c in colorings]
    flat = np.concatenate(arrays)
    before = flat.copy()
    positions, flips = balance_flips(flat, [len(c) for c in colorings])
    assert np.array_equal(flat, before)
    expected = [reference_flips(a) for a in arrays]
    assert flips.tolist() == [len(e) for e in expected]
    assert positions.tolist() == [p for e in expected for p in e]
    for a, e in zip(arrays, expected):
        assert balance_flips(a).tolist() == e


def test_color_cell_flips_are_the_accepted_colorings_balance_flips():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1, 1, size=(60, 1))
    cell = CellAssignment(center=(0.0,), members=np.arange(60))
    for seed in range(4):
        report = color_cell(cell, pts, small_constants(1), seed=seed)
        assert report.flipped.tolist() == balance_flips(report.accepted_coloring).tolist()


def test_color_cell_outside_the_unit_ball_matches_verify():
    # color_cell takes any cell, not only partition's. Two points (the
    # fixed coloring, no walk) 20 past the grids' edge on the second axis:
    # every table entry there is about e^-400, below the d = 2 floor
    # 2^-511 but not zero, and color_cell keeps the floor verify applies.
    sch = build_schedule(2, 2, default_constants(2))
    edge = max(axis.max() for grid, _ in sch.verification_levels for axis in grid.axes())
    pts = np.array([[0.0, edge + 20.0], [0.5, edge + 20.0]])
    report = color_cell(CellAssignment(center=(0.0, 0.0), members=np.arange(2)), pts, None, 0)
    passed, ratio, imbalance = verify(pts, report.accepted_coloring, sch)
    assert (True, ratio.hex(), imbalance) == (
        passed, report.max_grid_ratio.hex(), report.imbalance_before_flip)
    assert ratio == 0.0


def test_color_cell_retry_budget_failure():
    # Absurdly small c1 makes every verification fail.
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(50, 1))
    cell = CellAssignment(center=(0.0,), members=np.arange(50))
    cst = default_constants(1, c1=1e-6, grid_budget=100)
    with pytest.raises(ColoringFailure, match="miscalibrated") as failure:
        color_cell(cell, pts, cst, seed=0, retry_budget=3)
    assert failure.value.retries == 3
    with pytest.raises(ValueError, match="retry budget must be at least 1"):
        color_cell(cell, pts, cst, seed=0, retry_budget=0)
    empty = CellAssignment(center=(0.0,), members=np.array([], dtype=np.intp))
    with pytest.raises(ValueError, match="empty cell"):
        color_cell(empty, pts, cst, seed=0)


@pytest.mark.parametrize("coords", [[0.3], [0.3, -0.4], [0.3, 0.3, -0.4]])
def test_color_cell_fixed_coloring_failure(coords, monkeypatch):
    # At most two unpaired points take the fixed coloring once, with no
    # walk, whatever the budget; a failed check ends after that attempt.
    def no_walk(*args, **kwargs):
        raise AssertionError("walked a cell of at most two unpaired points")

    monkeypatch.setattr("kdecoreset.colorizer.gsw_color", no_walk)
    pts = np.array(coords).reshape(-1, 1)
    cell = CellAssignment(center=(0.0,), members=np.arange(len(coords)))
    with pytest.raises(ColoringFailure, match="failed verification 1 times") as failure:
        color_cell(cell, pts, default_constants(1, c1=1e-9), seed=0, retry_budget=8)
    assert failure.value.retries == 1 and failure.value.size == len(coords)


def near_duplicates(spacing, d=1):
    """Eight points `spacing` apart in every coordinate, ending at the
    cell's corner (1, ..., 1), plus three interior points."""
    pts = [[1.0 - k * spacing] * d for k in range(8)]
    interior = [[-0.856, 0.3], [0.057, -0.6], [-0.965, 0.5]]
    return np.array(pts + [p[:d] for p in interior])


@pytest.mark.parametrize("seed", range(4))
def test_color_all_near_duplicate_lockstep(seed):
    # Eight boundary points 1e-12 apart are paired off as duplicates are,
    # since their Gram columns agree within the factor's budget. A walk
    # that moved their near-identical vectors in lockstep gave them one
    # sign, which failed all 64 verifications.
    for d in (1, 2):
        _, reports = color_all(near_duplicates(1e-12, d), default_constants(d), seed=seed)
        assert len(set(reports[0].accepted_coloring[:8].tolist())) == 2, d


@pytest.mark.parametrize("spacing", [1e-12, 1e-11, 1e-10, 1e-9, 1e-7])
def test_near_duplicates_color_without_retries(spacing):
    # At 1e-12 and 1e-11 the eight points are paired as one chain of steps
    # below 5e-11 / (1.49 sqrt(d)). Walked unpaired, at 1e-12 they took 1
    # to 18 retries in d = 1; at 1e-11, on the factor's full dimension
    # (before walk_input), 51 and 58 on seeds 0 and 1, and seeds 2 and 3
    # exhausted all 64. At 1e-10 and above they are walked.
    for d in (1, 2):
        for seed in range(4):
            _, reports = color_all(near_duplicates(spacing, d), default_constants(d), seed=seed)
            assert [r.retries for r in reports] == [0], (d, seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(1, 12), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_near_groups_join_rows_within_delta_and_only_in_one_set(d, counts, seed):
    # Sets of rows drawn around a few bases with offsets of 0 to 2 delta
    # (ties, near ties and chains), +-0.0 and the boundary 1.0 included.
    # Rows of one set within delta in every coordinate share a group, no
    # group spans sets, and each coordinate of a group steps by at most
    # delta between its sorted values.
    rng = np.random.default_rng(seed)
    delta = 5e-11 / (1.49 * math.sqrt(d))
    bases = rng.choice([1.0, 0.0, -0.0, 0.5, -0.3], (3, d))
    pts = bases[rng.integers(0, 3, sum(counts))]
    pts += rng.choice([0.0, 0.0, -0.5, 0.9, 2.0], pts.shape) * delta
    tables = LatticeTables(pts, counts)
    owner = np.empty(tables.rows.shape[0], dtype=np.intp)
    owner[tables.inverse] = np.repeat(np.arange(len(counts)), counts)
    label = colorizer._near_groups(tables.rows, owner)
    rows = tables.rows
    close = (np.abs(rows[:, None] - rows[None]) <= delta).all(axis=-1)
    same_set = owner[:, None] == owner[None]
    assert np.all((label[:, None] == label[None])[close & same_set])
    assert not np.any((label[:, None] == label[None]) & ~same_set)
    for g in set(label.tolist()):
        members = rows[label == g]
        assert np.all(np.diff(np.sort(members, axis=0), axis=0) <= delta)


def test_color_cell_retry_uses_kth_split():
    # c1 = 2.2 (about a thirtieth of the default) rejects the first walk
    # of every seed, so the accepted coloring comes from a later attempt
    # (seed 0 passes at its 16th); attempt k must walk with the k-th child
    # of the cell seed, as a full spawn(retry_budget) gives.
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, size=(40, 2))
    cell = CellAssignment(center=(0.0, 0.0), members=np.arange(40))
    cst = default_constants(2, c1=2.2, grid_budget=400)
    vectors = walk_input(kernel_factor(pts), pts)
    retries = []
    for seed in range(3):
        report = color_cell(cell, pts, cst, seed=seed, retry_budget=16)
        children = np.random.SeedSequence(seed).spawn(16)
        expected = gsw_color(vectors, children[report.retries]).signs
        assert np.array_equal(report.accepted_coloring, expected), seed
        retries.append(report.retries)
    assert min(retries) > 0


def test_color_cell_flip_perturbation_bound():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1, 1, size=(64, 2))
    cell = CellAssignment(center=(0.0, 0.0), members=np.arange(64))
    cst = small_constants(2)
    sch = build_schedule(64, 2, cst)
    for seed in range(20):
        report = color_cell(cell, pts, cst, seed=seed)
        if report.flipped.size == 0:
            continue
        before = report.accepted_coloring
        after = report.coloring
        for grid in sch.verification_grids():
            qs = grid.points()
            d_before = kernel_sum(pts, before, qs)
            d_after = kernel_sum(pts, after, qs)
            diff = qs[:, None, :] - pts[None, :, :]
            kern_max = np.exp(-np.einsum("qnd,qnd->qn", diff, diff)).max(axis=1)
            bound = report.flipped.size * 2.0 * kern_max
            assert np.all(np.abs(d_after - d_before) <= bound + 1e-12)
        return
    pytest.skip("no seed produced a flip for this instance")


def report_fields(report):
    """Every field of a CellColoringReport, floats by their bits."""
    return (repr(report.center), report.members.tolist(), report.coloring.tolist(),
            report.coloring.dtype.str, report.retries, report.flipped.tolist(),
            report.flipped.dtype.str, report.max_grid_ratio.hex(), report.imbalance_before_flip)


@pytest.mark.parametrize("seed", [0, 7, 2**70])
def test_int_seed_colors_as_its_seed_sequence(seed):
    # An int seed and SeedSequence(seed) seed Philox the same way, so
    # gsw_color and color_cell give the same outputs for both, bit for bit.
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 1, size=(40, 2))
    vectors = augment(kernel_factor(pts), pts)
    a, b = (gsw_color(vectors, s) for s in (seed, np.random.SeedSequence(seed)))
    assert (a.signs.tolist(), a.steps) == (b.signs.tolist(), b.steps)
    # c1 = 3.5 rejects some walks, so retries spawn from the seed too.
    cell = CellAssignment(center=(0.0, 0.0), members=np.arange(40))
    cst = default_constants(2, c1=3.5, grid_budget=400)
    assert report_fields(color_cell(cell, pts, cst, seed)) == report_fields(
        color_cell(cell, pts, cst, np.random.SeedSequence(seed)))


def outcome(color):
    """The report fields of color(), or the fields of its ColoringFailure."""
    try:
        return [report_fields(report) for report in color()]
    except ColoringFailure as exc:
        return ("failed", repr(exc.cell_center), exc.size, exc.retries, exc.max_ratio.hex())


def color_one_by_one(pts, constants, seed, retry_budget=colorizer.DEFAULT_RETRY_BUDGET):
    """color_cell of each cell in center order, with color_all's seed splits."""
    cells = partition(pts)
    seeds = np.random.SeedSequence(seed).spawn(len(cells))
    return [color_cell(cell, pts, constants, s, retry_budget) for cell, s in zip(cells, seeds)]


def test_color_all_single_cell_matches_color_cell():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(30, 2))
    signs, reports = color_all(pts, small_constants(2), seed=11)
    assert len(reports) == 1
    assert np.array_equal(signs, reports[0].coloring)
    cell_seed = np.random.SeedSequence(11).spawn(1)[0]
    alone = color_cell(partition(pts)[0], pts, small_constants(2), seed=cell_seed)
    assert report_fields(reports[0]) == report_fields(alone)


@st.composite
def same_size_cells(draw):
    """2-24 cells in d = 1..4 on sites along the first axis: three in four
    of one size, the rest of a second (maybe the same), each 1-12 points.
    Rows repeat a small pool per cell, so cells have duplicates and some
    are left with at most two unpaired points; coordinates include the
    cell boundary 1.0 and +-0.0."""
    d = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 12), min_size=2, max_size=2))
    coord = st.one_of(st.sampled_from([1.0, 0.0, -0.0]), st.floats(-0.99, 1.0))
    cells = []
    for c in range(draw(st.integers(2, 24))):
        n = sizes[c % 4 == 3]
        pool = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=n))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        site = np.zeros(d)
        site[0] = 2.0 * c
        cells.append(np.asarray([pool[i] for i in picks]) + site)
    return np.concatenate(cells)


@settings(max_examples=60, deadline=None)
@given(same_size_cells(), st.integers(0, 2**32 - 1), st.sampled_from([None, 300]))
def test_color_all_stacks_match_color_cell(pts, seed, block):
    # Stacked cells get color_cell's report bit for bit, also when a small
    # _BLOCK_ELEMS takes them one or two per chunk.
    cst = small_constants(pts.shape[1], budget=64)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr("kdecoreset.kernel._BLOCK_ELEMS", block)
        got = outcome(lambda: color_all(pts, cst, seed=seed)[1])
        alone = outcome(lambda: color_one_by_one(pts, cst, seed))
    assert got == alone


def test_color_all_retries_match_color_cell():
    # c1 = 3.55 (the d = 2 default is 73.2) rejects the first attempts
    # of cells 3, 11 and 13 of a stack of 16; cell 11 passes at its 5th.
    # Each is retried with its k-th split, as alone. With a budget of 2,
    # cell 3 passes at its second attempt and cell 11 raises, as alone;
    # with a budget of 1, cell 3 raises, the first of the three.
    rng = np.random.default_rng(11)
    pts = np.concatenate([rng.uniform(-0.95, 0.95, (20, 2)) + 2.0 * np.array([c % 4, c // 4])
                          for c in range(16)])
    cst = default_constants(2, c1=3.55, grid_budget=400)
    _, reports = color_all(pts, cst, seed=6)
    assert [report_fields(r) for r in reports] == outcome(lambda: color_one_by_one(pts, cst, 6))
    assert [r.retries for r in reports if r.retries] == [1, 4, 4]
    for report, cell_seed in zip(reports, np.random.SeedSequence(6).spawn(16)):
        if report.retries:
            centered = pts[report.members] - np.asarray(report.center)
            vectors = walk_input(kernel_factor(centered), centered)
            kth = cell_seed.spawn(report.retries + 1)[report.retries]
            assert np.array_equal(report.accepted_coloring, gsw_color(vectors, kth).signs)
    failed = outcome(lambda: color_all(pts, cst, seed=6, retry_budget=2)[1])
    assert failed == outcome(lambda: color_one_by_one(pts, cst, 6, retry_budget=2))
    assert failed[:4] == ("failed", repr(reports[11].center), 20, 2)
    failed = outcome(lambda: color_all(pts, cst, seed=6, retry_budget=1)[1])
    assert failed == outcome(lambda: color_one_by_one(pts, cst, 6, retry_budget=1))
    assert failed[:4] == ("failed", repr(reports[3].center), 20, 1)


def test_color_all_memory_bounded():
    # 2500 cells of 3 points on the default d = 2 grid (63 x 63): their
    # first attempts' discrepancies alone take 79 MB in one stack; summed
    # in blocks of 10 cells the traced peak is 4.6 MB.
    rng = np.random.default_rng(12)
    sites = 2.0 * np.stack([np.arange(2500) % 50, np.arange(2500) // 50], axis=1)
    pts = (rng.uniform(-0.95, 0.95, size=(2500, 3, 2)) + sites[:, None, :]).reshape(-1, 2)
    (_, reports), peak = traced_peak(lambda: color_all(pts, default_constants(2), seed=1))
    assert peak < 60e6, f"peak {peak / 1e6:.0f} MB"
    seeds = np.random.SeedSequence(1).spawn(2500)
    assert [report_fields(r) for r in reports[::499]] == [
        report_fields(color_cell(CellAssignment(r.center, r.members), pts, None, seeds[i]))
        for i, r in zip(range(0, 2500, 499), reports[::499])]


def test_color_all_composition_across_cells():
    rng = np.random.default_rng(8)
    pts = np.concatenate([
        rng.uniform(-1, 1, size=(25, 2)),
        rng.uniform(-1, 1, size=(25, 2)) + np.array([4.0, 0.0]),
        rng.uniform(-1, 1, size=(25, 2)) + np.array([0.0, 4.0]),
        rng.uniform(-1, 1, size=(25, 2)) + np.array([4.0, 4.0]),
    ])
    signs, reports = color_all(pts, small_constants(2), seed=13)
    assert len(reports) == 4
    for rep in reports:
        assert np.array_equal(signs[rep.members], rep.coloring)
        assert abs(int(rep.coloring.sum())) <= 1
    assert abs(int(signs.sum())) <= len(reports)


def test_color_all_seed_determinism():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-3, 3, size=(60, 2))
    s1, r1 = color_all(pts, small_constants(2), seed=21)
    s2, r2 = color_all(pts, small_constants(2), seed=21)
    assert np.array_equal(s1, s2)
    assert [c.retries for c in r1] == [c.retries for c in r2]
    assert [c.max_grid_ratio for c in r1] == [c.max_grid_ratio for c in r2]


def test_color_all_oracle_comparison_d1():
    # Pipeline coloring vs exhaustive optimum on a shared query grid; the
    # ratio is reported (recorded) but the sanity direction must hold.
    rng = np.random.default_rng(10)
    cst = small_constants(1, budget=200)
    ratios = []
    for trial in range(5):
        n = int(rng.integers(6, 15))
        pts = rng.uniform(-1, 1, size=(n, 1))
        signs, _ = color_all(pts, cst, seed=trial)
        queries = np.linspace(-3, 3, 121).reshape(-1, 1)
        pipeline_sup = float(np.abs(kernel_sum(pts, signs, queries)).max())
        oracle_sup, _ = oracle_min_discrepancy(pts, queries)
        assert pipeline_sup >= oracle_sup - 1e-12
        ratios.append(pipeline_sup / max(oracle_sup, 1e-12))
    assert all(np.isfinite(r) for r in ratios)


@st.composite
def spread_points(draw):
    """Up to 60 points in d = 1..6: normal with a spread from one cell to
    many, some coordinates snapped to odd integers (ties on cell
    boundaries), some rows duplicated, all shifted by an even offset of up
    to 1e6 per axis, which keeps the ties exact."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(0.0, draw(st.sampled_from([0.3, 1.0, 4.0])), (n, d))
    ties = rng.random((n, d)) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    pts[ties] = 2.0 * rng.integers(-3, 3, int(ties.sum())) + 1.0
    n_dup = draw(st.integers(0, n // 2))
    pts[rng.integers(0, n, n_dup)] = pts[rng.integers(0, n, n_dup)]
    if draw(st.booleans()):
        pts += 2.0 * rng.integers(-500_000, 500_001, d)
    return pts


@settings(max_examples=200, deadline=None)
@given(spread_points(), st.integers(0, 2**32 - 1))
def test_color_all_properties(pts, seed):
    n, d = pts.shape
    cst = small_constants(d, budget=64)
    signs, reports = color_all(pts, cst, seed=seed)
    members = np.concatenate([rep.members for rep in reports])
    assert np.array_equal(np.sort(members), np.arange(n))
    for rep in reports:
        centered = pts[rep.members] - np.asarray(rep.center)
        assert np.abs(centered).max() <= 1.0
        assert np.array_equal(signs[rep.members], rep.coloring)
        assert abs(int(rep.coloring.sum())) <= 1
        sch = build_schedule(rep.members.size, d, cst)
        passed, ratio, _ = verify(centered, rep.accepted_coloring, sch)
        assert passed and ratio == rep.max_grid_ratio
