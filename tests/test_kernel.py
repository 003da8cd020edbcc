import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdecoreset.evaluation import build_query_grid
from kdecoreset.kernel import (LatticeTables, _build, _sq_dists, _table_floor, as_coloring, as_points,
                               kernel_sum, lattice_sum)
from kdecoreset.schedule import Grid, build_schedule

import naive
from tracing import traced_peak


def gauss(x, y):
    """One kernel value exp(-||x - y||^2), through kernel_sum."""
    return kernel_sum([y], [1.0], x)[0]


def kde(points, queries):
    """The KDE of `points` at every query row, through kernel_sum."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    return kernel_sum(points, np.ones(n), queries) / n


def test_gauss_zero_distance():
    assert gauss([0.3, -0.7], [0.3, -0.7]) == 1.0


def test_gauss_half():
    # e^{-ln 2} = 1/2 analytically.
    assert gauss([0.0], [math.sqrt(math.log(2.0))]) == pytest.approx(0.5, abs=1e-15)


def test_gauss_closed_form():
    assert gauss([0.0, 0.0], [1.0, 1.0]) == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_gauss_symmetry_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert gauss(x, y) == gauss(y, x)


def test_gauss_range():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = gauss(rng.standard_normal(2) * 5, rng.standard_normal(2) * 5)
        assert 0.0 < v <= 1.0


def test_gauss_dim_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        gauss([0.0], [0.0, 1.0])


def test_kde_singleton_and_duplicates():
    assert kde([[1.0, 2.0]], [[1.0, 2.0]])[0] == 1.0
    p = [0.4, -0.2]
    x = [1.0, 1.0]
    assert kde([p, p], [x])[0] == pytest.approx(gauss(x, p), rel=1e-15)


def test_kde_composed_forced_values():
    pts = [[0.0], [math.sqrt(math.log(2.0))]]
    assert kde(pts, [[0.0]])[0] == pytest.approx(0.75, abs=1e-15)


def test_kde_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        kde(np.empty((0, 2)), [[0.0, 0.0]])


def test_kde_matches_naive():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2, 2, size=(17, 3))
    queries = rng.uniform(-2, 2, size=(5, 3))
    batch = kde(pts, queries)
    for i, x in enumerate(queries):
        assert batch[i] == pytest.approx(naive.kde(pts, x), abs=1e-13)


def test_signed_discrepancy_single_point():
    p = np.array([[0.2, 0.3]])
    x = [1.0, -1.0]
    assert kernel_sum(p, [1], x)[0] == pytest.approx(gauss(x, p[0]), rel=1e-15)
    assert kernel_sum(p, [-1], x)[0] == pytest.approx(-gauss(x, p[0]), rel=1e-15)


def test_signed_discrepancy_cancellation():
    p = [0.4, -0.1]
    assert kernel_sum([p, p], [1, -1], [0.0, 0.0])[0] == 0.0


def test_signed_discrepancy_matches_naive():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(8, 2))
    signs = rng.choice([-1, 1], size=8)
    for _ in range(5):
        x = rng.uniform(-3, 3, size=2)
        assert kernel_sum(pts, signs, x)[0] == pytest.approx(
            naive.signed_discrepancy(pts, signs, x), abs=1e-12)


def test_sign_antisymmetry():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(12, 2))
    signs = rng.choice([-1, 1], size=12)
    x = rng.uniform(-2, 2, size=2)
    assert kernel_sum(pts, -signs, x)[0] == -kernel_sum(pts, signs, x)[0]


def test_triangle_bound():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(20, 2))
    signs = rng.choice([-1, 1], size=20)
    for _ in range(10):
        x = rng.uniform(-4, 4, size=2)
        bound = len(pts) * max(gauss(x, p) for p in pts)
        assert abs(kernel_sum(pts, signs, x)[0]) <= bound + 1e-12


def test_coloring_validation():
    with pytest.raises(ValueError, match="exactly -1 or \\+1"):
        as_coloring([1, 0, -1])
    for signs in ([True, False], np.ones(2), [1.0, -1.0]):
        with pytest.raises(ValueError, match="integer dtype"):
            as_coloring(signs)
    with pytest.raises(ValueError, match="length"):
        as_coloring([1, -1], n=3)
    with pytest.raises(ValueError, match="expected 3 weights"):
        kernel_sum(np.zeros((3, 1)), [1, -1], [0.0])


def test_kde_batch_trivial_and_empty():
    p = np.array([[0.5, 0.5]])
    out = kde(p, p)
    assert out.shape == (1,) and out[0] == 1.0
    assert kde(p, np.empty((0, 2))).shape == (0,)


def test_kde_batch_matches_per_point():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-2, 2, size=(40, 2))
    queries = rng.uniform(-3, 3, size=(25, 2))
    batch = kde(pts, queries)
    for i, q in enumerate(queries):
        assert batch[i] == pytest.approx(kde(pts, q[None, :])[0], abs=1e-12)
        assert batch[i] == pytest.approx(naive.kde(pts, q), abs=1e-12)


def test_signed_discrepancy_batch_matches_scalar():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(15, 3))
    signs = rng.choice([-1, 1], size=15)
    queries = rng.uniform(-2, 2, size=(9, 3))
    batch = kernel_sum(pts, signs, queries)
    for i, q in enumerate(queries):
        assert batch[i] == pytest.approx(kernel_sum(pts, signs, q)[0], abs=1e-12)


def test_kernel_sum_blocks_queries(monkeypatch):
    # Seven-row query blocks (the last one short) give the unblocked values
    # up to rounding; the BLAS product may round rows by their position.
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, size=(30, 2))
    weights = rng.uniform(-1, 1, size=30)
    queries = rng.uniform(-2, 2, size=(50, 2))
    whole = kernel_sum(pts, weights, queries)
    monkeypatch.setattr("kdecoreset.kernel._BLOCK_ELEMS", 7 * 30 * 2)
    assert np.abs(kernel_sum(pts, weights, queries) - whole).max() <= 1e-12


def test_pointset_validation():
    assert as_points([[0.0, 1.0], [2.0, 3.0]]).shape == (2, 2)
    assert as_points([0.5, 1.5]).shape == (1, 2)
    with pytest.raises(ValueError, match="non-finite"):
        as_points([[np.nan, 0.0]])
    with pytest.raises(ValueError, match="empty"):
        as_points(np.empty((0, 2)))
    assert as_points(np.empty((0, 2)), allow_empty=True).shape == (0, 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        as_points([[0.0, 1.0]], dim=3)


def lipschitz_decomposition_holds(rng, d, n_points=12, n_samples=1500, slack=1e-9):
    """One random instance of the coordinatewise difference inequality:

    |D(x) - D(s)| <= (||s||^2 - ||x||^2) |D(x)|
                     + 2 sum_j |s_j - x_j| sup_xi |sum_p sigma(p) p_j e^(-||xi_j - p||^2)|

    with xi_j = (x_1..x_{j-1}, t, s_{j+1}..s_d) and t sampled densely on
    the segment between x_j and s_j (so |t| runs over [|x_j|, |s_j|]).

    The witness sum carries the p_j weight that the mean-value theorem
    produces (the derivative of e^(2 t p_j) in t). Dropping the weight, i.e.
    using the plain signed discrepancy at xi_j, makes the bound numerically
    false: with d = 1, x = 0.0669, s = 0.1316 and a coloring whose
    discrepancy crosses zero steeply between them, the unweighted bound is
    violated by a factor above 2. Since |p_j| <= 1 on the unit ball, this
    weighted form is the sharp version of the same decomposition.
    """
    pts = rng.uniform(-1, 1, size=(n_points, d))
    signs = rng.choice([-1, 1], size=n_points)
    s = rng.uniform(-2.5, 2.5, size=d)
    x = s * rng.uniform(0.0, 0.95, size=d)  # same signs, |x_j| <= |s_j|
    dx = abs(kernel_sum(pts, signs, x)[0])
    ds = kernel_sum(pts, signs, s)[0]
    lhs = abs(kernel_sum(pts, signs, x)[0] - ds)
    rhs = (s @ s - x @ x) * dx
    ts = np.linspace(0.0, 1.0, n_samples)
    for j in range(d):
        xi = np.tile(np.concatenate([x[:j], [0.0], s[j + 1:]]), (n_samples, 1))
        xi[:, j] = x[j] + ts * (s[j] - x[j])
        diff = xi[:, None, :] - pts[None, :, :]
        kern = np.exp(-np.einsum("qnd,qnd->qn", diff, diff))
        sup = np.abs(kern @ (signs * pts[:, j])).max()
        rhs += 2.0 * abs(s[j] - x[j]) * sup
    return lhs <= rhs + slack


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lipschitz_decomposition(d):
    rng = np.random.default_rng(80 + d)
    for _ in range(60):
        assert lipschitz_decomposition_holds(rng, d)


@st.composite
def lattice_cases(draw):
    """Points, +-1 signs, real weights in [-1, 1] and a coarsened
    off-origin grid in d = 1..6.

    Coordinates mix the interior of a unit cell with its boundary (+-1),
    so duplicates and boundary ties occur, all shifted by an offset of up
    to ~1e3; the grid is centered near the shifted points.
    """
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    offset = np.asarray(draw(st.lists(
        st.sampled_from([0.0, 1e3, -1e3, 1234.5]), min_size=d, max_size=d)))
    coord = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0]))
    pts = np.asarray(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                   min_size=n, max_size=n))) + offset
    signs = np.asarray(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    weights = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    shift = np.asarray(draw(st.lists(st.floats(-1.5, 1.5), min_size=d, max_size=d)))
    grid = Grid(width=draw(st.floats(0.05, 1.0)), radius=draw(st.floats(0.5, 4.0)),
                dim=d, center=tuple(offset + shift))
    return pts, signs, weights, grid.coarsened(draw(st.integers(1, 2000)))


@settings(max_examples=150, deadline=None)
@given(lattice_cases())
def test_lattice_sum_matches_pairwise_signed(case):
    pts, signs, weights, grid = case
    for w in (signs, weights):
        expect = kernel_sum(pts, w, grid.points())
        got = lattice_sum(pts, w, grid)
        assert got.shape == (grid.count(),)
        assert np.abs(got - expect).max() <= 1e-12


@settings(max_examples=150, deadline=None)
@given(lattice_cases())
def test_lattice_sum_matches_pairwise_kde(case):
    pts, _, _, grid = case
    n = pts.shape[0]
    got = lattice_sum(pts, np.full(n, 1.0 / n), grid)
    assert np.abs(got - kde(pts, grid.points())).max() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(lattice_cases(), st.randoms(use_true_random=False))
def test_lattice_sum_cancelling_duplicates_exact(case, rnd):
    pts, signs, _, grid = case
    order = list(range(pts.shape[0]))
    rnd.shuffle(order)
    doubled = np.concatenate([pts, pts[order]])
    weights = np.concatenate([signs, -signs[order]])
    assert np.all(lattice_sum(doubled, weights, grid) == 0.0)


@st.composite
def repeated_rows(draw, max_d=6):
    """Point sets in d = 1..max_d drawn from a few distinct rows, so most
    rows repeat; coordinates include +-0.0 and +-1, optionally offset by
    ~1e3."""
    d = draw(st.integers(1, max_d))
    coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-1.0, 1.0))
    pool = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    pts = np.asarray([pool[i] for i in picks])
    if draw(st.booleans()):
        pts = pts + np.asarray(draw(st.lists(
            st.sampled_from([1e3, -1e3, 1234.5]), min_size=d, max_size=d)))
    return pts


@settings(max_examples=300, deadline=None)
@given(repeated_rows())
def test_lattice_tables_rows_match_unique(pts):
    # The merged rows must come in np.unique's order, so that the GEMM
    # contraction, and every sum built on it, is unchanged bit for bit.
    # Rows compare by ==: +0.0 and -0.0 may pick either representative.
    tables = LatticeTables(pts)
    rows, inverse = np.unique(pts, axis=0, return_inverse=True)
    assert tables.rows.shape == rows.shape
    assert np.all(tables.rows == rows)
    assert np.array_equal(tables.inverse, inverse.reshape(-1))
    assert np.all(tables.rows[tables.inverse] == pts)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([None, 40, 300, 3000]))
def test_lattice_tables_stack_matches_each_set(data, block):
    # Sets of one size, given as flat rows plus per-set counts: their sums
    # are each set's own sums bit for bit, also where the sets merge to
    # different row counts and where the tables are built in blocks (a
    # small _BLOCK_ELEMS); rows[inverse] gives back the points.
    sets = [data.draw(repeated_rows())]
    n, d = sets[0].shape
    for _ in range(data.draw(st.integers(0, 5))):
        sets.append(np.resize(data.draw(repeated_rows()), (n, d)))
    flat = np.concatenate(sets)
    signs = np.asarray(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                          min_size=len(flat),
                                          max_size=len(flat)))).reshape(len(sets), n)
    grid = Grid(0.5, 2.0, d).coarsened(400)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr("kdecoreset.kernel._BLOCK_ELEMS", block)
        tables = LatticeTables(flat, [n] * len(sets))
        got = tables.sum(signs.reshape(-1), grid)
        alone = [LatticeTables(pts).sum(sigma, grid) for pts, sigma in zip(sets, signs)]
    assert tables.inverse.shape == (len(flat),)
    assert np.all(tables.rows[tables.inverse] == flat)
    assert got.shape == (len(sets), grid.count())
    for row, one in zip(got, alone):
        assert row.tobytes() == one.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([None, 40, 3000]))
def test_lattice_tables_ragged_sets_match_each_set(data, block):
    # Sets of any sizes, given as flat rows plus per-set counts: each set's
    # sums are its own sums bit for bit, also where sets merge to different
    # row counts, where tables are built in blocks, and where each set has
    # its own grid of one shape (7 points per axis); inverse is flat.
    sets = [data.draw(repeated_rows())]
    d = sets[0].shape[1]
    for _ in range(data.draw(st.integers(0, 6))):
        more = data.draw(repeated_rows())
        sets.append(np.resize(more, (more.shape[0], d)))
    counts = [len(pts) for pts in sets]
    flat = np.concatenate(sets)
    signs = np.asarray(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(flat),
                                          max_size=len(flat))))
    if data.draw(st.booleans()):
        grid = grids = Grid(0.5, 2.0, d).coarsened(400)
    else:
        widths = data.draw(st.lists(st.sampled_from([0.25, 0.5, 0.7]), min_size=len(sets),
                                    max_size=len(sets)))
        grids = [Grid(w, 3.0 * w, d) for w in widths]
        grid = grids[0]
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr("kdecoreset.kernel._BLOCK_ELEMS", block)
        tables = LatticeTables(flat, counts)
        got = tables.sum(signs, grids)
        alone = [LatticeTables(pts).sum(sigma, one) for pts, one, sigma in zip(
            sets, grids if isinstance(grids, list) else [grids] * len(sets),
            np.split(signs, np.cumsum(counts)[:-1]))]
    assert tables.inverse.shape == (len(flat),)
    assert np.all(tables.rows[tables.inverse] == flat)
    assert got.shape == (len(sets), grid.count())
    for row, one in zip(got, alone):
        assert row.tobytes() == one.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data(), st.booleans(), st.sampled_from([None, 40]))
def test_lattice_tables_sum_again_matches_a_fresh_instance(data, ragged, block):
    # Each sum builds its own tables and folds the weights into them in
    # place, so one instance summed with weights A, then B, then A again
    # gives what a fresh instance gives each time, bit for bit: no sum
    # sees tables that an earlier one scaled.
    sets = [data.draw(repeated_rows(max_d=3))]
    d = sets[0].shape[1]
    if ragged:
        for _ in range(data.draw(st.integers(1, 4))):
            more = data.draw(repeated_rows(max_d=3))
            sets.append(np.resize(more, (more.shape[0], d)))
    flat = np.concatenate(sets)
    counts = [len(pts) for pts in sets] if ragged else None
    weights = st.lists(st.sampled_from([-1.0, 1.0, 0.5, 3.0]), min_size=len(flat),
                       max_size=len(flat))
    a, b = np.asarray(data.draw(weights)), np.asarray(data.draw(weights))
    grid = Grid(0.5, 2.0, d).coarsened(400)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr("kdecoreset.kernel._BLOCK_ELEMS", block)
        tables = LatticeTables(flat, counts)
        got = [tables.sum(w, grid) for w in (a, b, a)]
        fresh = [LatticeTables(flat, counts).sum(w, grid) for w in (a, b, a)]
    for again, first in zip(got, fresh):
        assert again.tobytes() == first.tobytes()


def test_lattice_tables_rejects_counts_that_do_not_split_the_points():
    for counts in ([2, 2], [4], [], [3, 0, 2], [6, -1]):
        with pytest.raises(ValueError, match="do not split"):
            LatticeTables(np.zeros((5, 2)), counts)


def test_lattice_tables_rejects_grids_of_other_shapes_or_counts():
    tables, signs = LatticeTables(np.zeros((5, 2)), [2, 3]), np.ones(5)
    with pytest.raises(ValueError, match="one shape"):
        tables.sum(signs, [Grid(0.5, 1.0, 2), Grid(0.5, 1.5, 2)])
    with pytest.raises(ValueError, match="expected one grid or 2 grids"):
        tables.sum(signs, [Grid(0.5, 1.0, 2), Grid(0.4, 0.8, 2), Grid(0.5, 1.0, 2)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        tables.sum(signs, Grid(0.5, 1.0, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        next(tables.blocks(signs, [np.zeros(3)]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        lattice_sum(np.zeros((3, 2)), np.ones(3), Grid(0.5, 1.0, 1))


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_sq_dists_equal_the_naive_loop(d):
    # Accumulated axis by axis, every squared distance is the one the
    # naive oracles (naive.gauss) sum pair by pair, bit for bit; a single
    # einsum over the last axis differed at d >= 3 by up to 2.8e-14.
    rng = np.random.default_rng(d)
    for scale in (1.0, 5.0, 1e3):
        q, p = scale * rng.normal(size=(2, 3, 11, d))
        got = _sq_dists(q, p)
        assert got.shape == (3, 11, 11)
        for c in range(3):
            expect = [[naive.sq_dist(x, y) for y in p[c]] for x in q[c]]
            assert np.array_equal(got[c], expect)
        assert np.array_equal(_sq_dists(q[0], p[0]), got[0])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lattice_tables_floor_far_entries(d):
    # Entries below tiny^(1/d) are exact zeros, so neither a table entry
    # nor a product of d of them is subnormal; the rest are plain exps.
    floor = np.finfo(np.float64).tiny ** (1.0 / d)
    axis = np.arange(0.0, 40.0)
    tables = LatticeTables(np.zeros((1, d)))
    axes, _, floored = tables._lattice([axis] * d)
    for table in _build(tables.rows[None], axes, floored):
        expect = np.exp(-axis ** 2)
        assert np.array_equal(table[0, :, 0], np.where(expect < floor, 0.0, expect))
        assert (expect[expect < floor] > 0.0).any()  # some entry was floored
    out = tables.sum(np.ones(1), [axis] * d)
    assert np.all((out == 0.0) | (out >= np.finfo(np.float64).tiny))
    assert out[-1] == 0.0 and out[0] == 1.0


@pytest.mark.parametrize("d", range(1, 7))
def test_verification_tables_stay_above_floor(d):
    # A cell's points lie within 1 of its center, so the smallest entry of
    # a verification table is exp(-(r + 1)^2) for a grid of radius r. Up to
    # e^(e^e) ~ 3.8 million points per cell and d = 6 that stays above
    # tiny^(1/d): the floor leaves every table, and so every build, as is.
    floor = np.finfo(np.float64).tiny ** (1.0 / d)
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * d, indexing="ij")).reshape(d, -1).T
    for n in (1, 2, 15, 16, 17, 100, 4096, 10**5, 10**6, 3_800_000):
        for grid in build_schedule(n, d).verification_grids():
            reach = max(float(np.abs(axis).max()) for axis in grid.axes()) + 1.0
            assert math.exp(-reach * reach) > floor, (n, d, reach)
            tables = LatticeTables(corners)
            axes, _, floored = tables._lattice(grid)
            assert all(np.all(t > 0.0) for t in _build(tables.rows[None], axes, floored))


@pytest.mark.parametrize("d", range(1, 7))
def test_centered_verification_tables_skip_the_floor_scan(d):
    # Rows in the unit ball and a verification grid bound every table
    # entry below by exp(-reach^2), reach the grid's largest |coordinate|
    # plus 1, above tiny^(1/d): the floor's scan is skipped for such
    # tables up to 3.8 million points per cell, and kept where the rows or
    # the lattice reach farther.
    floor = np.finfo(np.float64).tiny ** (1.0 / d)
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * d, indexing="ij")).reshape(d, -1).T
    for n in (1, 15, 16, 100, 4096, 10**5, 3_800_000):
        for grid in build_schedule(n, d).verification_grids():
            axes = [axis[None] for axis in grid.axes()]
            assert _table_floor(axes, corners) == 0.0, (n, d)
            assert LatticeTables(corners)._lattice(grid)[2] == 0.0
            assert _table_floor(axes, corners + 40.0) == floor
    wide = Grid(0.5, 40.0, d)
    assert _table_floor([axis[None] for axis in wide.axes()], corners) == floor
    if d <= 3:
        # Where the bound fails, far entries are still floored to 0.
        tables = LatticeTables(np.zeros((1, d)))
        axes, _, floored = tables._lattice(Grid(1.0, 40.0, d))
        assert all((t == 0.0).any() for t in _build(tables.rows[None], axes, floored))


@st.composite
def floor_cases(draw):
    """(points, lattice, counts, weights) for the floor's decision: rows
    in the unit ball, offset by up to +-40, in d = 1..6; one set or 2-4
    ragged sets; on a Grid, one Grid per set (of one shape) or per-axis
    rectangles, of radius up to 20 around centers up to +-10."""
    d = draw(st.integers(1, 6))
    steps = draw(st.integers(1, (20, 6, 3, 2, 1, 1)[d - 1]))
    counts = draw(st.one_of(st.none(), st.lists(st.integers(1, 6), min_size=2, max_size=4)))
    n = draw(st.integers(1, 8)) if counts is None else sum(counts)
    coord = st.floats(-1.0, 1.0)
    pts = np.asarray(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                   min_size=n, max_size=n)))
    pts += draw(st.one_of(st.just(0.0), st.floats(-40.0, 40.0)))

    def grid():
        radius = draw(st.floats(0.5, 20.0))
        center = draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d))
        return Grid(radius / steps, radius, d, tuple(center))

    kind = draw(st.sampled_from(["grid", "rectangle"] + ["grids"] * (counts is not None)))
    if kind == "grid":
        lattice = grid()
    elif kind == "grids":
        lattice = [grid() for _ in counts]
    else:
        lattice = [np.asarray(draw(st.lists(st.floats(-30.0, 30.0), min_size=1,
                                            max_size=2 * steps + 1))) for _ in range(d)]
    weights = np.asarray(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    return pts, lattice, counts, weights


@settings(max_examples=300, deadline=None)
@given(floor_cases())
def test_table_floor_decision_matches_the_forced_floor(case):
    # Where _table_floor skips the floor's scan, no entry can fall below
    # the floor: the sums are those with the floor forced, bit for bit.
    pts, lattice, counts, weights = case
    got = LatticeTables(pts, counts).sum(weights, lattice)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("kdecoreset.kernel._table_floor",
                   lambda axes, rows: np.finfo(np.float64).tiny ** (1.0 / rows.shape[1]))
        forced = LatticeTables(pts, counts).sum(weights, lattice)
    assert got.tobytes() == forced.tobytes()


def test_lattice_sum_rejects_weight_count():
    with pytest.raises(ValueError, match="weights"):
        lattice_sum(np.zeros((3, 2)), [1.0, 1.0], Grid(0.5, 1.0, 2))


@pytest.mark.parametrize("n, d, spread", [
    # 7 points per axis: all 7^5 leading rows against 4096 points at once
    # would need about 550 MB.
    (4096, 6, "uniform"),
    # About 26k points on the one axis: an unchunked table alone is 850 MB.
    (4096, 1, "normal"),
    # 359 points per axis: unchunked tables take 2 x 172 MB.
    (60_000, 2, "normal"),
])
def test_lattice_sum_memory_bounded(n, d, spread):
    rng = np.random.default_rng(12)
    if spread == "uniform":
        pts = rng.uniform(-1, 1, size=(n, d))
    else:
        pts = rng.normal(0, 5, size=(n, d))
    grid = build_query_grid(pts, budget=131072)
    got, peak = traced_peak(lambda: lattice_sum(pts, np.ones(n), grid))
    assert peak < 200e6, f"peak {peak / 1e6:.0f} MB"
    sample = rng.choice(grid.count(), size=40, replace=False)
    expect = kernel_sum(pts, np.ones(n), grid.points()[sample])
    assert np.abs(got[sample] - expect).max() <= 1e-9
