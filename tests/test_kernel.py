import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdecoreset.evaluation import build_query_grid
from kdecoreset.kernel import LatticeTables, as_coloring, as_points, kernel_sum, lattice_sum
from kdecoreset.schedule import Grid

import naive


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
def repeated_rows(draw):
    """Point sets in d = 1..6 drawn from a few distinct rows, so most rows
    repeat; coordinates include +-0.0 and +-1, optionally offset by ~1e3."""
    d = draw(st.integers(1, 6))
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
    tables = LatticeTables(pts, Grid(0.5, 1.0, pts.shape[1]))
    rows, inverse = np.unique(pts, axis=0, return_inverse=True)
    assert tables.rows.shape == rows.shape
    assert np.all(tables.rows == rows)
    assert np.array_equal(tables.inverse, inverse.reshape(-1))
    assert np.all(tables.rows[tables.inverse] == pts)


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
    tracemalloc.start()
    try:
        got = lattice_sum(pts, np.ones(n), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200e6, f"peak {peak / 1e6:.0f} MB"
    sample = rng.choice(grid.count(), size=40, replace=False)
    expect = kernel_sum(pts, np.ones(n), grid.points()[sample])
    assert np.abs(got[sample] - expect).max() <= 1e-9
