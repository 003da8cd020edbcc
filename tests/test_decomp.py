import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdecoreset import decomp
from kdecoreset.decomp import _factors, augment, build_gram, psd_factor, walk_input
from kdecoreset.schedule import build_schedule
from kdecoreset.walk import gsw_color

import naive
from tracing import traced_peak


def test_gram_diagonal_is_one():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(6, 2))
    m = build_gram(pts)
    assert np.array_equal(np.diag(m), np.ones(6))


def test_gram_data_block_scaling():
    # Data/data entries are exp(-3 ||p - q||^2).
    pts = np.array([[0.0, 0.0], [0.5, -0.25]])
    m = build_gram(pts)
    d2 = 0.5**2 + 0.25**2
    assert m[0, 1] == pytest.approx(math.exp(-3 * d2), rel=1e-14)


def test_gram_grid_coincidence():
    # Grid point s = 3p gives a mixed entry of exactly 1.
    p = np.array([[0.25]])
    m = build_gram(p, [np.array([[0.75]])])
    assert m[0, 1] == pytest.approx(1.0, rel=1e-14)


def test_gram_matches_naive_four_cases():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(3, 1))
    grid_pts = rng.uniform(-4, 4, size=(4, 1))
    m = build_gram(pts, [grid_pts])
    labels = [True] * 3 + [False] * 4
    rows = np.concatenate([pts, grid_pts])
    for a in range(7):
        for b in range(7):
            expected = 1.0 if a == b else naive.gram_entry(
                rows[a], rows[b], labels[a], labels[b])
            assert m[a, b] == pytest.approx(expected, abs=1e-15)


def test_gram_rejects_point_outside_ball():
    with pytest.raises(ValueError, match="unit sup-norm ball"):
        build_gram(np.array([[1.5, 0.0]]))
    far = np.zeros((300, 2))
    far[7] = [0.0, -1.5]
    with pytest.raises(ValueError, match="unit sup-norm ball"):
        next(walk_input(far[None]))


def test_psd_factor_identity_orthonormal():
    m = np.eye(5)
    cols = psd_factor(m)
    assert np.allclose(cols.T @ cols, m, atol=1e-12)
    norms = np.linalg.norm(cols, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_psd_factor_rank_one():
    m = np.ones((2, 2))
    cols = psd_factor(m)
    assert cols.shape[0] == 1
    assert np.allclose(cols[:, 0], cols[:, 1], atol=1e-12)
    assert np.linalg.norm(cols[:, 0]) == pytest.approx(1.0, abs=1e-12)


def test_psd_factor_random_gaussian_gram():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(10, 2))
    m = build_gram(pts)
    cols = psd_factor(m)
    assert np.abs(cols.T @ cols - m).max() <= 1e-8
    assert np.abs(np.linalg.norm(cols, axis=0) - 1.0).max() <= 1e-6


def test_psd_factor_rejects_indefinite():
    m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(ValueError, match="not positive semidefinite"):
        psd_factor(m)


def test_psd_factor_symmetry_check():
    # Exact symmetry and asymmetry within 1e-12 are accepted; more is not.
    m = build_gram(np.random.default_rng(4).uniform(-1, 1, size=(6, 2)))
    assert (m == m.T).all()
    assert psd_factor(m).shape[1] == 6
    near = m.copy()
    near[0, 1] += 1e-13
    assert near[0, 1] != near[1, 0]
    assert psd_factor(near).shape[1] == 6
    far = m.copy()
    far[0, 1] += 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        psd_factor(far)


def test_augment_origin():
    d = 2
    pts = np.array([[0.0, 0.0]])
    vecs = augment(psd_factor(build_gram(pts)), pts)
    scale = 1.0 / math.sqrt(1.0 + math.exp(4.0 * d))
    assert vecs[0, 0] == pytest.approx(scale, rel=1e-14)
    assert np.linalg.norm(vecs[0]) == pytest.approx(math.sqrt(2.0) * scale, rel=1e-12)


def test_augment_boundary_point_saturates():
    # d = 1 and ||p||^2 = 1: the normalizer cancels exactly.
    pts = np.array([[1.0]])
    vecs = augment(psd_factor(build_gram(pts)), pts)
    assert np.linalg.norm(vecs[0]) == pytest.approx(1.0, rel=1e-12)


def test_augment_inner_products_closed_form():
    rng = np.random.default_rng(4)
    d = 2
    pts = rng.uniform(-1, 1, size=(8, d))
    vecs = augment(psd_factor(build_gram(pts)), pts)
    denom = 1.0 + math.exp(4.0 * d)
    for a in range(8):
        for b in range(8):
            dd = pts[a] - pts[b]
            expected = (1.0 + math.exp(2 * pts[a] @ pts[a] + 2 * pts[b] @ pts[b])
                        * math.exp(-3 * dd @ dd)) / denom
            assert vecs[a] @ vecs[b] == pytest.approx(expected, abs=1e-9)


def test_augment_norm_bound_and_duplicates():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(12, 3))
    pts[7] = pts[3]  # duplicate
    cols = psd_factor(build_gram(pts))
    vecs = augment(cols, pts)
    norms = np.linalg.norm(vecs, axis=1)
    assert norms.max() <= 1.0 + 1e-12
    assert np.allclose(cols[:, 3], cols[:, 7], atol=1e-7)
    assert np.allclose(vecs[3], vecs[7], atol=1e-7)


def test_gram_with_schedule_grids_roundtrip():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1, 1, size=(30, 2))
    sch = build_schedule(30, 2)
    grids = [g.coarsened(200) for g in sch.grids]
    m = build_gram(pts, grids)
    cols = psd_factor(m)
    assert np.abs(cols.T @ cols - m).max() <= 1e-8
    assert np.abs(np.linalg.norm(cols, axis=0) - 1.0).max() <= 1e-6


def _cell(rng, n, d, spread):
    """n points in the unit cell: normal(0, spread) clipped to [-1, 1]."""
    return np.clip(rng.normal(0.0, spread, size=(n, d)), -1.0, 1.0)


@pytest.mark.parametrize("n, spread", [(800, 0.3), (3000, 0.5)])
def test_kernel_factor_matches_dense_gram_d2(n, spread):
    pts = _cell(np.random.default_rng(n), n, 2, spread)
    with mock.patch.object(decomp, "build_gram", wraps=decomp.build_gram) as spy:
        cols = next(_factors(pts[None]))
    assert not spy.called  # above 256 points, so the pivoted path
    m = build_gram(pts)
    assert cols.shape[1] == n
    assert np.abs(cols.T @ cols - m).max() <= 5e-11
    assert np.abs(np.linalg.norm(cols, axis=0) - 1.0).max() <= 5e-11


def _rough_cell(rng, n, d, spread, snap, n_dup):
    """_cell with a `snap` share of coordinates moved to the cell boundary
    +-1 and up to n_dup rows replaced by copies of others."""
    pts = _cell(rng, n, d, spread)
    snapped = rng.random((n, d)) < snap
    pts[snapped] = rng.choice([-1.0, 1.0], int(snapped.sum()))
    src = rng.integers(0, n, n_dup)
    dst = rng.choice(n, n_dup, replace=False)
    keep = src != dst
    pts[dst[keep]] = pts[src[keep]]
    return pts


@st.composite
def kernel_cells(draw):
    """Cells in d = 1..6: small (dense path) or above the 256-point cut
    (pivoted), tight (low rank) or wide (near full rank at d >= 3), with
    coordinates snapped to the cell boundary +-1 and duplicated rows."""
    d = draw(st.integers(1, 6))
    n = draw(st.one_of(st.integers(1, 40), st.integers(257, 420)))
    spread = draw(st.sampled_from([0.005, 0.05, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _rough_cell(rng, n, d, spread, draw(st.sampled_from([0.0, 0.1, 0.5])),
                       draw(st.integers(0, n // 2)))


@settings(max_examples=40, deadline=None)
@given(kernel_cells())
def test_kernel_factor_dense_path_bit_identical(pts):
    n = pts.shape[0]
    with mock.patch.object(decomp, "build_gram", wraps=decomp.build_gram) as spy:
        cols = next(_factors(pts[None]))
    m = build_gram(pts)
    if spy.called:
        assert n <= 256
        assert np.array_equal(cols, psd_factor(m))
    else:
        assert n > 256
        assert np.abs(cols.T @ cols - m).max() <= 5e-11
    assert cols.shape[1] == n
    _, first, counts = np.unique(pts, axis=0, return_index=True, return_counts=True)
    for a in first[counts > 1]:
        same = np.flatnonzero((pts == pts[a]).all(axis=1))
        assert np.abs(cols[:, same] - cols[:, [a]]).max() <= 1e-7


@settings(max_examples=40, deadline=None)
@given(kernel_cells(), st.integers(0, 2**32 - 1))
def test_walk_input_keeps_row_norms_and_drops_a_small_tail(pts, seed):
    # walk_input keeps the top r singular directions of augment's rows, so
    # no row grows past its norm in x (at most 1), the dropped squared
    # norm is at most TAU of the total, and a ±1 coloring's signed sum
    # loses a squared norm of at most n * TAU * ||x||_F^2.
    n = pts.shape[0]
    x, v = augment(next(_factors(pts[None])), pts), next(walk_input(pts[None]))
    assert v.shape[0] == n and 1 <= v.shape[1] <= x.shape[1]
    rows = np.linalg.norm(v, axis=1)
    assert rows.max() <= 1.0 + 1e-12
    assert np.all(rows <= np.linalg.norm(x, axis=1) + 1e-12)
    total = np.sum(x * x)
    assert total - np.sum(v * v) <= (decomp.TAU + 1e-12) * total
    sigma = np.random.default_rng(seed).choice([-1.0, 1.0], n)
    lost = np.sum((sigma @ x) ** 2) - np.sum((sigma @ v) ** 2)
    assert -1e-9 * n * total <= lost <= (decomp.TAU + 1e-9) * n * total


def _pivoted_error(pts):
    with mock.patch.object(decomp, "build_gram", wraps=decomp.build_gram) as spy:
        cols = next(_factors(pts[None]))
    assert not spy.called
    return np.abs(cols.T @ cols - build_gram(pts)).max()


def test_kernel_factor_tight_cell_within_budget():
    # 419 points within 0.01 at d = 3, some rows duplicated: the largest
    # Gram eigenvalue is near 419, so a floor of 1e-12 of it would let
    # entries drift by 1.6e-10 here.
    rng = np.random.default_rng(30)
    pts = np.clip(rng.normal(0.0, 0.004, (419, 3)), -0.01, 0.01)
    n_dup = int(rng.integers(0, 209))
    pts[rng.choice(419, n_dup, replace=False)] = pts[rng.integers(0, 419, n_dup)]
    assert _pivoted_error(pts) <= 5e-11


@pytest.mark.parametrize("n, snap", [(257, 0.1), (333, 0.5), (420, 0.1), (420, 0.5)])
def test_kernel_factor_wide_d6_cells_within_budget(n, snap):
    pts = _rough_cell(np.random.default_rng(n), n, 6, 0.5, snap, n // 3)
    assert _pivoted_error(pts) <= 5e-11


def test_kernel_factor_memory_bounded_20k():
    # The dense path would need 3.2 GB for the 20,000^2 Gram alone.
    pts = _cell(np.random.default_rng(20), 20_000, 2, 0.5)
    cols, peak = traced_peak(lambda: next(_factors(pts[None])))
    assert peak <= 300e6
    assert cols.shape[1] == 20_000
    assert np.abs(np.linalg.norm(cols, axis=0) - 1.0).max() <= 1e-9


def test_kernel_factor_large_cell_never_builds_the_gram():
    # 600 points at d = 3 with numerical rank about 2/3 of n. A dense
    # build_gram and eigh of this cell peak at 9.6 MB traced; the pivoted
    # factor needs its r x n rows, the r x r eigenproblem and the result.
    pts = _cell(np.random.default_rng(600), 600, 3, 0.3)
    with mock.patch.object(decomp, "build_gram", wraps=decomp.build_gram) as spy:
        cols, peak = traced_peak(lambda: next(_factors(pts[None])))
    assert not spy.called
    assert 300 < cols.shape[0] < 600
    assert peak <= 8.5e6, f"peak {peak / 1e6:.1f} MB"


@st.composite
def dense_stacks(draw):
    """1-12 cells of one size in d = 1..6, small (one chunk) or of 60-120
    points (chunks of 4-18 cells), tight or wide, with coordinates snapped
    to the cell boundary +-1 and duplicated rows."""
    d = draw(st.integers(1, 6))
    n = draw(st.one_of(st.integers(1, 12), st.integers(60, 120)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.stack([_cell(rng, n, d, draw(st.sampled_from([0.005, 0.05, 0.5])))
                      for _ in range(draw(st.integers(1, 12)))])
    snap = rng.random(stack.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    stack[snap] = rng.choice([-1.0, 1.0], int(snap.sum()))
    for cell in stack:
        n_dup = int(rng.integers(0, n // 2 + 1))
        cell[rng.choice(n, n_dup, replace=False)] = cell[rng.integers(0, n, n_dup)]
    return stack


@settings(max_examples=60, deadline=None)
@given(st.one_of(dense_stacks(), kernel_cells().map(lambda cell: np.stack([cell, cell[::-1]]))))
def test_walk_input_stack_bit_identical(stack):
    # Each cell of a stack gets the walk input it gets alone, bit for bit:
    # small cells share their chunk's build_gram and stacked eigh.
    inputs = list(walk_input(stack))
    assert len(inputs) == len(stack)
    for cell, v in zip(stack, inputs):
        alone = next(walk_input(cell[None]))
        assert v.shape == alone.shape
        assert v.tobytes() == alone.tobytes()


def test_walk_input_memory_bounded_between_walks():
    # Two 1500-point d = 2 cells, each walked before the next is taken. A
    # cell's factor, x, u and s are freed before its vectors are yielded,
    # and the traced peak is 6.4 MB. Holding the factor through the SVD
    # and the yield peaked at 8.6 MB, and holding u and s across the
    # yield, into the next cell's factor, at 8.7 MB.
    stack = np.clip(np.random.default_rng(5).normal(0.0, 0.5, (2, 1500, 2)), -1.0, 1.0)
    steps, peak = traced_peak(lambda: [gsw_color(v, 0).steps for v in walk_input(stack)])
    assert len(steps) == 2
    assert peak <= 7.5e6, f"peak {peak / 1e6:.1f} MB"


def test_kernel_factor_stack_memory_bounded():
    # 1000 cells of 60 points: their Grams and distance temporaries at once
    # would take 86 MB at d = 2; in chunks of 18 cells the peak is 2.2 MB.
    stack = np.random.default_rng(21).uniform(-1, 1, size=(1000, 60, 2))
    ranks, peak = traced_peak(lambda: [cols.shape[0] for cols in _factors(stack)])
    assert peak <= 10e6, f"peak {peak / 1e6:.1f} MB"
    assert ranks == [next(_factors(cell[None])).shape[0] for cell in stack]
