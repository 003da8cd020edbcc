import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdecoreset import decomp
from kdecoreset.decomp import augment, build_gram, kernel_factor, psd_factor
from kdecoreset.schedule import Grid, build_schedule

import naive


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
        kernel_factor(far)


def test_psd_factor_identity_orthonormal():
    m = np.eye(5)
    f = psd_factor(m)
    assert np.allclose(f.columns.T @ f.columns, m, atol=1e-12)
    norms = np.linalg.norm(f.columns, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_psd_factor_rank_one():
    m = np.ones((2, 2))
    f = psd_factor(m)
    assert f.dim_m == 1
    assert np.allclose(f.columns[:, 0], f.columns[:, 1], atol=1e-12)
    assert np.linalg.norm(f.columns[:, 0]) == pytest.approx(1.0, abs=1e-12)


def test_psd_factor_random_gaussian_gram():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(10, 2))
    m = build_gram(pts)
    f = psd_factor(m)
    recon = f.gram()
    assert np.abs(recon - m).max() <= 1e-8
    assert np.abs(np.linalg.norm(f.columns, axis=0) - 1.0).max() <= 1e-6


def test_psd_factor_rejects_indefinite():
    m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(ValueError, match="not positive semidefinite"):
        psd_factor(m)


def test_psd_factor_symmetry_check():
    # Exact symmetry and asymmetry within 1e-12 are accepted; more is not.
    m = build_gram(np.random.default_rng(4).uniform(-1, 1, size=(6, 2)))
    assert (m == m.T).all()
    assert psd_factor(m).columns.shape[1] == 6
    near = m.copy()
    near[0, 1] += 1e-13
    assert near[0, 1] != near[1, 0]
    assert psd_factor(near).columns.shape[1] == 6
    far = m.copy()
    far[0, 1] += 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        psd_factor(far)


def test_psd_factor_labels():
    pts = np.random.default_rng(3).uniform(-1, 1, size=(4, 1))
    g = Grid(width=1.0, radius=2.0, dim=1)
    m = build_gram(pts, [g])
    f = psd_factor(m, n_data=4)
    assert f.columns.shape[1] == 4 + g.count()
    assert f.data_columns.shape[1] == 4
    assert np.array_equal(f.data_columns, f.columns[:, :4])


def test_augment_origin():
    d = 2
    pts = np.array([[0.0, 0.0]])
    f = psd_factor(build_gram(pts))
    vecs = augment(f, pts, d)
    scale = 1.0 / math.sqrt(1.0 + math.exp(4.0 * d))
    assert vecs[0, 0] == pytest.approx(scale, rel=1e-14)
    assert np.linalg.norm(vecs[0]) == pytest.approx(math.sqrt(2.0) * scale, rel=1e-12)


def test_augment_boundary_point_saturates():
    # d = 1 and ||p||^2 = 1: the normalizer cancels exactly.
    pts = np.array([[1.0]])
    f = psd_factor(build_gram(pts))
    vecs = augment(f, pts, 1)
    assert np.linalg.norm(vecs[0]) == pytest.approx(1.0, rel=1e-12)


def test_augment_inner_products_closed_form():
    rng = np.random.default_rng(4)
    d = 2
    pts = rng.uniform(-1, 1, size=(8, d))
    f = psd_factor(build_gram(pts))
    vecs = augment(f, pts, d)
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
    f = psd_factor(build_gram(pts))
    vecs = augment(f, pts, 3)
    norms = np.linalg.norm(vecs, axis=1)
    assert norms.max() <= 1.0 + 1e-12
    assert np.allclose(f.columns[:, 3], f.columns[:, 7], atol=1e-7)
    assert np.allclose(vecs[3], vecs[7], atol=1e-7)


def test_gram_with_schedule_grids_roundtrip():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1, 1, size=(30, 2))
    sch = build_schedule(30, 2)
    grids = [g.coarsened(200) for g in sch.grids]
    m = build_gram(pts, grids)
    f = psd_factor(m, n_data=30)
    assert np.abs(f.gram() - m).max() <= 1e-8
    assert np.abs(np.linalg.norm(f.columns, axis=0) - 1.0).max() <= 1e-6


def _cell(rng, n, d, spread):
    """n points in the unit cell: normal(0, spread) clipped to [-1, 1]."""
    return np.clip(rng.normal(0.0, spread, size=(n, d)), -1.0, 1.0)


@pytest.mark.parametrize("n, spread", [(800, 0.3), (3000, 0.5)])
def test_kernel_factor_matches_dense_gram_d2(n, spread):
    pts = _cell(np.random.default_rng(n), n, 2, spread)
    with mock.patch.object(decomp, "build_gram", wraps=decomp.build_gram) as spy:
        f = kernel_factor(pts)
    assert not spy.called  # low rank, so the pivoted path
    m = build_gram(pts)
    assert f.n_data == n and f.columns.shape[1] == n
    assert np.abs(f.gram() - m).max() <= 1e-10
    assert np.abs(np.linalg.norm(f.columns, axis=0) - 1.0).max() <= 1e-9
    assert f.dim_m == psd_factor(m).dim_m


@st.composite
def kernel_cells(draw):
    """Cells in d = 1..6: small (dense path) or above the 256-point cut,
    tight (low rank, pivoted) or wide (full rank at d >= 3, dense
    fallback), with coordinates snapped to the cell boundary +-1 and
    duplicated rows."""
    d = draw(st.integers(1, 6))
    n = draw(st.one_of(st.integers(1, 40), st.integers(257, 420)))
    spread = draw(st.sampled_from([0.005, 0.05, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = _cell(rng, n, d, spread)
    snap = rng.random((n, d)) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    pts[snap] = rng.choice([-1.0, 1.0], int(snap.sum()))
    n_dup = draw(st.integers(0, n // 2))
    src = rng.integers(0, n, n_dup)
    dst = rng.choice(n, n_dup, replace=False)
    keep = src != dst
    pts[dst[keep]] = pts[src[keep]]
    return pts


@settings(max_examples=40, deadline=None)
@given(kernel_cells())
def test_kernel_factor_dense_path_bit_identical(pts):
    n = pts.shape[0]
    with mock.patch.object(decomp, "build_gram", wraps=decomp.build_gram) as spy:
        f = kernel_factor(pts)
    m = build_gram(pts)
    if spy.called:
        assert np.array_equal(f.columns, psd_factor(m).columns)
    else:
        assert n > 256 and f.dim_m <= n // 4
        assert np.abs(f.gram() - m).max() <= 1e-10
    assert f.n_data == n and f.columns.shape[1] == n
    _, first, counts = np.unique(pts, axis=0, return_index=True, return_counts=True)
    for a in first[counts > 1]:
        same = np.flatnonzero((pts == pts[a]).all(axis=1))
        assert np.abs(f.columns[:, same] - f.columns[:, [a]]).max() <= 1e-7


def test_kernel_factor_memory_bounded_20k():
    # The dense path would need 3.2 GB for the 20,000^2 Gram alone.
    pts = _cell(np.random.default_rng(20), 20_000, 2, 0.5)
    tracemalloc.start()
    try:
        f = kernel_factor(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 300e6
    assert f.columns.shape[1] == 20_000
    assert np.abs(np.linalg.norm(f.columns, axis=0) - 1.0).max() <= 1e-9
