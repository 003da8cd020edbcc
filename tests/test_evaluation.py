import math

import numpy as np
import pytest

from kdecoreset.evaluation import (
    KERNEL_LIPSCHITZ,
    build_query_grid,
    expansion_margin,
    linf_error,
    truncation_order,
    truncation_audit,
)
from kdecoreset.colorizer import verify
from kdecoreset.kernel import kernel_sum
from kdecoreset.schedule import build_schedule, default_constants, threshold_batch


def test_linf_identical_sets_zero():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(30, 2))
    report = linf_error(pts, pts, budget=5000)
    assert report.sup_error == 0.0


def test_linf_two_singletons():
    report = linf_error(np.array([[0.0]]), np.array([[1.0]]), budget=20000)
    # At x = 0 the difference is 1 - e^{-1}; the grid sup can only exceed it.
    assert report.sup_error >= 1.0 - math.exp(-1.0) - 1e-12
    assert report.sup_error <= 1.0
    assert report.tail_bound < 1e-6
    assert all(type(v) is float for v in report.argmax_query)


def test_linf_symmetry():
    rng = np.random.default_rng(1)
    p = rng.uniform(-1, 1, size=(20, 2))
    q = rng.uniform(-1, 1, size=(7, 2))
    a = linf_error(p, q, budget=4000)
    b = linf_error(q, p, budget=4000)
    assert a.sup_error == b.sup_error
    assert a.grid == b.grid


@pytest.mark.parametrize("d", [2, 3])
def test_linf_upper_bound_at_most_one(d):
    # Both KDEs lie in [0, 1]. At d = 3 the budgeted lattice is so coarse
    # that sup + discretization passes 1, and the bound is clamped there;
    # at d = 2 it stays below 1 and is reported as is.
    rng = np.random.default_rng(0)
    p = rng.normal(0, 1, size=(4096, d))
    report = linf_error(p, p[rng.choice(4096, 64, replace=False)])
    raw = max(report.sup_error + report.discretization_bound, report.tail_bound)
    assert report.upper_bound == min(raw, 1.0)
    assert (raw > 1.0) == (d == 3)


def test_linf_refinement_changes_bounded_by_lipschitz():
    rng = np.random.default_rng(2)
    p = rng.uniform(-1, 1, size=(40, 1))
    q = p[:10]
    coarse_grid = build_query_grid(np.concatenate([p, q]), resolution=64, budget=None)
    fine_grid = build_query_grid(np.concatenate([p, q]), resolution=128, budget=None)
    coarse = linf_error(p, q, grid=coarse_grid)
    fine = linf_error(p, q, grid=fine_grid)
    # Halving the width moves the measured sup by at most the Lipschitz
    # constant times the old width (per axis).
    assert fine.sup_error >= coarse.sup_error - 1e-12
    assert fine.sup_error - coarse.sup_error <= 2 * KERNEL_LIPSCHITZ * coarse_grid.width


def test_linf_refinement_monotone_on_subgrid():
    rng = np.random.default_rng(3)
    p = rng.uniform(-1, 1, size=(25, 2))
    q = p[:5]
    union = np.concatenate([p, q])
    g_coarse = build_query_grid(union, resolution=32, budget=None)
    g_fine = build_query_grid(union, resolution=64, budget=None)
    # Same center, width halved: coarse points are a subset of fine points.
    assert linf_error(p, q, grid=g_fine).sup_error >= linf_error(p, q, grid=g_coarse).sup_error


def test_query_grid_covers_expanded_box():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-3, 5, size=(100, 2))
    grid = build_query_grid(pts, budget=10000)
    margin = expansion_margin(100)
    center = np.asarray(grid.center)
    assert grid.radius >= np.abs(pts - center).max() + margin - 1e-9


def test_truncation_zero_query():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(10, 2))
    signs = rng.choice([-1, 1], size=10)
    assert truncation_audit(pts, signs, [0.0, 0.0], rho=0) <= 1e-12
    assert truncation_audit(pts, signs, [0.0, 0.0], rho=7) <= 1e-12


def test_truncation_single_origin_point():
    assert truncation_audit(np.array([[0.0]]), [1], [1.3], rho=0) <= 1e-12


def test_truncation_truncation_order_bound():
    rng = np.random.default_rng(6)
    n, d = 64, 2
    pts = rng.uniform(-1, 1, size=(n, d))
    signs = rng.choice([-1, 1], size=n)
    rho = truncation_order(n, d)
    margin = math.sqrt(3 * math.log(n)) + 3
    for _ in range(5):
        x = rng.uniform(-margin, margin, size=d)
        assert truncation_audit(pts, signs, x, rho) <= 1.0


def test_truncation_rejects_negative_rho():
    with pytest.raises(ValueError, match="rho"):
        truncation_audit(np.array([[0.0]]), [1], [0.0], rho=-1)


def test_truncation_order_value():
    n, d = 64, 2
    expected = math.ceil(2 * math.e**2 * d * (math.sqrt(3 * math.log(n)) + 3)
                         + math.log(n) + 2 * d) - 1
    assert truncation_order(n, d) == expected


def test_profile_duplicates_cancel():
    pts = np.array([[0.1], [0.1]])
    disc = kernel_sum(pts, [1, -1], np.linspace(-2, 2, 11).reshape(-1, 1))
    assert np.all(disc == 0.0)


def test_profile_sign_flip_invariant():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(12, 2))
    signs = rng.choice([-1, 1], size=12)
    qs = rng.uniform(-2, 2, size=(30, 2))
    a = np.abs(kernel_sum(pts, signs, qs))
    b = np.abs(kernel_sum(pts, -signs, qs))
    assert np.array_equal(a, b)


def test_profile_matches_verify_numerator():
    # verify's max_ratio, from per-axis tables on each level's grid, equals
    # the pairwise |D(s)| / threshold(s) maximized over the listed grid points.
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, size=(25, 2))
    signs = rng.choice([-1, 1], size=25)
    sch = build_schedule(25, 2, default_constants(2, grid_budget=300))
    _, max_ratio, _ = verify(pts, signs, sch)
    best = 0.0
    for level, grid in enumerate(sch.verification_grids()):
        qs = grid.points()
        ratios = np.abs(kernel_sum(pts, signs, qs)) / threshold_batch(sch, level, qs)
        best = max(best, float(ratios.max()))
    assert best == pytest.approx(max_ratio, rel=1e-12)
