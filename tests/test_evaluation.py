import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdecoreset.evaluation import (
    KERNEL_LIPSCHITZ,
    build_query_grid,
    expansion_margin,
    linf_error,
)
from kdecoreset.colorizer import verify
from kdecoreset.kernel import kernel_sum
from kdecoreset.schedule import Grid, build_schedule, default_constants

import naive
from audits import threshold_batch, truncation_audit, truncation_order
from test_acceptance import mixture_points
from tracing import traced_peak


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


def test_linf_error_memory_bounded_on_the_mixture():
    # Criterion 8's 4096-point mixture against 20 of its points at the
    # default budget: each lattice sum tabulates the points in chunks of
    # _BLOCK_ELEMS floats and folds its weights into each chunk's first
    # table in place, and _gap differences in place, so the traced peak
    # is 1.7 MB.
    pts = mixture_points()
    report, peak = traced_peak(lambda: linf_error(pts, pts[::205]))
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"
    assert report.n_evaluated == 16605 and report.sup_error > 0.0


@pytest.mark.parametrize("n", [4096, 16384])
def test_linf_error_memory_flat_in_the_point_count(n):
    # The summed rectangle holds about 15k lattice points at either size,
    # so a peak that grew with n would come from tabulating the whole set:
    # 8.2 and 33.8 MB that way, 1.6 and 2.4 MB in chunks of _BLOCK_ELEMS.
    pts = mixture_points(n)
    report, peak = traced_peak(lambda: linf_error(pts, pts[::n // 20]))
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"
    assert report.sup_error > 0.0


def test_linf_symmetry():
    rng = np.random.default_rng(1)
    p = rng.uniform(-1, 1, size=(20, 2))
    q = rng.uniform(-1, 1, size=(7, 2))
    a = linf_error(p, q, budget=4000)
    b = linf_error(q, p, budget=4000)
    assert a.sup_error == b.sup_error
    assert a.grid == b.grid
    # Sets that share and repeat rows, drawn with replacement from one
    # 6-point base: each merged row carries weight from both sets.
    base = rng.uniform(-1, 1, size=(6, 2))
    p, q = base[rng.integers(0, 6, 23)], base[rng.integers(0, 6, 9)]
    a, b = linf_error(p, q, budget=4000), linf_error(q, p, budget=4000)
    assert a.sup_error == b.sup_error > 0.0
    assert a.argmax_query == b.argmax_query


def test_linf_rejects_a_grid_of_another_dimension():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        linf_error(pts, pts[:1], grid=Grid(0.5, 1.0, 3))


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


@st.composite
def eval_cases(draw):
    """(P, Q, grid, budget, Q is a copy of P) for linf_error in d = 1..3.

    P is narrow (uniform in [-1, 1]), wide (normal(0, 20)), offset by 1e3,
    or one point repeated (a one-point box), and may repeat rows. Q is a
    subset of P, P itself, or fresh points of P's kind. The grid is None
    (linf_error builds one within `budget`), a query grid the caller
    builds, or a caller's lattice that may miss the data.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["narrow", "wide", "offset", "point"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sample(size):
        if kind == "wide":
            return rng.normal(0.0, 20.0, (size, d))
        if kind == "point":
            return np.tile(rng.uniform(-1.0, 1.0, d), (size, 1))
        return rng.uniform(-1.0, 1.0, (size, d)) + (1e3 if kind == "offset" else 0.0)

    p = sample(n)
    if draw(st.booleans()):
        p = p[rng.integers(0, n, n)]
    q_kind = draw(st.sampled_from(["subset", "same", "fresh"]))
    if q_kind == "same":
        q = p.copy()
    elif q_kind == "subset":
        q = p[rng.choice(n, size=draw(st.integers(1, n)), replace=False)]
    else:
        q = sample(draw(st.integers(1, 24)))
    budget = draw(st.sampled_from([50, 500, 4000, 20000]))
    union = np.concatenate([p, q])
    grid_kind = draw(st.sampled_from(["none", "query", "caller"]))
    if grid_kind == "query":
        grid = build_query_grid(union, resolution=draw(st.integers(1, 64)), budget=budget)
    elif grid_kind == "caller":
        center = (union.min(axis=0) + union.max(axis=0)) / 2.0 + rng.normal(0.0, 3.0, d)
        grid = Grid(width=draw(st.floats(0.01, 2.0)), radius=draw(st.floats(0.5, 30.0)),
                    dim=d, center=tuple(center)).coarsened(budget)
    else:
        grid = None
    return p, q, grid, budget, q_kind == "same"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(eval_cases())
def test_linf_pruned_matches_full_lattice(case):
    # The far-field certificate skips only points that cannot hold the
    # max: sup and argmax are those of the unpruned sum over the whole
    # grid, up to the summation order of a smaller BLAS product.
    p, q, grid, budget, same = case
    report = linf_error(p, q, grid=grid, budget=budget)
    if grid is not None:
        assert report.grid == grid
    full = naive.full_lattice_gap(p, q, report.grid)
    top = float(full.max())
    assert report.n_queries == report.grid.count() == full.size
    assert 1 <= report.n_evaluated <= report.n_queries
    assert abs(report.sup_error - top) <= 1e-15 * top
    index = [np.flatnonzero(axis == x) for axis, x in zip(report.grid.axes(), report.argmax_query)]
    assert all(i.size == 1 for i in index)
    at = np.ravel_multi_index([i[0] for i in index], [axis.size for axis in report.grid.axes()])
    assert abs(full[at] - top) <= 1e-15 * top
    # An independent reference: the two KDEs pairwise at every grid point.
    queries = report.grid.points()
    pairwise = np.abs(kernel_sum(p, np.full(len(p), 1.0 / len(p)), queries)
                      - kernel_sum(q, np.full(len(q), 1.0 / len(q)), queries))
    assert abs(report.sup_error - float(pairwise.max())) <= 1e-13
    if same:
        assert report.sup_error == 0.0
        assert report.n_evaluated == report.n_queries


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
