import hashlib
import math

import numpy as np
import pytest

from kdecoreset.schedule import (
    N_MIN,
    Grid,
    build_schedule,
    default_constants,
    ell,
    ilog,
    n_sequence,
)

from audits import threshold_batch

# Large enough that the level count reaches 2 (needs n > e^(e^e)).
N_ELL2 = int(math.ceil(math.exp(math.exp(3.0))))


def test_ilog_zero_applications():
    assert ilog(0, 5) == 5.0


def test_ilog_identity():
    assert ilog(1, math.e) == pytest.approx(1.0, abs=1e-15)


def test_ilog_triple():
    expected = math.log(math.log(math.log(1e6)))
    assert ilog(3, 1e6) == pytest.approx(expected, rel=1e-15)


def test_ilog_undefined_sentinel():
    assert ilog(2, 1.0) is None  # log 1 = 0, log 0 undefined
    assert ilog(3, 2.0) is None


def test_ell_million():
    # ilog(4, 1e6) < 0 < ilog(3, 1e6), so k = 4 and ell = 1.
    assert ilog(3, 1e6) > 0 > math.log(ilog(3, 1e6))
    assert ell(10**6) == 1


def test_ell_two_clamps_to_zero():
    # k = 2 for n = 2, so ell = max(2 - 3, 0) = 0.
    assert ell(2) == 0


def test_ell_nondecreasing():
    checkpoints = [2, 3, 5, 10, 15, 16, 50, 10**3, 10**4, 10**5, 10**6]
    values = [ell(n) for n in checkpoints]
    assert values == sorted(values)


def test_ell_reaches_two():
    assert ell(N_ELL2) == 2


def test_n_sequence_million():
    seq = n_sequence(10**6)
    logn = math.log(1e6)
    assert seq[0] == pytest.approx(logn**2, rel=1e-12)
    assert seq[1] == pytest.approx(math.sqrt(3 * logn) + 3, rel=1e-12)
    assert len(seq) == 2  # ell = 1 stops the list at n_1


def test_n_sequence_two_levels():
    seq = n_sequence(N_ELL2)
    assert len(seq) == 3
    # n_2 = sqrt(3 * 2^(ell - 1) * log n_1) with ell = 2.
    assert seq[2] == pytest.approx(math.sqrt(3 * 2 * math.log(seq[1])), rel=1e-12)


def test_n_sequence_monotone_tail():
    for n in [N_ELL2, 10 * N_ELL2, 100 * N_ELL2]:
        seq = n_sequence(n)
        tail = seq[1:]
        assert all(a > b for a, b in zip(tail, tail[1:]))
        assert all(v > 1.0 for v in seq)


def test_n_sequence_degenerate_raises():
    with pytest.raises(ValueError, match="degenerate"):
        n_sequence(8)


def test_recurrence_bound():
    # n_ell <= sqrt(6) * ilog(ell, n) wherever defined and ell >= 1.
    for n in [16, 32, 100, 1000, 10**6, N_ELL2]:
        L = max(ell(n), 1)
        seq = n_sequence(n)
        bound = math.sqrt(6.0) * ilog(L, n)
        assert seq[L] <= bound, (n, seq[L], bound)


def test_build_schedule_million_d1():
    cst = default_constants(1, c0=20.0)
    sch = build_schedule(10**6, 1, cst)
    logn = math.log(1e6)
    assert sch.grids[0].width == pytest.approx(1.0 / (20.0 * logn**2), rel=1e-12)
    assert sch.grids[0].radius == pytest.approx(math.sqrt(3 * logn) + 3, rel=1e-12)
    assert sch.ell == 1 and len(sch.grids) == 1


def test_threshold_at_center_and_monotone():
    sch = build_schedule(1000, 2)
    assert threshold_batch(sch, 0, [[0.0, 0.0]])[0] == pytest.approx(
        sch.constants.c1 * sch.seq[1], rel=1e-12)
    radii = [0.0, 0.5, 1.0, 2.0, 4.0]
    vals = [threshold_batch(sch, 0, [[r, 0.0]])[0] for r in radii]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)
    with pytest.raises(ValueError, match="out of range"):
        threshold_batch(sch, 1, [[0.0, 0.0]])


def test_threshold_formula_value():
    cst = default_constants(1, c0=20.0, c1=10.0)
    sch = build_schedule(10**6, 1, cst)
    expected = 10.0 * sch.seq[1] * math.exp(-2.0 / 3.0)
    assert threshold_batch(sch, 0, [[1.0]])[0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(48.456, abs=0.01)


def test_threshold_batch_matches_scalar():
    sch = build_schedule(500, 2)
    pts = np.random.default_rng(0).uniform(-3, 3, size=(20, 2))
    batch = threshold_batch(sch, 0, pts)
    for i, p in enumerate(pts):
        expected = sch.constants.c1 * sch.seq[1] * math.exp(-(2.0 / 3.0) * float(p @ p))
        assert batch[i] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_verification_levels_match_threshold_batch(d):
    for n in (8, 200):
        sch = build_schedule(n, d, default_constants(d, grid_budget=500))
        for level, (grid, thresholds) in enumerate(sch.verification_levels):
            expected = threshold_batch(sch, level, grid.points())
            assert thresholds.shape == expected.shape
            np.testing.assert_allclose(thresholds, expected, rtol=1e-12, atol=0.0)


def test_build_schedule_memoized_and_read_only():
    cst = default_constants(2, grid_budget=300)
    sch = build_schedule(40, 2, cst)
    assert build_schedule(40, 2, default_constants(2, grid_budget=300)) is sch
    assert build_schedule(40, 2) is build_schedule(40, 2, default_constants(2))
    assert build_schedule(41, 2, cst) is not sch
    for _, thresholds in sch.verification_levels:
        assert not thresholds.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            thresholds[0] = 0.0
    assert build_schedule(40, 2, cst).verification_levels is sch.verification_levels


def test_grid_count_and_enumeration_deterministic():
    g = Grid(width=0.25, radius=1.0, dim=2)
    pts = g.points()
    assert pts.shape == (g.count(), 2)
    assert g.count() == (2 * 4 + 1) ** 2
    h1 = hashlib.sha256(pts.tobytes()).hexdigest()
    h2 = hashlib.sha256(g.points().tobytes()).hexdigest()
    assert h1 == h2
    assert np.abs(pts).max() <= 1.0 + 1e-12


def test_grid_size_bound():
    # Enumerated |S_i| <= (2 c0 n_i n_{i+1} + 1)^d; the +1 per axis counts
    # the center point that the asymptotic (2 c0 n_i n_{i+1})^d form drops.
    for n, d in [(100, 1), (1000, 1), (16, 2)]:
        cst = default_constants(d)
        sch = build_schedule(n, d, cst)
        for i, g in enumerate(sch.grids):
            bound = (2 * cst.c0 * sch.seq[i] * sch.seq[i + 1] + 1) ** d
            assert g.count() <= bound


def test_grid_coarsened_subset():
    g = Grid(width=0.1, radius=2.0, dim=2)
    c = g.coarsened(100)
    assert c.count() <= 100
    fine = {tuple(p) for p in np.round(g.points(), 9)}
    assert all(tuple(p) in fine for p in np.round(c.points(), 9))
    assert g.coarsened(None) is g
    for bad in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            g.coarsened(bad)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_sizes_below_n_min_share_one_schedule(d):
    # Every size below N_MIN has the same grid, thresholds and c_big, so
    # the colorizer stacks all such cells of a round together.
    shared = build_schedule(1, d)
    assert all(build_schedule(n, d) is shared for n in range(1, N_MIN))
    assert build_schedule(N_MIN, d) is not shared
    assert build_schedule(1, d, default_constants(d, c1=3.0)) is not shared


def test_degenerate_schedule():
    cst = default_constants(1, c0=20.0)
    sch = build_schedule(8, 1, cst)
    assert sch is build_schedule(1, 1, cst) and sch.ell == 1
    assert sch.grids[0].width == pytest.approx(1.0 / (20.0 * N_MIN), rel=1e-12)
    assert sch.grids[0].radius == pytest.approx(math.sqrt(3 * math.log(N_MIN)) + 3, rel=1e-12)


def test_strict_constants():
    cst = default_constants(2, strict=True)
    assert cst.grid_budget is None
    assert cst.c_big >= math.exp(2.0 * 4.0)
    assert cst.c_big >= 4.0 * cst.c1 + 7.0
    assert cst.c1 > cst.c0


def test_seq_strictly_decreasing_from_index_one():
    sch = build_schedule(N_ELL2, 1)
    tail = sch.seq[1:]
    assert all(a > b for a, b in zip(tail, tail[1:]))
