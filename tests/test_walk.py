import numpy as np
import pytest

from kdecoreset.decomp import _factors, augment
from kdecoreset.walk import gsw_color

import naive
from audits import subgaussian_audit, wilson_interval
from tracing import traced_peak


def unit_rows(rng, n, m, scale=1.0):
    v = rng.standard_normal((n, m))
    return scale * v / np.linalg.norm(v, axis=1, keepdims=True)


def test_single_vector():
    v = np.array([[1.0]])
    seen = set()
    for seed in range(20):
        out = gsw_color(v, seed)
        assert out.signs.shape == (1,) and out.signs[0] in (-1, 1)
        assert out.steps == 1
        seen.add(int(out.signs[0]))
    assert seen == {-1, 1}


def test_identical_pair_cancels():
    rng = np.random.default_rng(0)
    v = np.tile(unit_rows(rng, 1, 6), (2, 1))
    sums = []
    theta = unit_rows(rng, 1, 6)[0]
    for seed in range(1000):
        out = gsw_color(v, seed)
        x = out.signs @ v
        norm = np.linalg.norm(x)
        assert norm < 1e-6 or abs(norm - 2.0) < 1e-6
        sums.append(float(x @ theta))
    sums = np.asarray(sums)
    stderr = sums.std() / np.sqrt(len(sums)) + 1e-12
    assert abs(sums.mean()) <= 3 * stderr + 1e-9


def test_signs_exact_and_termination():
    rng = np.random.default_rng(1)
    inputs = [unit_rows(rng, n, m, scale=0.9) for n, m in [(5, 3), (40, 10), (64, 64)]]
    inputs.append(np.repeat(unit_rows(rng, 5, 3), 40, axis=0))  # duplicates, n > m
    for v in inputs:
        n = v.shape[0]
        out = gsw_color(v, 7)
        assert set(np.unique(out.signs)).issubset({-1, 1})
        assert out.signs.dtype == np.int64
        assert out.steps <= 2 * n


def test_determinism():
    rng = np.random.default_rng(2)
    v = unit_rows(rng, 30, 8)
    a = gsw_color(v, 12345)
    b = gsw_color(v, 12345)
    assert np.array_equal(a.signs, b.signs) and a.steps == b.steps
    c = gsw_color(v, 54321)
    assert not np.array_equal(a.signs, c.signs)  # seeds differ


def test_second_moment_envelope():
    # E[<X, theta>^2] over 200 runs x 50 directions stays within the
    # calibration envelope for 64 random unit vectors in R^64.
    rng = np.random.default_rng(4)
    v = unit_rows(rng, 64, 64)
    thetas = unit_rows(rng, 50, 64).T
    acc = []
    root = np.random.SeedSequence(17)
    for seed in root.spawn(200):
        x = gsw_color(v, seed).signs @ v
        acc.append((x @ thetas) ** 2)
    assert np.mean(acc) <= 40.0


def test_norm_validation():
    with pytest.raises(ValueError, match="norm"):
        gsw_color(np.array([[1.0, 1.0]]), 0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            gsw_color(np.array([[bad, 0.0], [0.1, 0.2]]), 0)


@pytest.mark.parametrize("n", [50, 200])
@pytest.mark.parametrize("m", [1, 2])
def test_matches_least_squares_reference(n, m):
    # Exact sign equality with a walk that solves every direction from
    # scratch. At m >= 3 the k <= m tail amplifies float noise, so
    # the two can part there without either being wrong.
    rng = np.random.default_rng(1000 * n + m)
    for seed in range(30):
        v = rng.standard_normal((n, m))
        v *= rng.uniform(0.3, 1.0, (n, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
        assert gsw_color(v, seed).signs.tolist() == naive.reference_walk(v, seed), seed


# Signs of unit_rows(default_rng(n * m), n, m, 0.9) for seeds 0-4. Walks
# with n <= m, (40, 41) and (64, 64), run the eager Sherman-Morrison loop
# from the first step. Walks with n > m, (300, 12) and (160, 40), first walk
# on the inverse of the second moment without the pivot, fill and flush its
# Woodbury panel while k > m, and then cross into that loop. These pin the
# arithmetic of both phases.
PINNED_SIGNS = {
    (40, 41): ["-----++----+---+------++-+-+++-+--+-+--+",
               "-----+-++-+--+++----+-+++++-+-+-----++--",
               "++++++-+-+------+-++-+-----+---++--+----",
               "-----+-++-+--++----++-++-+--+++++-+-+-+-",
               "------+-+--+---+--++-+-+----+-++--+-+++-"],
    (64, 64): ["+----+++-+--+-----+-+---++-+-++-+-++-+--++-+-++++----+----++-+-+",
               "+--------+---+--+-+-+--+-++--+--+-++-++++++--+-+---++++++-++-+++",
               "-+-+++-++++++-++-+---++---+++-++---++----+--+--+++++++-+++---+--",
               "+--------+---+-++---+-+----+-++++----++-+------++-----+-++++++++",
               "+----+-+-+--+++-+-+-+--+++-+-+--+-++-++--+-+++-+++--------+-+++-"],
    (300, 12): [
        ("+-++++++---+++-+-++--++-+---+++++++++-+++-++-++-++++--+-+-++-++--++---+--+-"
         "++-+---++----+----------++-++++-+---++---+++-+++-------+-+-++-+++-++-+---+-"
         "+-+---+++++-++-++-++-+++-++-++-+++--+++-++-+--++-------++-+++-++-------+-+-"
         "+++-++++------+++++-+--+-+--+++-++--++---+-+--+++---++++++-++--+-+++-+-++++"),
        ("++-----++---++--+++-++-+++-+++-++--++---+-+---++--+---++----++++------+----"
         "--+--+--+-----++----+++---+--++-+++--+-++-+++--++---+-++-++++-++--+--+++++-"
         "+---+++----+-++--++-++-+++------+-+--+--+---+--+--+--++-+---+--------++++-+"
         "---++--++-+++----+-+-++-+----+---+++++--+-+-++-++++++++++--+-+++---++++-+++"),
        ("+-+++-++++--+----++-++-+++--+---+--+++--+++---+++++-++-++-++-++-+-++++-+-+-"
         "--+-+++--++----++--+--+++---++-+++--+--++++-+-+-+-+-----+++--+-++-+-++--++-"
         "--+++-+-++-+-++++---++--+-+---+---------+-+-+++-+-----++--+++--+-+--++++---"
         "--+-++-+--+-++--++-+++---+-+-++-++--+--+--+--+++-+---+-++++-++--+++++-+----"),
        ("+++-++-++-++++-+-++++++-++-++-++--++-+-------+--++-++++-+-----++++--++----+"
         "+--+++--+++++-+++-----+-+-+-+---++-++-+-+-+-+-+-+-+++-+--+-++---+-+-+++--++"
         "-+-++--++---+-+-++-+--+-+-+-+++----+-++-++--+--+----+-+--++-+++--+---+-+--+"
         "+----++--+--+++++-+--++-++--+----+-++--+--------+---++++--+++++-+--+----+++"),
        ("---------+++-++++--+++-++-++------+--+--+-++--+++++-+------+-++--+-++-++--+"
         "-+--++++---+-+-+--+-++-+-----+--+----+------+-++++--++++-+---+-+-+---++++--"
         "+-+++---+--+-++-+-+--+---+--+-+++-++--+++-+-+---+--+----+---+----+-+++-++++"
         "+-+-+-+-+--+-+-+---++---++++--++--+--+---++-+--++--+----+-------+-+-+--+--+"),
    ],
    (160, 40): [
        ("+++-+++--+-+-+--+-+++++--++-+----+-++---+++-+++++---+++------+--+-----+--+-"
         "++++-++---+---++-+-++-+---++++----+-+---++++---+--++-+--+++---++++++-++----"
         "+++-+-++++"),
        ("++++-+-+++++-++--+-+--+----+++++-++--+++-++--+--++-++++-+-++++-++-++-++---+"
         "-+-++----+----++--+--+-+-+-+--+-+-++-++-+---++++--+-+-+--+++++-++++--+-+++-"
         "--++++-+++"),
        ("-++-+-----++----+-----+-----+---+--+--++-+---++++++-++--++-+-+++-++++-++++-"
         "+-+-+-++-----+-+-++------++++-+++----+--+-++--+--+--++-+++-------++++-++--+"
         "++++-+----"),
        ("+-++-+++----+-++++---+--++-+---+++--++-++++++++-+-+-+--++----+--++--+-+-+-+"
         "-+---+++----+--+--++++----+++++--+-++--++---+-++-------+--+---++++--+++++-+"
         "--+----+++"),
        ("---+-+--+-+-+-+-+--+--+-+-++++--------++-+-++---+---+++++-+-+--++-+--------"
         "+-+--+++---+-++++++---++---+-+----+--++--+-+---++--++-+-++---+----+-------+"
         "-+-+--+--+"),
    ],
}


@pytest.mark.parametrize("shape", sorted(PINNED_SIGNS))
def test_pinned_signs(shape):
    n, m = shape
    v = unit_rows(np.random.default_rng(n * m), n, m, scale=0.9)
    for seed, expected in enumerate(PINNED_SIGNS[shape]):
        got = "".join("+" if s > 0 else "-" for s in gsw_color(v, seed).signs)
        assert got == expected, seed


def test_walk_memory_bounded_d3_cell():
    # 1500 points at d = 3 give 797-dimensional vectors, so while k > m the
    # walk holds a Woodbury panel of n - m = 703 rows beside its m x m
    # matrices. It peaks at 30.0 MB traced. Keeping the panel through the
    # k <= m tail peaked at 34.5 MB, and an m-row panel with W - v_p v_p^T
    # in a temporary of its own at 35.0 MB.
    pts = np.random.default_rng(1).uniform(-0.7, 0.7, (1500, 3))
    v = augment(next(_factors(pts[None])), pts)
    assert v.shape == (1500, 797)
    _, peak = traced_peak(lambda: gsw_color(v, 0))
    assert peak <= 33e6, f"peak {peak / 1e6:.1f} MB"


def test_zero_vector_allowed():
    out = gsw_color(np.zeros((3, 2)), 5)
    assert set(np.unique(out.signs)).issubset({-1, 1})


def test_audit_trivial_alphas():
    rng = np.random.default_rng(5)
    v = unit_rows(rng, 8, 4)
    table = subgaussian_audit(v, trials=100, alphas=[0.0, 8.0], seed=3)
    # alpha = 0 exceeded unless X is exactly orthogonal to theta.
    assert table[0]["frequency"] >= 0.99
    # |<X, theta>| <= n by Cauchy-Schwarz, so alpha = n is never exceeded.
    assert table[1]["frequency"] == 0.0


def test_audit_tail_small():
    rng = np.random.default_rng(6)
    v = unit_rows(rng, 32, 16)
    table = subgaussian_audit(v, trials=200, alphas=[8.0], seed=4)
    assert table[0]["frequency"] <= 0.01
    assert table[0]["wilson_low"] <= table[0]["frequency"] <= table[0]["wilson_high"]


def test_audit_requires_trials():
    with pytest.raises(ValueError, match="100 trials"):
        subgaussian_audit(np.eye(2), trials=10, alphas=[1.0])


def test_audit_validates_directions():
    v = unit_rows(np.random.default_rng(8), 6, 4)
    for match, directions in [("unit norm", 10.0 * np.ones((4, 2))),
                              ("finite", np.full((4, 1), np.nan)),
                              ("array of columns", np.ones(4)),
                              ("array of columns", np.eye(3))]:
        with pytest.raises(ValueError, match=match):
            subgaussian_audit(v, trials=100, alphas=[1.0], directions=directions)
    table = subgaussian_audit(v, trials=100, alphas=[1.0], directions=np.eye(4))
    assert table[0]["samples"] == 400


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(100, 100)
    assert lo > 0.95 and hi > 0.999


def test_empirical_subgaussian_envelope_small():
    # Tail dominated by 3 e^(-alpha^2 / 16) within Wilson confidence.
    rng = np.random.default_rng(7)
    for _ in range(3):
        n = int(rng.integers(8, 65))
        m = int(rng.integers(4, 33))
        v = unit_rows(rng, n, m, scale=float(rng.uniform(0.5, 1.0)))
        table = subgaussian_audit(v, trials=120, alphas=[2.0, 4.0, 6.0, 8.0],
                                  seed=int(rng.integers(1 << 31)))
        for row in table:
            envelope = 3.0 * np.exp(-row["alpha"] ** 2 / 16.0)
            assert row["wilson_low"] <= envelope
