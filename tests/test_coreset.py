import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdecoreset import recheck
from kdecoreset.colorizer import partition
from kdecoreset.coreset import (
    build_coreset,
    halve_indices,
    random_baseline,
)
from kdecoreset.kernel import kernel_sum
from kdecoreset.schedule import default_constants

import naive
from audits import oracle_min_discrepancy


def small_constants(d):
    return default_constants(d, grid_budget=400)


# sha256 of the final indices (int64) and every cell's max_grid_ratio
# (float64, in round and cell order) of build_coreset on normal(0, 5)
# points, target 192, default schedules, per chain seed. Refactors meant to
# be bit-identical must keep these; a change that alters colorings or
# ratios on purpose re-records them and says why.
PINNED_CHAINS = {
    0: "9a745c319bc159037ad00f18ce2988b5026ec75d69053d7c813c687aefb9695a",
    1: "5c4630f03869b6d822a600c8b5286873d5aa47a64a2b1cda691770699fdd7fd9",
    2: "6f08ef6abc647bd4638374ecbf22bab204ced801160095234a8b7a651c137db3",
}

# The same digest for one chain through walk_input's pivoted factor and
# its SVD: 1200 uniform(-1, 1) points fill one d = 2 cell, halved
# to 300 through cells of 1200 and 600 points, chain seed 0, at one BLAS
# thread (OpenBLAS sums in another order on more threads). PINNED_PIVOTED_INDICES is the
# sha256 of the indices alone, which a change to how the ratios are summed
# keeps.
PINNED_PIVOTED_CHAIN = "d16ae93bb07907ae28183c1bb7dbee8cf4226e78238be5187df515e621bc611e"
PINNED_PIVOTED_INDICES = "b79a2719455f2cb7234f813251a021adfae85e5a30ece7d44cbe2c9c98726d83"


def test_halve_duplicate_pair():
    pts = np.array([[0.5, 0.5], [0.5, 0.5]])
    kept, _, _ = halve_indices(pts, seed=0, constants=small_constants(2))
    out = pts[kept]
    assert out.shape == (1, 2)
    assert np.array_equal(out[0], pts[0])


def test_halve_single_cell_exact_half():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(1000, 2))
    kept, _, _ = halve_indices(pts, seed=1, constants=small_constants(2))
    assert pts[kept].shape[0] == 500


def test_halve_kde_identity():
    # kde(P, x) - kde(P_plus, x) = -(1/n) D_{P,sigma}(x) at exact halving;
    # with odd leftovers the correction is bounded by imbalance / n.
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(200, 2))
    kept, signs, _ = halve_indices(pts, seed=2, constants=small_constants(2))
    n, m = len(pts), len(kept)
    queries = rng.uniform(-2, 2, size=(50, 2))
    disc = kernel_sum(pts, signs, queries)
    lhs = (kernel_sum(pts, np.ones(n), queries) / n
           - kernel_sum(pts[kept], np.ones(m), queries) / m)
    if 2 * m == n:
        assert np.abs(lhs + disc / n).max() <= 1e-12
    assert np.abs(lhs + disc / n).max() <= abs(n - 2 * m) / n + 1e-12


def test_halve_size_deviation_bounded_by_cells():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-6, 6, size=(400, 2))
    kept, signs, reports = halve_indices(pts, seed=3, constants=small_constants(2))
    assert abs(2 * len(kept) - len(pts)) <= len(reports)


def test_build_coreset_identity():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(64, 2))
    res = build_coreset(pts, target=64, seed=0, constants=small_constants(2))
    assert np.array_equal(res.indices, np.arange(64))
    assert res.rounds == ()


def test_build_coreset_one_round():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(128, 2))
    res = build_coreset(pts, target=64, seed=0, constants=small_constants(2))
    assert len(res.rounds) == 1
    assert res.size == 64


def test_build_coreset_trajectory():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(4096, 2))
    res = build_coreset(pts, target=128, seed=0, constants=small_constants(2))
    sizes = [r.size_after for r in res.rounds]
    assert len(res.rounds) == 5
    for expected, got, rnd in zip([2048, 1024, 512, 256, 128], sizes, res.rounds):
        assert abs(got - expected) <= len(rnd.cells)


def test_build_coreset_nesting():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-2, 2, size=(256, 2))
    res = build_coreset(pts, target=32, seed=1, constants=small_constants(2))
    prev = set(range(256))
    for rnd in res.rounds:
        kept = set(rnd.kept.tolist())
        assert kept <= prev
        prev = kept
    assert set(res.indices.tolist()) <= prev | set(res.indices.tolist())
    assert set(res.indices.tolist()) == prev


def test_build_coreset_epsilon_and_presample():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(600, 1))
    res = build_coreset(pts, epsilon=0.1, seed=2, presample=True,
                        constants=small_constants(1))
    # presample to ceil(4 / 0.01) = 400, halve to <= ceil(4 / 0.1) = 40.
    assert res.presampled_from == 600
    assert res.presample_indices.size == 400
    assert res.size <= 40
    assert res.target_size == 40
    assert set(res.indices.tolist()) <= set(res.presample_indices.tolist())


def test_build_coreset_beyond_2_53():
    # Cells must hold their points within sup distance 1 of the center at
    # any magnitude, also where x - 1 rounds across a lattice site.
    pts = 2.0 ** 53 + np.random.default_rng(12).uniform(-3, 3, (200, 2))
    res = build_coreset(pts, target=50)
    assert res.size <= 50


def test_build_coreset_argument_validation():
    pts = np.zeros((10, 1))
    with pytest.raises(ValueError, match="exactly one"):
        build_coreset(pts)
    with pytest.raises(ValueError, match="exactly one"):
        build_coreset(pts, target=5, epsilon=0.5)
    with pytest.raises(ValueError, match="out of range"):
        build_coreset(pts, target=11)
    with pytest.raises(ValueError, match="epsilon"):
        build_coreset(pts, epsilon=1.5)


def test_random_baseline_full_and_reproducible():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, size=(50, 2))
    res = random_baseline(pts, 50, seed=0)
    assert np.array_equal(res.indices, np.arange(50))
    a = random_baseline(pts, 10, seed=42).indices
    b = random_baseline(pts, 10, seed=42).indices
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == 10


def test_random_baseline_uniform_frequency():
    pts = np.zeros((8, 1))
    counts = np.zeros(8)
    trials = 10_000
    for seed in range(trials):
        counts[random_baseline(pts, 1, seed=seed).indices[0]] += 1
    freq = counts / trials
    stderr = np.sqrt((1 / 8) * (7 / 8) / trials)
    assert np.abs(freq - 1 / 8).max() <= 3 * stderr


def test_oracle_duplicates_and_singleton():
    p = [[0.3, 0.3]]
    queries = [[0.0, 0.0], [1.0, 1.0]]
    sup, signs = oracle_min_discrepancy(p + p, queries)
    assert sup == 0.0 and sorted(signs.tolist()) == [-1, 1]
    sup1, signs1 = oracle_min_discrepancy(p, queries)
    assert signs1.tolist() == [1]
    assert sup1 == pytest.approx(max(naive.gauss(q, p[0]) for q in queries), rel=1e-15)


def test_oracle_size_cap():
    with pytest.raises(ValueError, match="limited"):
        oracle_min_discrepancy(np.zeros((17, 1)), [[0.0]])


def test_oracle_dual_enumerators_bit_for_bit():
    rng = np.random.default_rng(9)
    for trial in range(3):
        n = int(rng.integers(4, 11))
        pts = rng.uniform(-1, 1, size=(n, 1))
        queries = rng.uniform(-2, 2, size=(25, 1))
        sup_a, signs_a = oracle_min_discrepancy(pts, queries)
        sup_b, signs_b = naive.oracle_enumerate(pts, queries)
        assert sup_a == sup_b  # bitwise float equality
        assert signs_a.tolist() == signs_b


def chain_digest(indices, ratios):
    digest = hashlib.sha256(np.asarray(indices, dtype=np.int64).tobytes())
    digest.update(np.asarray(ratios, dtype=np.float64).tobytes())
    return digest.hexdigest()


def test_pinned_chain_fingerprint():
    # 1024 spread points fill 151 cells, most of a few points, so this pins
    # the per-cell path: seeds, schedules, row merging and verification.
    pts = np.random.default_rng(0).normal(0.0, 5.0, (1024, 2))
    for seed, expected in PINNED_CHAINS.items():
        res = build_coreset(pts, target=192, seed=seed)
        ratios = [c.max_grid_ratio for r in res.rounds for c in r.cells]
        assert chain_digest(res.indices, ratios) == expected, seed


def test_pinned_pivoted_chain_fingerprint():
    script = "\n".join([
        "import json, numpy as np",
        "from kdecoreset.coreset import build_coreset",
        "pts = np.random.default_rng(0).uniform(-1.0, 1.0, (1200, 2))",
        "res = build_coreset(pts, target=300, seed=0)",
        "print(json.dumps([[r.cells[0].members.size for r in res.rounds], res.indices.tolist(),",
        "                  [c.max_grid_ratio.hex() for r in res.rounds for c in r.cells]]))",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    sizes, indices, ratios = json.loads(out.stdout)
    assert sizes == [1200, 600]
    assert chain_digest(indices, []) == PINNED_PIVOTED_INDICES
    assert chain_digest(indices, [float.fromhex(r) for r in ratios]) == PINNED_PIVOTED_CHAIN


@st.composite
def halving_inputs(draw):
    """(points, target): 2 to 60 points in d = 1 or 2, some coordinates on
    cell boundaries (odd integers), some rows exact duplicates, in half the
    draws shifted by 1e6 (even, so the ties stay exact), and a target
    from the cell count, which halving always reaches, up to half the
    points."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(0.0, draw(st.sampled_from([0.5, 2.0, 5.0])), (n, d))
    ties = rng.random((n, d)) < draw(st.sampled_from([0.0, 0.3]))
    pts[ties] = 2.0 * rng.integers(-3, 3, int(ties.sum())) + 1.0
    n_dup = draw(st.integers(0, n // 2))
    pts[rng.integers(0, n, n_dup)] = pts[rng.integers(0, n, n_dup)]
    if draw(st.booleans()):
        pts += 1e6
    cells = len(partition(pts))
    return pts, draw(st.integers(cells, max(cells, n // 2)))


@settings(max_examples=150, deadline=None)
@given(halving_inputs(), st.integers(0, 2**32 - 1), st.booleans())
def test_recheck_passes_a_fresh_build_bit_for_bit(inputs, seed, presample):
    # recheck of a build's own rounds passes every cell with the ratio and
    # imbalance the build recorded, bit for bit, and chains the kept sets.
    pts, target = inputs
    constants = small_constants(pts.shape[1])
    result = build_coreset(pts, target=target, seed=seed, presample=presample,
                           constants=constants)
    rounds = [(r.coloring, r.kept, [c.flipped for c in r.cells]) for r in result.rounds]
    checked = recheck(pts, rounds, constants, result.presample_indices)
    assert len(checked) == len(result.rounds)
    for rnd, (cells, owned, chained, (centers, _, sizes)) in zip(result.rounds, checked):
        assert chained and owned == [True] * len(rnd.cells)
        assert [(passed, ratio.hex(), imbalance) for passed, ratio, imbalance in cells] == [
            (True, c.max_grid_ratio.hex(), c.imbalance_before_flip) for c in rnd.cells]
        assert centers.tolist() == [list(c.center) for c in rnd.cells]
        assert sizes.tolist() == [c.members.size for c in rnd.cells]


def test_recheck_fails_cells_whose_records_do_not_hold():
    pts = np.random.default_rng(3).normal(0.0, 2.0, (240, 2))
    constants = small_constants(2)
    result = build_coreset(pts, target=60, seed=1, constants=constants)
    rounds = [(r.coloring, r.kept, [c.flipped.tolist() for c in r.cells])
              for r in result.rounds]
    assert all(all(p for p, _, _ in cells) and all(owned)
               for cells, owned, _, _ in recheck(pts, rounds, constants))
    rno, cno = next((rno, cno) for rno, r in enumerate(result.rounds)
                    for cno, c in enumerate(r.cells) if c.flipped.size)
    coloring, kept, flipped = rounds[rno]

    def passes(rnd):
        # Each cell passes if its certificate holds and its flips are its own.
        cells, owned, chained, _ = recheck(pts, rounds[:rno] + [rnd], constants)[rno]
        return [passed and own for (passed, _, _), own in zip(cells, owned)], chained

    # A recorded flip that is not a balance flip, or a flip outside its
    # cell, fails its cell alone.
    for spoiled in (flipped[cno] + flipped[cno][:1], flipped[cno] + [10**6]):
        cells, chained = passes((coloring, kept, flipped[:cno] + [spoiled] + flipped[cno + 1:]))
        assert chained and cells == [i != cno for i in range(len(flipped))]
    # Positions that are not integers in [0, size) undo nothing and raise
    # nothing: their cell alone does not own its flips.
    for positions in ([0.5], [True], [10**30], ["1"], None, [-1]):
        spoiled = flipped[:cno] + [positions] + flipped[cno + 1:]
        _, owned, chained, _ = recheck(pts, rounds[:rno] + [(coloring, kept, spoiled)],
                                       constants)[rno]
        assert chained and owned == [i != cno for i in range(len(flipped))]
    # Flips that are not one list per cell fail every cell.
    for bad in (flipped[:-1], flipped + [[]]):
        cells, chained = passes((coloring, kept, bad))
        assert chained and not any(cells)
    # A kept set that is not the +1 half breaks the chain.
    assert passes((coloring, kept[1:], flipped))[1] is False
    bad = coloring.copy()
    bad[0] = 0
    with pytest.raises(ValueError, match=f"round {rno}: coloring is not ±1"):
        recheck(pts, rounds[:rno] + [(bad, kept, flipped)], constants)


@pytest.mark.parametrize("coloring", [np.ones(20, dtype=bool), np.ones(20), [1.0] * 20,
                                      [1] * 19 + [10**30]])
def test_recheck_rejects_colorings_that_are_not_integers(coloring):
    # True is not +1, nor is 1.0: a ±1 coloring has an integer dtype.
    pts = np.random.default_rng(4).uniform(-1, 1, (20, 2))
    with pytest.raises(ValueError, match="round 0: coloring is not ±1 over the round's 20"):
        recheck(pts, [(coloring, np.arange(20), [[]])])


def test_recheck_rejects_indices_outside_the_points():
    # start [0, 2, 4, -1] would check point 7 and chain the round; an entry
    # of 8 would index past the points, in this round or, from kept, the next.
    pts = np.random.default_rng(5).uniform(-1, 1, (8, 2))
    signs = np.array([1, -1, 1, -1])
    for start in ([0, 2, 4, -1], [0, 2, 4, 8]):
        with pytest.raises(ValueError, match=r"round 0: start has an entry outside \[0, 8\)"):
            recheck(pts, [(signs, [0, 4], [[]])], start=start)
    with pytest.raises(ValueError, match=r"round 0: kept has an entry outside \[0, 8\)"):
        recheck(pts, [(signs, [0, 8], [[]]), (np.array([1, -1]), [0], [[]])], start=[0, 2, 4, 6])


def test_recheck_rejects_a_repeated_start_entry():
    pts = np.random.default_rng(5).uniform(-1, 1, (8, 2))
    with pytest.raises(ValueError, match="round 0: start repeats an entry"):
        recheck(pts, [(np.array([1, -1, 1, -1]), [0, 4], [[]])], start=[0, 2, 4, 2])
