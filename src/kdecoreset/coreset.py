"""Coreset construction by recursive halving, plus baselines and a
brute-force oracle.

Halving colors the current set, keeps the points colored +1, and repeats
until the target size is reached; each round's KDE drift is the per-round
discrepancy divided by the round's size, so the accumulated error tracks
1/size. Rounds are inherently sequential.
"""

import math
from dataclasses import dataclass

import numpy as np

from .colorizer import color_all
from .kernel import as_points

__all__ = [
    "HalvingFailure",
    "RoundReport",
    "CoresetResult",
    "halve",
    "halve_indices",
    "build_coreset",
    "random_baseline",
    "oracle_min_discrepancy",
]

# Pre-sampling and target-size constants of the epsilon-driven interface:
# presample to ceil(PRESAMPLE_C / eps^2), halve until ceil(TARGET_C / eps).
PRESAMPLE_C = 4.0
TARGET_C = 4.0


class HalvingFailure(RuntimeError):
    """Raised when halving does not reach the target size in 64 rounds.

    A round keeps the +1 half of each cell, so cells of one point (always
    colored +1) never shrink; widely spread data can stall above the
    target.
    """


@dataclass(frozen=True)
class RoundReport:
    """One halving round: sizes and the per-cell coloring reports."""

    size_before: int
    size_after: int
    kept: np.ndarray
    coloring: np.ndarray
    cells: tuple


@dataclass(frozen=True)
class CoresetResult:
    """Selected subset plus full provenance for reproduction."""

    indices: np.ndarray
    target_size: int
    seed: int
    rounds: tuple = ()
    presampled_from: int | None = None
    presample_indices: np.ndarray | None = None

    @property
    def size(self):
        return int(self.indices.size)


def halve_indices(points, seed, schedule_builder=None, retry_budget=64):
    """Color the set and return (kept_indices, coloring, cell_reports).

    kept_indices are the positions colored +1, ascending. Exact balance
    within one holds per cell, so the kept size deviates from half by at
    most the number of nonempty cells.
    """
    pts = as_points(points)
    if pts.shape[0] < 2:
        raise ValueError("halving needs at least two points")
    signs, reports = color_all(pts, schedule_builder, seed, retry_budget)
    kept = np.flatnonzero(signs == 1)
    return kept, signs, reports


def halve(points, seed, schedule_builder=None, retry_budget=64):
    """The +1 half of the colored point set, as an (m, d) array."""
    pts = as_points(points)
    kept, _, _ = halve_indices(pts, seed, schedule_builder, retry_budget)
    return pts[kept]


def build_coreset(points, target=None, epsilon=None, seed=0, presample=False,
                  schedule_builder=None, retry_budget=64):
    """Construct a coreset by repeated halving.

    Exactly one of `target` (subset size) or `epsilon` may drive the size:
    with epsilon, the loop stops at the first size <= ceil(TARGET_C / eps).
    With presample=True the input is first subsampled uniformly to
    min(n, ceil(PRESAMPLE_C / eps^2)) (eps implied as TARGET_C / target when
    only a target is given).

    Returns a CoresetResult whose indices refer to the original point set.
    """
    pts = as_points(points)
    n = pts.shape[0]
    if (target is None) == (epsilon is None):
        raise ValueError("specify exactly one of target or epsilon")
    if epsilon is not None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        target = min(n, math.ceil(TARGET_C / epsilon))
    if not 1 <= target <= n:
        raise ValueError(f"target size {target} out of range [1, {n}]")
    root = np.random.SeedSequence(seed)
    presample_seed, *round_seeds = root.spawn(65)
    current = np.arange(n, dtype=np.intp)
    presampled_from = None
    presample_indices = None
    if presample:
        eps = epsilon if epsilon is not None else TARGET_C / target
        keep = min(n, math.ceil(PRESAMPLE_C / (eps * eps)))
        if keep < n:
            rng = np.random.Generator(np.random.Philox(presample_seed))
            current = np.sort(rng.choice(n, size=keep, replace=False)).astype(np.intp)
            presampled_from = n
            presample_indices = current.copy()
    rounds = []
    for round_seed in round_seeds:
        if current.size <= target:
            break
        kept, coloring, reports = halve_indices(
            pts[current], round_seed, schedule_builder, retry_budget)
        rounds.append(RoundReport(
            size_before=int(current.size),
            size_after=int(kept.size),
            kept=current[kept],
            coloring=coloring,
            cells=tuple(reports),
        ))
        current = current[kept]
    else:
        raise HalvingFailure("halving did not reach the target size in 64 rounds")
    return CoresetResult(indices=current, target_size=int(target), seed=int(seed),
                         rounds=tuple(rounds), presampled_from=presampled_from,
                         presample_indices=presample_indices)


def random_baseline(points, size, seed=0):
    """Uniform sample of `size` indices without replacement."""
    pts = as_points(points)
    n = pts.shape[0]
    if not 1 <= size <= n:
        raise ValueError(f"sample size {size} out of range [1, {n}]")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    idx = np.sort(rng.choice(n, size=size, replace=False)).astype(np.intp)
    return CoresetResult(indices=idx, target_size=int(size), seed=int(seed))


def oracle_min_discrepancy(points, query_points, max_points=16):
    """Exhaustive minimum over all colorings of the sup discrepancy.

    Scans every sigma with sigma(p_0) = +1 (the sup is invariant under
    global sign flips) and returns (best_sup, best_coloring). To allow
    bit-for-bit cross-checks against independent re-implementations, the
    arithmetic order is pinned: kernel values are computed per coordinate
    with math.exp, summed over points in index order with a running float,
    colorings are scanned in ascending bitmask order (bit j flips point
    j + 1), and a candidate replaces the incumbent only when strictly
    smaller.
    """
    pts = as_points(points)
    qs = as_points(query_points, dim=pts.shape[1])
    n = pts.shape[0]
    if n > max_points:
        raise ValueError(f"oracle limited to {max_points} points, got {n}")
    kern = [[_exp_kernel(q, p) for p in pts] for q in qs]
    best_sup = math.inf
    best_mask = 0
    for mask in range(1 << (n - 1)):
        sup = 0.0
        for row in kern:
            acc = row[0]
            for j in range(1, n):
                acc = acc + row[j] if not (mask >> (j - 1)) & 1 else acc - row[j]
            mag = acc if acc >= 0.0 else -acc
            if mag > sup:
                sup = mag
        if sup < best_sup:
            best_sup = sup
            best_mask = mask
    signs = np.ones(n, dtype=np.int64)
    for j in range(1, n):
        if (best_mask >> (j - 1)) & 1:
            signs[j] = -1
    return best_sup, signs


def _exp_kernel(q, p):
    acc = 0.0
    for a, b in zip(q, p):
        acc += (a - b) * (a - b)
    return math.exp(-acc)
