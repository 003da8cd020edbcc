"""Audits of the package's guarantees, used only by the tests: the
brute-force minimum discrepancy over all colorings, the Taylor-truncation
residual, the walk's subgaussian tail table with its Wilson intervals, and
the pointwise verification threshold.
"""

import math

import numpy as np

from kdecoreset.kernel import as_coloring, as_points
from kdecoreset.walk import _as_vectors, gsw_color


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


def truncation_order(n, d):
    """Truncation order: rho with rho + 1 = ceil(2 e^2 d (sqrt(3 log n) + 3)
    + log n + 2d)."""
    logn = math.log(max(n, 2))
    return math.ceil(2.0 * math.e ** 2 * d * (math.sqrt(3.0 * logn) + 3.0) + logn + 2.0 * d) - 1


def truncation_audit(points, signs, x, rho):
    """Residual of truncating the Taylor expansion of the weighted
    discrepancy kernel at order rho.

    Computes |sum_p sigma(p) e^(2||p||^2) e^(-||x - 3p||^2 / 3)
    - e^(-||x||^2 / 3) sum_p sigma(p) e^(-||p||^2)
      sum_{k <= rho} (2 <x, p>)^k / k!|
    as a scalar series (term magnitudes via log-gamma, so rho ~ 100 does
    not overflow). With rho = truncation_order(n, d) the residual is at most 1
    for cells in the unit ball and queries within the expansion margin.
    """
    pts = as_points(points)
    sigma = as_coloring(signs, n=pts.shape[0]).astype(np.float64)
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    sqn = np.einsum("nd,nd->n", pts, pts)
    d3 = xv[None, :] - 3.0 * pts
    exact = float(np.sum(sigma * np.exp(2.0 * sqn - np.einsum("nd,nd->n", d3, d3) / 3.0)))
    inner = pts @ xv
    ks = np.arange(rho + 1, dtype=np.float64)
    # log |(2u)^k / k!| with sign bookkeeping; u = 0 contributes only k = 0
    # (its k = 0 entry is 0 * -inf, patched below with the exact value 1).
    with np.errstate(divide="ignore", invalid="ignore"):
        log_u = np.log(np.abs(2.0 * inner))
        log_terms = ks[None, :] * log_u[:, None] - _lgamma(ks + 1.0)[None, :]
    signs_k = np.where(inner[:, None] < 0.0, np.where(ks[None, :] % 2 == 1, -1.0, 1.0), 1.0)
    terms = np.where(np.isneginf(log_terms), 0.0, signs_k * np.exp(log_terms))
    terms[:, 0] = 1.0
    series = terms.sum(axis=1)
    truncated = math.exp(-float(xv @ xv) / 3.0) * float(np.sum(sigma * np.exp(-sqn) * series))
    return abs(exact - truncated)


def _lgamma(values):
    return np.vectorize(math.lgamma)(values)


def wilson_interval(count, n, z=1.96):
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("sample count must be positive")
    p = count / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def subgaussian_audit(vectors, trials, alphas, seed=0, n_directions=50, directions=None):
    """Empirical tail table for |<X, theta>| over repeated walks.

    Runs `trials` independently seeded walks on `vectors`, projects each
    signed sum onto fixed unit directions, and tabulates the exceedance
    frequency per alpha with 95% Wilson confidence intervals.

    Args:
      vectors: (n, m) walk input.
      trials: number of walks (>= 100).
      alphas: iterable of thresholds.
      seed: root seed; direction and walk seeds are split from it.
      n_directions: number of random unit directions when none are given.
      directions: optional (m, k) array of unit direction columns.

    Returns:
      List of rows, one per alpha:
      {alpha, count, samples, frequency, wilson_low, wilson_high}.
    """
    v = _as_vectors(vectors)
    if trials < 100:
        raise ValueError("audit needs at least 100 trials")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    dir_seed, *walk_seeds = root.spawn(trials + 1)
    if directions is None:
        dir_rng = np.random.Generator(np.random.Philox(dir_seed))
        directions = dir_rng.standard_normal((v.shape[1], n_directions))
        directions /= np.linalg.norm(directions, axis=0, keepdims=True)
    else:
        directions = np.asarray(directions, dtype=np.float64)
        if directions.ndim != 2 or directions.shape[0] != v.shape[1]:
            raise ValueError(f"directions must be an ({v.shape[1]}, k) array of columns")
        if not np.isfinite(directions).all():
            raise ValueError("directions must be finite")
        if np.abs(np.linalg.norm(directions, axis=0) - 1.0).max(initial=0.0) > 1e-9:
            raise ValueError("directions must have columns of unit norm")
    xs = np.empty((trials, v.shape[1]))
    for t in range(trials):
        out = gsw_color(v, walk_seeds[t])
        if not np.all(np.abs(out.signs) == 1):
            raise RuntimeError("walk returned a non-sign output")
        xs[t] = out.signs @ v
    samples = np.abs(xs @ directions).ravel()
    table = []
    for alpha in alphas:
        count = int((samples > alpha).sum())
        lo, hi = wilson_interval(count, samples.size)
        table.append({
            "alpha": float(alpha),
            "count": count,
            "samples": int(samples.size),
            "frequency": count / samples.size,
            "wilson_low": lo,
            "wilson_high": hi,
        })
    return table


def threshold_batch(schedule, level, points):
    """Level-i verification threshold c1 * n_{i+1} *
    exp(-(2/3) ||s - center||^2) at every row s of `points`, shape (N,).

    A pointwise reference for verification_levels, which builds the same
    values on the level's grid as an outer product of per-axis factors."""
    if not 0 <= level < schedule.ell:
        raise ValueError(f"level {level} out of range for ell = {schedule.ell}")
    pts = np.asarray(points, dtype=np.float64)
    off = pts - np.asarray(schedule.grids[level].center)[None, :]
    sq = np.einsum("nd,nd->n", off, off)
    return schedule.constants.c1 * schedule.seq[level + 1] * np.exp(-(2.0 / 3.0) * sq)
