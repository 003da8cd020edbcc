"""Randomized vector balancing with subgaussian projections.

Given vectors of euclidean norm at most 1, the walk maintains a fractional
coloring in [-1, 1]^n. Each step picks the unfrozen coordinate of highest
index as the pivot, moves along the direction that is 1 at the pivot and
least-squares optimal (minimum ||V u||) over the remaining unfrozen
coordinates, and steps to whichever box boundary the two endpoint magnitudes
allow, choosing between them with the probability that makes the update a
martingale. Coordinates that reach +-1 freeze; the walk ends when all are
frozen. Projections onto every fixed unit direction of the signed sum are
then subgaussian.

Directions are computed in feature space: with W the ridge-regularized
second-moment matrix of the k unfrozen vectors, the step direction is
(e_pivot - V W^-1 v_pivot) rescaled, and freezing a vector f downdates W by
f f^T. How W^-1 follows the freezes depends on k against the dimension m:

- While k > m, W^-1 is held as the last full inverse plus a Woodbury
  panel with one column z_f = W^-1 f and one scalar 1 - f.z_f per freeze.
  A freeze costs one m x m matrix-vector product plus O(r m) for the r
  panel columns and rewrites no m x m matrix. Every 64 freezes, or when a
  denominator degenerates, W is downdated by the frozen block in one
  matrix product and inverted again.
- Once k <= m, W is singular up to the ridge. W is inverted once more, and
  each freeze then downdates W and W^-1 in place (Sherman-Morrison), two
  m x m rewrites, with a fresh inverse every 64 freezes.

A single walk is sequential by construction; distinct walks with
independent seeds can run concurrently.

Randomness comes from numpy's Philox counter-based generator, seeded and
splittable; the same (vectors, seed) always reproduce the same coloring.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["WalkOutput", "gsw_color", "subgaussian_audit", "wilson_interval"]

NORM_SLACK = 1e-9
# Tikhonov ridge on the feature second-moment matrix; keeps duplicate and
# numerically dependent vectors solvable without changing directions beyond
# float noise.
_RIDGE = 1e-10
# Freezes between full re-inversions of the maintained inverse; also the
# capacity of the Woodbury panel.
_REFRESH_EVERY = 64
_FREEZE_BAND = 1e-12


@dataclass(frozen=True)
class WalkOutput:
    """Signs in {-1, +1} per input vector plus the step count diagnostic."""

    signs: np.ndarray
    steps: int


def _as_vectors(vectors):
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    if v.ndim != 2:
        raise ValueError("walk input must be an (n, m) array of row vectors")
    if not np.isfinite(v).all():
        raise ValueError("walk input must be finite")
    norms_sq = np.einsum("nm,nm->n", v, v)
    if v.shape[0] and norms_sq.max() > (1.0 + NORM_SLACK) ** 2:
        raise ValueError(
            f"walk input norm {math.sqrt(norms_sq.max()):.12f} exceeds 1"
        )
    return v


def _rng_from(seed):
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def gsw_color(vectors, seed):
    """Color row vectors of norm <= 1 with signs whose signed sum has
    subgaussian projections along every fixed unit direction.

    Args:
      vectors: (n, m) array of input row vectors, euclidean norm <= 1.
      seed: integer or numpy SeedSequence; fixed (vectors, seed) gives a
        deterministic output.

    Returns:
      WalkOutput with signs (int64, each exactly +-1) and the number of
      walk steps taken (at most n; asserted <= 2n).
    """
    v = _as_vectors(vectors)
    if v.shape[0] == 0:
        return WalkOutput(signs=np.empty(0, dtype=np.int64), steps=0)
    return _walk(v, _rng_from(seed))


def _solve(w_inv, panel, pdiag, r, vec):
    """W^-1 vec for W^-1 = w_inv + Z^T diag(1/d) Z, with Z and d the first r
    rows of the Woodbury panel; the panel terms are skipped while it is
    empty."""
    out = w_inv @ vec
    if r:
        zs = panel[:r]
        out += zs.T @ ((zs @ vec) / pdiag[:r])
    return out


def _rebuild(w, vact, k, k0):
    """Downdate W by the rows vact[k:k0] frozen since the last rebuild, in
    place, and return its inverse."""
    if k0 > k:
        frozen = vact[k:k0]
        w -= frozen.T @ frozen
    return np.linalg.inv(w)


@np.errstate(divide="ignore")  # u_i = 0 in the step-size quotients
def _walk(v, rng):
    """Walk core. Active coordinates live in positions [0, k) of the working
    arrays; freezing swaps a position with k - 1 and shrinks k, so removals
    never copy whole matrices and the rows frozen since W was last
    downdated sit together in vact[k:k0]. `ids` maps positions to input
    indices; the pivot is the active position of largest id. The pivot's
    position is followed through the swaps and searched for again only
    after the pivot itself freezes."""
    n, m = v.shape
    vact = np.array(v)                      # rows permuted in place
    ids = np.arange(n)
    x = np.zeros(n)                         # fractional coloring, by position
    signs = np.zeros(n, dtype=np.int64)     # by input index
    w = vact.T @ vact + _RIDGE * np.eye(m)  # second moment of rows [0, k0)
    w_inv = np.linalg.inv(w)
    panel = np.empty((_REFRESH_EVERY, m))   # Woodbury rows z_f, one per freeze
    pdiag = np.empty(_REFRESH_EVERY)        # and their d_f = 1 - f.z_f
    outer = np.empty((m, m))
    # While k > m, W^-1 is w_inv plus the panel and W is downdated only on
    # rebuilds; once k <= m (W singular up to the ridge) both are downdated
    # on every freeze and the panel stays empty.
    eager = n <= m
    k = k0 = n
    r = 0                                   # panel rows in use
    since = 0                               # freezes since w_inv was built
    stale = False
    steps = 0
    ppos = n - 1                            # pivot position, -1 once it freezes
    edge = 1.0 - _FREEZE_BAND
    while k > 0:
        steps += 1
        if steps > 2 * n:
            raise RuntimeError("balancing walk failed to terminate within 2n steps")
        if not eager and k <= m:
            eager = stale = True
        if stale:
            w_inv = _rebuild(w, vact, k, k0)
            k0, r, since, stale = k, 0, 0, False
        if ppos < 0:
            ppos = int(ids[:k].argmax())
        vp = vact[ppos]
        z = _solve(w_inv, panel, pdiag, r, vp)
        denom = 1.0 - float(vp @ z)
        if denom < 1e-9 and since:
            w_inv = _rebuild(w, vact, k, k0)
            k0, r, since = k, 0, 0
            z = w_inv @ vp
            denom = 1.0 - float(vp @ z)
        # Constrained least squares via the feature-space identity:
        # u = (e_pivot - V_active W^-1 v_pivot) / (1 - v_pivot^T W^-1 v_pivot).
        u = vact[:k] @ z
        u /= -max(denom, 1e-12)
        u[ppos] = 1.0
        xa = x[:k]
        # Distances to the box along +u and -u; u_i = 0 gives +-inf.
        to_plus = 1.0 - xa
        to_plus /= u
        to_minus = -1.0 - xa
        to_minus /= u
        d_plus = np.minimum.reduce(np.maximum(to_plus, to_minus))
        d_minus = -np.maximum.reduce(np.minimum(to_plus, to_minus))
        # Martingale step: E[delta] = 0 under these endpoint probabilities.
        u *= d_plus if rng.random() * (d_plus + d_minus) < d_minus else -d_minus
        xa += u
        mag = np.abs(xa)
        hits = (mag >= edge).nonzero()[0].tolist()
        if not hits:
            # Float safety net: freeze the coordinate closest to the boundary.
            hits = [int(mag.argmax())]
        for posn in reversed(hits):
            signs[ids[posn]] = 1 if xa[posn] > 0.0 else -1
            k -= 1
            if posn == ppos:
                ppos = -1
            elif ppos == k:
                ppos = posn                 # the swap below moves the pivot
            f = vact[posn]
            if posn != k:
                f = f.copy()
                vact[posn] = vact[k]
                vact[k] = f
                ids[posn] = ids[k]
                x[posn] = x[k]
            since += 1
            if eager:
                np.multiply.outer(f, f, out=outer)
                w -= outer
                k0 = k
            if stale:
                continue
            zf = _solve(w_inv, panel, pdiag, r, f)
            df = 1.0 - float(f @ zf)
            if df < 1e-12 or r == _REFRESH_EVERY:
                stale = True            # numerically singular, or panel full
            elif eager:
                # Sherman-Morrison: (W - f f^T)^-1 = W^-1 + z_f z_f^T / d_f.
                np.multiply.outer(zf, zf, out=outer)
                outer /= df
                w_inv += outer
            else:
                panel[r] = zf
                pdiag[r] = df
                r += 1
        if since >= _REFRESH_EVERY:
            stale = True
    return WalkOutput(signs=signs, steps=steps)


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
