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

Directions are computed in feature space, from the ridge-regularized
second-moment matrix W of the k unfrozen vectors; freezing a vector f
downdates W by f f^T. How the solve follows the freezes depends on k
against the dimension m:

- While k > m, the walk holds the inverse of W_-p, the second moment
  without the pivot p, and z = W_-p^-1 v_p. The direction is 1 at the
  pivot and -v_i.z elsewhere, with no denominator to divide out. The
  inverse is the last full inverse plus a Woodbury panel with one row
  z_f = W_-p^-1 f and one scalar d_f = 1 - f.z_f per vector removed from
  W_-p: a frozen vector other than the pivot, or a new pivot. A freeze
  costs one solve against the panel and updates z by z_f (z_f.v_p) / d_f;
  no m x m matrix is rewritten. When the panel is full or a d_f
  degenerates, W is downdated by the frozen block in one matrix product
  and W - v_p v_p^T is inverted again. The panel holds min(max(64, m),
  n - m) rows: a refresh costs about 2.67 m^3 flops and a panel row about
  4 m per solve, so about m rows balance the two, and the phase removes
  no more than n - m vectors.
- Once k <= m, W is singular up to the ridge. W is inverted once more, the
  panel is dropped, and the direction is (e_pivot - V W^-1 v_pivot)
  rescaled; each freeze then downdates W and W^-1 in place
  (Sherman-Morrison), two m x m rewrites, with a fresh inverse every 64
  freezes.

A single walk is sequential by construction; distinct walks with
independent seeds can run concurrently.

Randomness comes from numpy's Philox counter-based generator, seeded and
splittable; the same (vectors, seed) always reproduce the same coloring.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["WalkOutput", "gsw_color"]

NORM_SLACK = 1e-9
# Tikhonov ridge on the feature second-moment matrix; keeps duplicate and
# numerically dependent vectors solvable without changing directions beyond
# float noise.
_RIDGE = 1e-10
# Freezes between full re-inversions of the maintained inverse once k <= m;
# also the least capacity of the k > m phase's Woodbury panel.
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
    return _walk(v, np.random.Generator(np.random.Philox(seed)))


def _solve(w_inv, panel, pdiag, r, vec):
    """W^-1 vec for W^-1 = w_inv + Z^T diag(1/d) Z, with Z and d the first r
    rows of the Woodbury panel; the panel terms are skipped while it is
    empty."""
    out = w_inv @ vec
    if r:
        zs = panel[:r]
        out += zs.T @ ((zs @ vec) / pdiag[:r])
    return out


def _rebuild(w, vact, k, k0, pivot=None, scratch=None):
    """Downdate W by the rows vact[k:k0] frozen since the last rebuild, in
    place, and return its inverse; given a pivot row, return instead the
    inverse of W - pivot pivot^T, formed in `scratch`."""
    if k0 > k:
        frozen = vact[k:k0]
        w -= frozen.T @ frozen
    if pivot is None:
        return np.linalg.inv(w)
    np.multiply.outer(pivot, pivot, out=scratch)
    np.subtract(w, scratch, out=scratch)
    return np.linalg.inv(scratch)


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
    # While k > m, w_inv plus the panel is W_-p^-1 and W is downdated only
    # on refreshes; once k <= m, w_inv is W^-1 and both are downdated on
    # every freeze.
    cap = min(max(_REFRESH_EVERY, m), max(n - m, 0))
    panel = np.empty((cap, m))              # Woodbury rows z_f, one per removal
    pdiag = np.empty(cap)                   # and their d_f = 1 - f.z_f
    outer = np.empty((m, m))
    eager = n <= m
    k = k0 = n
    r = 0                                   # panel rows in use
    since = 0                               # freezes since w_inv was built
    stale = True
    steps = 0
    ppos = n - 1                            # pivot position, -1 once it freezes
    edge = 1.0 - _FREEZE_BAND
    while k > 0:
        steps += 1
        if steps > 2 * n:
            raise RuntimeError("balancing walk failed to terminate within 2n steps")
        if not eager and k <= m:
            eager = stale = True
            panel = None                    # the eager loop keeps no panel
        if ppos < 0:
            ppos = int(ids[:k].argmax())
            if not (eager or stale):
                # Remove the new pivot q as one more panel row; then
                # W_-q^-1 v_q = z_q / d_q.
                vq = vact[ppos]
                zq = _solve(w_inv, panel, pdiag, r, vq)
                dq = 1.0 - float(vq @ zq)
                if dq < 1e-12 or r == cap:
                    stale = True
                else:
                    panel[r] = zq
                    pdiag[r] = dq
                    r += 1
                    z = zq / dq
        vp = vact[ppos]
        if stale:
            if eager:
                w_inv = _rebuild(w, vact, k, k0)
            else:
                w_inv = _rebuild(w, vact, k, k0, vp, outer)
                z = w_inv @ vp
            k0, r, since, stale = k, 0, 0, False
        if eager:
            z = w_inv @ vp
            denom = 1.0 - float(vp @ z)
            if denom < 1e-9 and since:
                w_inv = _rebuild(w, vact, k, k0)
                k0, since = k, 0
                z = w_inv @ vp
                denom = 1.0 - float(vp @ z)
        else:
            denom = 1.0                     # W_-p has no pivot to divide out
        # Constrained least squares via the feature-space identity:
        # u = (e_pivot - V_active W^-1 v_pivot) / (1 - v_pivot^T W^-1 v_pivot)
        # = e_pivot - V_active W_-p^-1 v_pivot off the pivot.
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
            is_pivot = posn == ppos
            if is_pivot:
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
            elif is_pivot:
                continue                    # the pivot's row is already out
            if stale:
                continue
            zf = _solve(w_inv, panel, pdiag, r, f)
            df = 1.0 - float(f @ zf)
            if df < 1e-12:
                stale = True                # numerically singular
            elif eager:
                # Sherman-Morrison: (W - f f^T)^-1 = W^-1 + z_f z_f^T / d_f.
                np.multiply.outer(zf, zf, out=outer)
                outer /= df
                w_inv += outer
            elif r == cap:
                stale = True                # panel full
            else:
                panel[r] = zf
                pdiag[r] = df
                r += 1
                if ppos >= 0:
                    z += zf * (float(zf @ vact[ppos]) / df)
        if eager and since >= _REFRESH_EVERY:
            stale = True
    return WalkOutput(signs=signs, steps=steps)
