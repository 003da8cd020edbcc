"""Workload inputs.

Each workload runs on one fixed point set, the ones the acceptance suite
and ROADMAP measure, and reads one fixed coreset artifact: chain seed 0,
built by the CLI. The run's --seed picks the build_coreset seeds of the
timed chains.

Why so little varies: the sup error of a coreset of ~20 points is set by a
few cells, so it moves far from chain to chain. Over ten mixture draws
(median of two chains each), sup_error x size spread 22% of its median
between the quartiles. On the fixed mixture, single chains ranged from
1.15 to 2.52 over five seeds. No per-run median of a few 8-second chains
steadies that, so the quality metrics are those of the fixed artifact.

mixture_chain  The acceptance mixture (criterion 8's 3 Gaussians in the
               plane, 4096 points) halved to 32. 9 unit cells, the largest
               with 2574 points, so the dense Gram factorization and the
               walk dominate a chain.
spread_cells   normal(0, 5) in the plane (4096 points, generator seed 0)
               halved to 512. 202 small cells (median ~10 points), so fixed
               per-cell cost (grid enumeration and verification) dominates
               and the factorization is nearly idle. The same points at
               target 64 raise RuntimeError after 64 rounds (ROADMAP item
               3), which is why this workload stops at 512.
audit          `kdecoreset eval` and `kdecoreset verify` on the mixture and
               a coreset artifact built by the code under test. No walk or
               factorization runs in the timed process; the kernel layer
               computes unsigned KDEs on the default 127k-query grid.
"""

import math

import numpy as np

MIXTURE_MEANS = np.array([[-0.8, -0.6], [0.7, -0.3], [0.0, 0.9]])
MIXTURE_STDS = np.array([0.45, 0.35, 0.55])
MIXTURE_WEIGHTS = np.array([0.4, 0.35, 0.25])

MIXTURE_SEED = 20260809
N_POINTS = 4096

# data: point set; target: build target size; unit: the timed operations
# a run repeats, a build workload starting one unit per chain seed;
# eval_budget: query budget of the timed `kdecoreset eval` (None = the CLI
# default, 131072). Eval and verify repeat within a unit where a run has
# few units: two on mixture_chain, one on the audit (a verify takes about
# a second, an audit eval about 15).
WORKLOADS = {
    "mixture_chain": {"data": "mixture", "target": 32, "eval_budget": 8192,
                      "unit": ("chain",) + ("verify", "eval") * 2},
    "spread_cells": {"data": "spread", "target": 512, "eval_budget": 8192,
                     "unit": ("chain", "verify", "eval")},
    "audit": {"data": "mixture", "target": 32, "eval_budget": None,
              "unit": ("verify",) * 3 + ("eval",) + ("verify",) * 3},
}

ARTIFACT_SEED = 0

def chain_seeds(seed):
    """The two build_coreset seeds of a run's timed chains; never the
    artifact's seed."""
    return (2 * seed + 1, 2 * seed + 2)


def points(workload):
    """The workload's fixed (4096, 2) float64 point set."""
    if WORKLOADS[workload]["data"] == "mixture":
        rng = np.random.default_rng(MIXTURE_SEED)
        comp = rng.choice(3, size=N_POINTS, p=MIXTURE_WEIGHTS)
        return MIXTURE_MEANS[comp] + MIXTURE_STDS[comp, None] * rng.standard_normal((N_POINTS, 2))
    return np.random.default_rng(0).normal(0.0, 5.0, (N_POINTS, 2))


def query_axes(pts, per_axis=257):
    """Per-axis coordinates of the fixed sup-error query lattice: the data's
    bounding box widened by sqrt(3 ln n) + 3, where any KDE of n points is
    negligible."""
    margin = math.sqrt(3.0 * math.log(pts.shape[0])) + 3.0
    return [np.linspace(pts[:, j].min() - margin, pts[:, j].max() + margin, per_axis)
            for j in range(pts.shape[1])]


def lattice_kde(pts, axes):
    """KDE of planar `pts` at every point of the lattice axes[0] x axes[1],
    by the factorization exp(-||x-p||^2) = exp(-(x_0-p_0)^2) exp(-(x_1-p_1)^2)."""
    f0, f1 = (np.exp(-(ax[:, None] - pts[None, :, j]) ** 2) for j, ax in enumerate(axes))
    return (f0 @ f1.T) / len(pts)


def sup_error(pts, indices, axes, base=None):
    """max over the lattice of |KDE_P - KDE_Q| for Q = pts[indices]."""
    if base is None:
        base = lattice_kde(pts, axes)
    return float(np.abs(base - lattice_kde(pts[indices], axes)).max())
