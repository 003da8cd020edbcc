"""Acceptance suite: one test per release criterion.

Each criterion function returns a one-line summary; the pytest wrappers
print it, and running this file directly prints one PASS/FAIL line per
criterion. Every tolerance is fixed here, not calibrated at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

import kdecoreset as kc
from kdecoreset.cli import main as cli_main
from kdecoreset.colorizer import partition, verify
from kdecoreset.kernel import kernel_sum
from kdecoreset.schedule import build_schedule, default_constants
from kdecoreset.walk import gsw_color

import naive
from audits import oracle_min_discrepancy, subgaussian_audit, truncation_audit, truncation_order

# Fixed benchmark dataset for the scaling criterion: a 3-component Gaussian
# mixture in the plane, compact enough that the halving chain spans a
# handful of unit cells.
MIXTURE_SEED = 20260809
MIXTURE_MEANS = np.array([[-0.8, -0.6], [0.7, -0.3], [0.0, 0.9]])
MIXTURE_STDS = np.array([0.45, 0.35, 0.55])
MIXTURE_WEIGHTS = np.array([0.4, 0.35, 0.25])


def mixture_points(n=4096):
    rng = np.random.default_rng(MIXTURE_SEED)
    comp = rng.choice(3, size=n, p=MIXTURE_WEIGHTS)
    return MIXTURE_MEANS[comp] + MIXTURE_STDS[comp, None] * rng.standard_normal((n, 2))


def criterion_1():
    """Gram fidelity: factor columns reproduce the matrix to 1e-8."""
    start = time.time()
    rng = np.random.default_rng(101)
    budgets = {1: 400, 2: 400, 3: 343}
    worst_entry, worst_norm = 0.0, 0.0
    for trial in range(50):
        d = 1 + trial % 3
        n = int(rng.integers(20, 501))
        pts = rng.uniform(-1, 1, size=(n, d))
        sch = build_schedule(n, d, default_constants(d, grid_budget=budgets[d]))
        grids = sch.verification_grids()
        m = kc.build_gram(pts, grids)
        cols = kc.psd_factor(m)
        err = np.abs(cols.T @ cols - m).max()
        norm_err = np.abs(np.linalg.norm(cols, axis=0) - 1.0).max()
        assert err <= 1e-8, f"trial {trial}: reconstruction error {err:.3e}"
        assert norm_err <= 1e-6, f"trial {trial}: column norm off by {norm_err:.3e}"
        worst_entry = max(worst_entry, err)
        worst_norm = max(worst_norm, norm_err)
    elapsed = time.time() - start
    assert elapsed <= 120.0, f"took {elapsed:.0f}s > 2 min"
    return (f"50 instances, max entry error {worst_entry:.2e}, "
            f"max norm error {worst_norm:.2e}, {elapsed:.0f}s")


def criterion_2():
    """Walk subgaussianity: tails dominated by 3 e^(-alpha^2/16)."""
    start = time.time()
    rng = np.random.default_rng(202)
    alphas = [2.0, 4.0, 6.0, 8.0]
    worst = {a: 0.0 for a in alphas}
    for trial in range(20):
        n = int(rng.integers(16, 129))
        m = int(rng.integers(8, 129))
        v = rng.standard_normal((n, m))
        v *= rng.uniform(0.3, 1.0) / np.linalg.norm(v, axis=1, keepdims=True)
        table = subgaussian_audit(v, trials=200, alphas=alphas,
                                  seed=int(rng.integers(1 << 62)))
        for row in table:
            envelope = 3.0 * math.exp(-row["alpha"] ** 2 / 16.0)
            assert row["wilson_low"] <= envelope, (
                f"trial {trial}: alpha={row['alpha']} frequency "
                f"{row['frequency']:.4f} not dominated by {envelope:.4f}")
            worst[row["alpha"]] = max(worst[row["alpha"]], row["frequency"])
    elapsed = time.time() - start
    assert elapsed <= 300.0, f"took {elapsed:.0f}s > 5 min"
    freq_str = ", ".join(f"a={a:g}: {worst[a]:.3f}" for a in alphas)
    return f"20 instances x 200 runs x 50 dirs; worst tails {freq_str}; {elapsed:.0f}s"


def criterion_3():
    """Verification soundness: naive recheck agrees with verify everywhere."""
    rng = np.random.default_rng(303)
    cells_checked = 0
    for run in range(100):
        d = 1 + run % 2
        n = int(rng.integers(30, 121))
        spread = float(rng.uniform(0.5, 3.0))
        pts = rng.uniform(-spread, spread, size=(n, d))
        constants = default_constants(d, grid_budget=200)
        signs, reports = kc.color_all(pts, constants, seed=run)
        for rep in reports:
            sch = build_schedule(rep.members.size, d, constants)
            centered = pts[rep.members] - np.asarray(rep.center)
            accepted = rep.accepted_coloring
            passed, ratio, _ = verify(centered, accepted, sch)
            grids = [g.points() for g in sch.verification_grids()]
            naive_pass, naive_ratio = naive.verify_cell(
                centered, accepted, grids, sch.constants.c1, sch.seq, sch.constants.c_big)
            assert passed and naive_pass, f"run {run}: accepted coloring fails recheck"
            assert naive_ratio < 1.0
            assert abs(naive_ratio - rep.max_grid_ratio) <= 1e-9 * max(1.0, naive_ratio)
            assert abs(int(accepted.sum())) <= sch.constants.c_big
            cells_checked += 1
    return f"100 runs, {cells_checked} cells rechecked, zero disagreements"


def criterion_4():
    """Las Vegas behaviour: retries stay low with default constants."""
    rng = np.random.default_rng(404)
    pts = rng.uniform(-1, 1, size=(256, 2))
    retries = []
    for seed in range(50):
        _, reports = kc.color_all(pts, seed=seed)
        for rep in reports:
            retries.append(rep.retries)
            assert rep.retries < 64, "retry budget exhausted"
    mean_retries = float(np.mean(retries))
    assert mean_retries <= 4.0, f"mean retries {mean_retries:.2f} > 4"
    return f"mean retries {mean_retries:.2f} over 50 seeds, max {max(retries)}"


def criterion_5():
    """Balance: per-cell signs within 1, round sizes within cell count of half."""
    rng = np.random.default_rng(505)
    pts = np.concatenate([
        rng.uniform(-1, 1, size=(300, 2)),
        rng.uniform(-1, 1, size=(200, 2)) + np.array([3.0, 1.0]),
        rng.uniform(-1, 1, size=(100, 2)) + np.array([-2.0, 3.0]),
    ])
    checked_cells = checked_rounds = 0
    for seed in range(6):
        res = kc.build_coreset(pts, target=75, seed=seed)
        for rnd in res.rounds:
            assert abs(2 * rnd.size_after - rnd.size_before) <= len(rnd.cells)
            checked_rounds += 1
            for cell in rnd.cells:
                assert abs(int(cell.coloring.sum())) <= 1
                checked_cells += 1
    return f"{checked_rounds} rounds, {checked_cells} cells, all balanced"


def criterion_6():
    """Coordinatewise difference inequality on 1000 random tuples.

    Uses the mean-value witness sum_p sigma(p) p_j e^(-||xi - p||^2); see
    tests/test_kernel.py for why the unweighted signed form is not a valid
    bound.
    """
    counts = {1: 334, 2: 333, 3: 333}
    n_samples = 1500
    min_margin = math.inf
    for d, count in counts.items():
        rng = np.random.default_rng(600 + d)
        for _ in range(count):
            n = int(rng.integers(5, 17))
            pts = rng.uniform(-1, 1, size=(n, d))
            signs = rng.choice([-1, 1], size=n)
            s = rng.uniform(-2.5, 2.5, size=d)
            x = s * rng.uniform(0.0, 0.95, size=d)
            lhs = abs(kernel_sum(pts, signs, x)[0]
                      - kernel_sum(pts, signs, s)[0])
            rhs = (s @ s - x @ x) * abs(kernel_sum(pts, signs, x)[0])
            ts = np.linspace(0.0, 1.0, n_samples)
            for j in range(d):
                xi = np.tile(np.concatenate([x[:j], [0.0], s[j + 1:]]), (n_samples, 1))
                xi[:, j] = x[j] + ts * (s[j] - x[j])
                diff = xi[:, None, :] - pts[None, :, :]
                kern = np.exp(-np.einsum("qnd,qnd->qn", diff, diff))
                sup = np.abs(kern @ (signs * pts[:, j])).max()
                rhs += 2.0 * abs(s[j] - x[j]) * sup
            assert lhs <= rhs + 1e-9, f"d={d}: lhs {lhs:.6g} > rhs {rhs:.6g}"
            min_margin = min(min_margin, rhs - lhs)
    return f"1000 tuples (d in 1..3), min margin {min_margin:.3e}"


def criterion_7():
    """Taylor truncation residual at the prescribed order stays <= 1."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for trial in range(100):
        d = 1 + trial % 2
        n = int(rng.integers(4, 65))
        pts = rng.uniform(-1, 1, size=(n, d))
        signs = rng.choice([-1, 1], size=n)
        margin = math.sqrt(3.0 * math.log(n)) + 3.0 if n > 1 else 4.0
        x = rng.uniform(-margin, margin, size=d)
        rho = truncation_order(n, d)
        res = truncation_audit(pts, signs, x, rho)
        assert res <= 1.0, f"trial {trial}: residual {res:.3g} > 1"
        worst = max(worst, res)
    return f"100 instances, max residual {worst:.3e}"


def criterion_8():
    """Error scaling on the mixture benchmark: slope and dominance."""
    start = time.time()
    pts = mixture_points()
    grid = kc.build_query_grid(pts, budget=131072)
    # KDEs on the whole query lattice come from the separable evaluator;
    # every 97th query is cross-checked against the pairwise kernel_sum for
    # the base KDE and for the seed-0 coreset of each size.
    probes = grid.points()[::97]

    def kde_on_grid(subset, cross_check):
        values = kc.lattice_sum(subset, np.ones(len(subset)), grid) / len(subset)
        if cross_check:
            pairwise = kernel_sum(subset, np.ones(len(subset)), probes) / len(subset)
            gap = float(np.abs(values[::97] - pairwise).max())
            assert gap <= 1e-12, f"lattice KDE off the pairwise kernel_sum by {gap:.3e}"
        return values

    base = kde_on_grid(pts, True)
    sizes = (32, 64, 128, 256)
    disc = {s: [] for s in sizes}
    rand = {s: [] for s in sizes}
    for seed in range(20):
        res = kc.build_coreset(pts, target=32, seed=seed)
        keep = {res.size: res.indices}
        for rnd in res.rounds:
            keep[rnd.size_after] = rnd.kept
        for s in sizes:
            actual = min(k for k in keep if k >= s)
            err = np.abs(base - kde_on_grid(pts[keep[actual]], seed == 0)).max()
            disc[s].append(float(err))
            ridx = kc.random_baseline(pts, s, seed=seed * 1_000_003 + s).indices
            rand[s].append(float(np.abs(base - kde_on_grid(pts[ridx], False)).max()))
    med_d = [float(np.median(disc[s])) for s in sizes]
    med_r = [float(np.median(rand[s])) for s in sizes]
    assert all(a >= b for a, b in zip(med_d, med_d[1:])), "medians not monotone in size"
    slope = float(np.polyfit(np.log(sizes), np.log(med_d), 1)[0])
    assert slope <= -0.8, f"discrepancy log-log slope {slope:.3f} > -0.8"
    for s, dm, rm in zip(sizes, med_d, med_r):
        assert dm <= rm, f"size {s}: median {dm:.4f} above random {rm:.4f}"
    wins = sum(d < r for d, r in zip(disc[256], rand[256]))
    assert wins >= 16, f"strict wins at 256 only {wins}/20"
    elapsed = time.time() - start
    assert elapsed <= 900.0, f"took {elapsed:.0f}s > 15 min"
    return (f"slope {slope:.2f}, medians {[round(v, 4) for v in med_d]} vs "
            f"random {[round(v, 4) for v in med_r]}, wins@256 {wins}/20, "
            f"{elapsed:.0f}s")


def criterion_9():
    """Pipeline vs exhaustive oracle, and dual oracle enumerators agree."""
    rng = np.random.default_rng(909)
    constants = default_constants(1, grid_budget=150)
    worst_ratio = 0.0
    for trial in range(30):
        n = int(rng.integers(4, 13))
        pts = rng.uniform(-1, 1, size=(n, 1))
        signs, _ = kc.color_all(pts, constants, seed=trial)
        queries = np.linspace(-4.0, 4.0, 101).reshape(-1, 1)
        pipeline_sup = float(np.abs(kernel_sum(pts, signs, queries)).max())
        sup_a, signs_a = oracle_min_discrepancy(pts, queries)
        sup_b, signs_b = naive.oracle_enumerate(pts, queries)
        assert sup_a == sup_b, f"trial {trial}: enumerators differ ({sup_a!r} vs {sup_b!r})"
        assert signs_a.tolist() == signs_b
        assert pipeline_sup >= sup_a - 1e-12, "pipeline beat the exhaustive optimum"
        worst_ratio = max(worst_ratio, pipeline_sup / max(sup_a, 1e-300))
    return f"30 instances, enumerators bit-identical, worst pipeline/oracle {worst_ratio:.2f}"


def criterion_10(tmp_dir):
    """Identical config + seed reproduce indices and reports exactly."""
    rng = np.random.default_rng(1010)
    pts = rng.uniform(-2, 2, size=(160, 2))
    src = tmp_dir / "points.csv"
    with open(src, "w") as fh:
        fh.write("\n".join(",".join(repr(float(v)) for v in row) for row in pts))
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_dir / name
        code = cli_main(["build", "--input", str(src), "--output", str(out),
                         "--target-size", "40", "--seed", "99"])
        assert code == 0
        data = json.loads(out.read_text())
        data.pop("timestamp")
        data["config"].pop("output")
        outputs.append(data)
    assert outputs[0]["indices"] == outputs[1]["indices"]
    assert outputs[0]["rounds"] == outputs[1]["rounds"]
    assert json.dumps(outputs[0], sort_keys=True) == json.dumps(outputs[1], sort_keys=True)
    return f"two builds byte-identical modulo timestamp ({len(outputs[0]['indices'])} indices)"


def test_criterion_1_gram_fidelity():
    print("PASS criterion 1 (gram fidelity):", criterion_1())


@pytest.mark.slow
def test_criterion_2_walk_subgaussianity():
    print("PASS criterion 2 (walk subgaussianity):", criterion_2())


def test_criterion_3_verification_soundness():
    print("PASS criterion 3 (verification soundness):", criterion_3())


def test_criterion_4_las_vegas():
    print("PASS criterion 4 (las vegas retries):", criterion_4())


def test_criterion_5_balance():
    print("PASS criterion 5 (balance):", criterion_5())


def test_criterion_6_difference_inequality():
    print("PASS criterion 6 (difference inequality):", criterion_6())


def test_criterion_7_truncation():
    print("PASS criterion 7 (taylor truncation):", criterion_7())


@pytest.mark.slow
def test_criterion_8_error_scaling():
    print("PASS criterion 8 (error scaling):", criterion_8())


def test_criterion_9_oracle_cross_check():
    print("PASS criterion 9 (oracle cross-check):", criterion_9())


def test_criterion_10_determinism(tmp_path):
    print("PASS criterion 10 (determinism):", criterion_10(tmp_path))


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    criteria = [
        ("1 gram fidelity", criterion_1),
        ("2 walk subgaussianity", criterion_2),
        ("3 verification soundness", criterion_3),
        ("4 las vegas retries", criterion_4),
        ("5 balance", criterion_5),
        ("6 difference inequality", criterion_6),
        ("7 taylor truncation", criterion_7),
        ("8 error scaling", criterion_8),
        ("9 oracle cross-check", criterion_9),
        ("10 determinism", lambda: criterion_10(Path(tempfile.mkdtemp()))),
    ]
    failed = 0
    for name, fn in criteria:
        t0 = time.time()
        try:
            msg = fn()
            print(f"PASS criterion {name}: {msg}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failed += 1
            print(f"FAIL criterion {name}: {exc} ({time.time() - t0:.0f}s)")
    sys.exit(1 if failed else 0)
