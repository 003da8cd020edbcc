"""Independent naive reference implementations used as test oracles.

Everything here is written with plain Python loops and math.exp, kept
deliberately separate from the package's vectorized code paths. The one
exception is `reference_walk`, which takes each direction from
`np.linalg.lstsq` in place of the walk's maintained inverse.
"""

import csv
import math

import numpy as np


def gauss(x, y):
    acc = 0.0
    for a, b in zip(x, y):
        acc += (a - b) * (a - b)
    return math.exp(-acc)


def kde(points, x):
    return math.fsum(gauss(x, p) for p in points) / len(points)


def signed_discrepancy(points, signs, x):
    return math.fsum(s * gauss(x, p) for s, p in zip(signs, points))


def gram_entry(a, b, a_is_data, b_is_data):
    """Four-case scaled kernel matrix entry."""
    sa = math.sqrt(3.0) if a_is_data else 1.0 / math.sqrt(3.0)
    sb = math.sqrt(3.0) if b_is_data else 1.0 / math.sqrt(3.0)
    acc = 0.0
    for u, v in zip(a, b):
        acc += (sa * u - sb * v) ** 2
    return math.exp(-acc)


def verify_cell(points, signs, grid_levels, c1, seq, c_big):
    """Double-loop recheck of the per-cell verification conditions.

    grid_levels: list of arrays of grid points (level i uses threshold
    c1 * seq[i + 1] * exp(-(2/3)||s||^2)). Returns (passed, max_ratio).
    """
    max_ratio = 0.0
    for level, grid_pts in enumerate(grid_levels):
        for s in grid_pts:
            disc = abs(signed_discrepancy(points, signs, s))
            norm_sq = math.fsum(c * c for c in s)
            threshold = c1 * seq[level + 1] * math.exp(-(2.0 / 3.0) * norm_sq)
            ratio = disc / threshold
            if ratio > max_ratio:
                max_ratio = ratio
    balance_ok = abs(sum(int(s) for s in signs)) <= c_big
    return (max_ratio < 1.0 and balance_ok), max_ratio


def oracle_enumerate(points, query_points):
    """Second, independently written exhaustive coloring enumerator.

    Follows the arithmetic contract documented on
    kdecoreset.oracle_min_discrepancy (per-coordinate math.exp kernels,
    running sums over points in index order, ascending bitmask scan with
    sigma[0] = +1, strictly-smaller incumbent updates) so the two
    implementations agree bit for bit; the data layout here is transposed
    (kernel values stored per point, signs materialized up front).
    """
    n = len(points)
    per_point = [[gauss(q, p) for q in query_points] for p in points]
    n_queries = len(query_points)
    best_sup = math.inf
    best_signs = None
    for mask in range(2 ** (n - 1)):
        signs = [1.0] + [-1.0 if mask & (1 << (j - 1)) else 1.0 for j in range(1, n)]
        sup = 0.0
        for qi in range(n_queries):
            acc = per_point[0][qi]
            for j in range(1, n):
                acc += signs[j] * per_point[j][qi]
            mag = abs(acc)
            if mag > sup:
                sup = mag
        if sup < best_sup:
            best_sup = sup
            best_signs = [int(s) for s in signs]
    return best_sup, best_signs


def reference_walk(vectors, seed):
    """Gram-Schmidt walk with each direction solved from scratch.

    The pivot is the largest unfrozen index; the direction is 1 there and,
    on the other unfrozen coordinates, the minimum-norm least-squares
    coefficients c of v_pivot + sum_i c_i v_i (np.linalg.lstsq). Step rule,
    freeze band (1e-12), safety-net freeze and randomness (one rng.random()
    per step from Philox(SeedSequence(seed))) follow kdecoreset.walk.
    Returns the signs as a list of +-1, by input index.
    """
    v = np.asarray(vectors, dtype=np.float64)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = [0.0] * v.shape[0]
    signs = [0] * v.shape[0]
    active = list(range(v.shape[0]))
    while active:
        pivot, rest = active[-1], active[:-1]
        u = {pivot: 1.0}
        if rest:
            coef = np.linalg.lstsq(v[rest].T, -v[pivot], rcond=None)[0]
            u.update(zip(rest, coef.tolist()))
        d_plus = d_minus = math.inf
        for i, ui in u.items():
            if ui > 0.0:
                d_plus = min(d_plus, (1.0 - x[i]) / ui)
                d_minus = min(d_minus, (1.0 + x[i]) / ui)
            elif ui < 0.0:
                d_plus = min(d_plus, (-1.0 - x[i]) / ui)
                d_minus = min(d_minus, (x[i] - 1.0) / ui)
        delta = d_plus if rng.random() * (d_plus + d_minus) < d_minus else -d_minus
        for i, ui in u.items():
            x[i] += delta * ui
        hits = [i for i in active if abs(x[i]) >= 1.0 - 1e-12]
        if not hits:
            hits = [max(active, key=lambda i: abs(x[i]))]
        for i in hits:
            signs[i] = 1 if x[i] > 0.0 else -1
            active.remove(i)
    return signs


def read_csv_points(path):
    """CSV point reader: one csv.reader pass and float() per field.

    Blank rows are skipped, and so are non-numeric rows before the first
    numeric one (a header); a UTF-8 byte order mark is dropped. Errors name
    the physical line a record ends on (csv.reader's line_num). Returns a
    float64 (n, d) array or raises ValueError with kdecoreset.cli's message.
    """
    numbered = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if not row or all(not c.strip() for c in row):
                    continue
                try:
                    values = [float(c) for c in row]
                except ValueError:
                    if not numbered:
                        continue
                    raise ValueError(f"{path}:{reader.line_num}: non-numeric value in row")
                numbered.append((reader.line_num, values))
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}")
    for lineno, values in numbered:
        if len(values) != len(numbered[0][1]):
            raise ValueError(
                f"{path}:{lineno}: row has {len(values)} columns, expected {len(numbered[0][1])}"
            )
    if not numbered:
        raise ValueError(f"{path}: no points found")
    arr = np.asarray([v for _, v in numbered], dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: non-finite coordinate in input")
    return arr


def partition(points):
    """Side-2 lattice cells by a dict keyed on the center tuple.

    Returns (center, members) pairs in sorted center order: the center is
    the first member's tuple (so its zeros keep that member's signs) and
    the members are ascending indices. Centers follow
    kdecoreset.colorizer.partition, including its correction past 2^53.
    """
    cells = {}
    for i, row in enumerate(np.asarray(points, dtype=np.float64).tolist()):
        center = []
        for x in row:
            q = (x - 1.0) / 2.0
            # IEEE ceil keeps the sign of zero: ceil(-0.5) is -0.0.
            c = 2.0 * (math.ceil(q) or math.copysign(0.0, q))
            if abs(x - c) > 1.0:
                c += math.copysign(2.0, x - c)
            center.append(c)
        cells.setdefault(tuple(center), []).append(i)
    return sorted(cells.items())
