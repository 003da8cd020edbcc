"""Command-line interface: build coresets, evaluate sup error, benchmark
against random sampling, and re-verify stored colorings.

Commands read point sets from CSV (one point per row, optional header) or
JSON (array of arrays) and write JSON artifacts that embed the resolved
configuration, the seed, and a hash of the input, so any artifact can be
reproduced byte-for-byte (modulo its timestamp field) from itself.

Exit codes: 0 success, 2 validation error, 3 coloring failure (a cell
exhausted its retry budget, or halving did not reach the target size in
64 rounds), 4 I/O error.
"""

import argparse
import csv
import hashlib
import json
import sys
import warnings
from dataclasses import asdict
from datetime import datetime, timezone
from functools import cache

import numpy as np

from .colorizer import ColoringFailure, recheck
from .config import resolve_config
from .coreset import HalvingFailure, build_coreset, random_baseline
from .evaluation import build_query_grid, linf_error

__all__ = ["main", "read_points", "write_artifact", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COLORING = 3
EXIT_IO = 4


class ValidationError(ValueError):
    pass


def read_points(path, dim=None):
    """Load a point set from CSV or JSON.

    CSV rows must all have the same number of columns; a UTF-8 byte order
    mark is ignored and non-numeric rows before the first numeric one are
    skipped as a header. Dimension-inconsistent or non-numeric rows raise a
    ValidationError naming the offending line. JSON coordinates must be
    numbers.
    """
    if str(path).endswith(".json"):
        arr = _read_json(path)
    else:
        arr = _read_csv(path)
    if not len(arr):
        raise ValidationError(f"{path}: no points found")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{path}: non-finite coordinate in input")
    if dim is not None and arr.shape[1] != dim:
        raise ValidationError(
            f"{path}: points have dimension {arr.shape[1]}, --dim says {dim}"
        )
    return arr


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValidationError(f"{path}: JSON input must be an array of arrays")
    for i, row in enumerate(data):
        if not isinstance(row, list):
            raise ValidationError(f"{path}: entry {i} is not an array")
        if len(row) != len(data[0]):
            raise ValidationError(
                f"{path}: entry {i} has {len(row)} coordinates, expected {len(data[0])}"
            )
        if not set(map(type, row)) <= {int, float}:
            j = next(j for j, v in enumerate(row) if type(v) not in (int, float))
            raise ValidationError(f"{path}: entry {i} coordinate {j} is not a number")
    try:
        return np.asarray(data, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(f"{path}: non-finite coordinate in input") from None


def _read_csv(path):
    """The numeric rows of a CSV file as a float64 array, parsed by numpy's
    C reader. Files it rejects or finds empty (a header, quoted or
    underscored fields, whitespace-only rows, or errors to report by line)
    are read by _read_csv_rows, which gives the same bits wherever both
    succeed."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            arr = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                             encoding="utf-8-sig")
    except ValueError:
        return _read_csv_rows(path)
    return arr if arr.size else _read_csv_rows(path)


def _read_csv_rows(path):
    """_read_csv's fallback: one csv.reader pass and float() per field.
    Errors name the physical line a record ends on, which is later than
    its record count when a quoted field spans lines."""
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
                        continue  # header row
                    raise ValidationError(
                        f"{path}:{reader.line_num}: non-numeric value in row") from None
                numbered.append((reader.line_num, values))
        except csv.Error as exc:  # e.g. a field over csv's size limit
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    if numbered:
        width = len(numbered[0][1])
        for lineno, values in numbered:
            if len(values) != width:
                raise ValidationError(
                    f"{path}:{lineno}: row has {len(values)} columns, expected {width}"
                )
    return np.asarray([v for _, v in numbered], dtype=np.float64)


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_artifact(path, payload):
    """Write a JSON artifact with sorted keys; floats use Python's shortest
    round-trip representation (lossless to all 17 significant digits)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _base_payload(kind, cfg, digest):
    """The fields every artifact shares; `digest` is file_sha256(cfg.input)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": cfg.to_dict(),
        "input": {"path": str(cfg.input), "sha256": digest},
    }


def _round_payload(rnd, emit_colorings):
    cells = [{
        "center": list(c.center),
        "size": int(c.members.size),
        "retries": int(c.retries),
        "flipped": int(c.flipped.size),
        "flipped_positions": [int(i) for i in c.flipped],
        "max_grid_ratio": float(c.max_grid_ratio),
        "imbalance_before_flip": int(c.imbalance_before_flip),
    } for c in rnd.cells]
    out = {
        "size_before": rnd.size_before,
        "size_after": rnd.size_after,
        "cells": cells,
    }
    if emit_colorings:
        out["coloring"] = [int(s) for s in rnd.coloring]
        out["kept"] = [int(i) for i in rnd.kept]
    return out


def cmd_build(cfg):
    points = read_points(cfg.input, cfg.dim)
    if cfg.target_size is None and cfg.epsilon is None:
        raise ValidationError("build requires --target-size or --epsilon")
    d = points.shape[1]
    constants = cfg.constants_for(d)
    result = build_coreset(
        points, target=cfg.target_size, epsilon=cfg.epsilon, seed=cfg.seed,
        presample=cfg.presample, constants=constants, retry_budget=cfg.retry_budget,
    )
    payload = _base_payload("coreset", cfg, file_sha256(cfg.input))
    # Resolved constants, not null defaults: verify rechecks these, whatever the defaults.
    payload["config"].update(asdict(constants))
    payload["input"]["n"] = int(points.shape[0])
    payload["input"]["dim"] = d
    payload.update({
        "seed": cfg.seed,
        "indices": [int(i) for i in result.indices],
        "size": result.size,
        "target_size": result.target_size,
        "presampled_from": result.presampled_from,
        "presample_indices": None if result.presample_indices is None
        else [int(i) for i in result.presample_indices],
        "rounds": [_round_payload(r, cfg.emit_colorings) for r in result.rounds],
    })
    write_artifact(cfg.output, payload)
    print(f"coreset: {result.size} of {points.shape[0]} points "
          f"({len(result.rounds)} rounds) -> {cfg.output}")
    return EXIT_OK


def _field(obj, key, kind, where):
    """obj[key], where obj must be a JSON object holding a `kind` there;
    anything else in an artifact is a ValidationError."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"{where}: missing or malformed {key!r}")
    return value


def _int_list(obj, key, where, bound=None):
    """obj[key], a JSON array of integers, each in [0, bound) when a bound
    is given."""
    values = _field(obj, key, list, where)
    if not set(map(type, values)) <= {int}:
        raise ValidationError(f"{where}: {key!r} must be an array of integers")
    if bound is not None and values and not 0 <= min(values) <= max(values) < bound:
        raise ValidationError(f"{where}: {key!r} has an entry outside [0, {bound})")
    return values


def _int_array(obj, key, where, bound=None):
    """_int_list as an intp array."""
    return np.asarray(_int_list(obj, key, where, bound), dtype=np.intp)


def _distinct_array(obj, key, where, bound):
    """_int_array of indices into `bound` points, none repeated."""
    values = _int_array(obj, key, where, bound)
    if len(set(values.tolist())) != values.size:
        raise ValidationError(f"{where}: {key!r} repeats an entry")
    return values


def _load_coreset_indices(cfg, points):
    """The --coreset artifact, its indices into `points`, and the input's
    sha256, which must be the one the artifact records."""
    if not cfg.coreset:
        raise ValidationError("a --coreset artifact is required")
    with open(cfg.coreset, "r", encoding="utf-8") as fh:
        artifact = json.load(fh)
    if not isinstance(artifact, dict) or artifact.get("kind") != "coreset":
        raise ValidationError(f"{cfg.coreset}: not a coreset artifact")
    if _field(artifact, "schema_version", int, cfg.coreset) != SCHEMA_VERSION:
        raise ValidationError(f"{cfg.coreset}: schema_version is not {SCHEMA_VERSION}")
    source = _field(artifact, "input", dict, cfg.coreset)
    recorded = _field(source, "sha256", str, f"{cfg.coreset}: input")
    actual = file_sha256(cfg.input)
    if recorded != actual:
        raise ValidationError(
            f"{cfg.coreset}: coreset was built from a different input "
            f"(sha256 {recorded[:12]}... != {actual[:12]}...)"
        )
    indices = _distinct_array(artifact, "indices", cfg.coreset, points.shape[0])
    return artifact, indices, actual


def cmd_eval(cfg):
    points = read_points(cfg.input, cfg.dim)
    artifact, idx, digest = _load_coreset_indices(cfg, points)
    report = linf_error(points, points[idx], resolution=cfg.resolution,
                        budget=cfg.eval_budget)
    payload = _base_payload("eval_report", cfg, digest)
    payload.update({
        "coreset": {"path": str(cfg.coreset), "size": int(idx.size)},
        "sup_error": report.sup_error,
        "argmax_query": list(report.argmax_query),
        "n_queries": report.n_queries,
        "n_evaluated": report.n_evaluated,
        "discretization_bound": report.discretization_bound,
        "tail_bound": report.tail_bound,
        "upper_bound": report.upper_bound,
        "runtime_seconds": report.runtime_seconds,
        "grid": {
            "width": report.grid.width,
            "radius": report.grid.radius,
            "center": list(report.grid.center),
        },
    })
    if cfg.output:
        write_artifact(cfg.output, payload)
    print(f"sup error {report.sup_error:.6g} at {tuple(report.argmax_query)} "
          f"(+{report.discretization_bound:.2g} discretization, "
          f"tail {report.tail_bound:.2g}; summed {report.n_evaluated} "
          f"of {report.n_queries} queries)")
    return EXIT_OK


def _check_records(rno, metas, cells, owned, runs):
    """Compare round `rno`'s cell records with what recheck derived: its
    cells' (passed, max_ratio, imbalance), whether their flips are their
    own, and partition's runs. A ValidationError names the first cell whose
    record does not match, and the first of its checks that fails.

    The center and size must be the cell's, the recorded flips the accepted
    coloring's own balance flips, `flipped` their count, and
    imbalance_before_flip the accepted coloring's sum.
    """
    centers, _, sizes = runs
    if len(sizes) != len(metas):
        raise ValidationError(f"round {rno}: cell layout does not match input")
    for cno, (meta, center, size, own, (_, _, imbalance)) in enumerate(
            zip(metas, centers.tolist(), sizes.tolist(), owned, cells)):
        where = f"round {rno} cell {cno}"
        if (_field(meta, "center", list, where) != center
                or _field(meta, "size", int, where) != size):
            raise ValidationError(f"{where}: center or size does not match input")
        positions = _int_list(meta, "flipped_positions", where, size)
        if not own or _field(meta, "flipped", int, where) != len(positions):
            raise ValidationError(f"{where}: flipped positions are not the "
                                  "accepted coloring's balance flips")
        if _field(meta, "imbalance_before_flip", int, where) != imbalance:
            raise ValidationError(f"{where}: imbalance_before_flip is not the "
                                  "accepted coloring's sum")


# The configuration keys whose values verify takes from the artifact.
_VERIFY_KEYS = ("c0", "c1", "c_big", "strict_constants", "grid_budget")


def cmd_verify(cfg):
    points = read_points(cfg.input, cfg.dim)
    artifact, indices, digest = _load_coreset_indices(cfg, points)
    if _field(artifact, "size", int, cfg.coreset) != indices.size:
        raise ValidationError(f"{cfg.coreset}: 'size' is not the length of 'indices'")
    n = points.shape[0]
    rounds = _field(artifact, "rounds", list, cfg.coreset)
    if any(isinstance(rnd, dict) and "coloring" not in rnd for rnd in rounds):
        raise ValidationError(f"{cfg.coreset}: artifact has no stored colorings "
                              "(built with emit_colorings=false?)")
    # Recheck the build's own certificate: the constants its configuration
    # records, with none of this process's flags, environment or config file.
    recorded = _field(artifact, "config", dict, cfg.coreset)
    try:
        built = resolve_config({k: recorded.get(k) for k in _VERIFY_KEYS}, environ={})
        constants = built.constants_for(points.shape[1])
    except ValueError as exc:
        raise ValidationError(f"{cfg.coreset}: malformed 'config' ({exc})") from None
    print(f"constants from artifact: c0 {constants.c0:.6g}, c1 {constants.c1:.6g}, "
          f"c_big {constants.c_big:.6g}, grid budget {constants.grid_budget}")
    start = (None if artifact.get("presample_indices") is None
             else _distinct_array(artifact, "presample_indices", cfg.coreset, n))
    current = np.arange(n, dtype=np.intp) if start is None else start
    # The rounds as arrays, up to the first malformed one.
    read, error = [], None
    try:
        for rno, rnd in enumerate(rounds):
            where = f"round {rno}"
            coloring = _int_list(rnd, "coloring", where)
            kept = _int_array(rnd, "kept", where, n)
            metas = _field(rnd, "cells", list, where)
            if len(coloring) != current.size:
                raise ValidationError(
                    f"round {rno}: coloring length {len(coloring)} does not match "
                    f"expected size {current.size}"
                )
            if not coloring:
                raise ValidationError(f"{where}: the round's set is empty")
            if not set(coloring) <= {-1, 1}:
                raise ValidationError(f"{where}: coloring entries must be -1 or +1")
            if (_field(rnd, "size_before", int, where) != len(coloring)
                    or _field(rnd, "size_after", int, where) != kept.size):
                raise ValidationError(f"{where}: size_before or size_after does not "
                                      "match the coloring or kept set")
            read.append((coloring, kept, metas))
            current = kept
    except ValidationError as exc:
        error = exc
    # The cells of every round read are rechecked at once; each round's
    # records are then compared with what recheck derived, in round order.
    checked = recheck(points, [(coloring, kept, [m.get("flipped_positions") if isinstance(m, dict)
                                                 else None for m in metas])
                               for coloring, kept, metas in read], constants, start)
    all_ok = True
    results = []
    for rno, ((_, _, metas), (cells, owned, chained, runs)) in enumerate(zip(read, checked)):
        _check_records(rno, metas, cells, owned, runs)
        worst = max([0.0] + [ratio for _, ratio, _ in cells])
        failed = [(cno, ratio, imbalance)
                  for cno, (passed, ratio, imbalance) in enumerate(cells) if not passed]
        ok = not failed and chained
        results.append({"round": rno, "passed": ok, "max_grid_ratio": worst})
        all_ok = all_ok and ok
        print(f"round {rno}: {'pass' if ok else 'FAIL'} (max ratio {worst:.4g})")
        for cno, ratio, imbalance in failed:
            print(f"round {rno} cell {cno}: FAIL (ratio {ratio:.4g}, imbalance {imbalance})")
    if error is not None:
        raise error
    # The coreset is the last round's kept set, or the starting set if none ran.
    if not np.array_equal(current, indices):
        all_ok = False
        print("indices: FAIL (not the kept set of the last round)")
    if cfg.output:
        payload = _base_payload("verify_report", cfg, digest)
        payload["config"].update({k: getattr(built, k) for k in _VERIFY_KEYS})
        payload["rounds"] = results
        payload["passed"] = all_ok
        write_artifact(cfg.output, payload)
    if not all_ok:
        raise ValidationError("stored coreset failed re-verification")
    return EXIT_OK


def cmd_bench(cfg):
    points = read_points(cfg.input, cfg.dim)
    sizes = (32, 64, 128, 256) if cfg.sizes is None else cfg.sizes
    if not sizes:
        raise ValidationError("bench requires a nonempty size list")
    sizes = sorted(int(s) for s in sizes)
    if sizes[0] < 1 or sizes[-1] > points.shape[0]:
        raise ValidationError("bench sizes must lie within [1, n]")
    if cfg.num_seeds < 1:
        raise ValidationError(f"bench seed count must be at least 1, got {cfg.num_seeds}")
    constants = cfg.constants_for(points.shape[1])
    grid = build_query_grid(points, resolution=cfg.resolution, budget=cfg.eval_budget)
    rows = []
    for s in range(cfg.num_seeds):
        seed = cfg.seed + s
        built = build_coreset(points, target=min(sizes), seed=seed,
                              constants=constants, retry_budget=cfg.retry_budget)
        # Halving rounds are nested, so one run yields every larger size.
        keep_by_size = {built.size: built.indices}
        for rnd in built.rounds:
            keep_by_size[rnd.size_after] = rnd.kept
        for size in sizes:
            best = min((k for k in keep_by_size if k >= size),
                       default=max(keep_by_size))
            idx = keep_by_size[best]
            err = linf_error(points, points[idx], grid=grid).sup_error
            rows.append({"method": "discrepancy", "size": int(idx.size),
                         "requested_size": size, "seed": seed, "sup_error": err})
            ridx = random_baseline(points, size, seed=seed * 1_000_003 + size).indices
            rerr = linf_error(points, points[ridx], grid=grid).sup_error
            rows.append({"method": "random", "size": size, "requested_size": size,
                         "seed": seed, "sup_error": rerr})
    summary = summarize_bench(rows)
    slopes = {m: fit_loglog_slope([(r["size"], r["median"]) for r in summary if r["method"] == m])
              for m in ("discrepancy", "random")}
    payload = _base_payload("bench", cfg, file_sha256(cfg.input))
    payload.update({"rows": rows, "summary": summary, "slopes": slopes,
                    "sizes": sizes, "num_seeds": cfg.num_seeds})
    if cfg.output:
        write_artifact(cfg.output, payload)
        csv_path = str(cfg.output) + ".csv"
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["method", "size", "requested_size",
                                                    "seed", "sup_error"])
            writer.writeheader()
            writer.writerows(rows)
    for row in summary:
        print(f"{row['method']:>12} size {row['size']:>6}: median {row['median']:.6g} "
              f"[q25 {row['q25']:.6g}, q75 {row['q75']:.6g}]")
    fmt = lambda s: "n/a" if s is None else f"{s:.3f}"
    print(f"log-log slopes: discrepancy {fmt(slopes['discrepancy'])}, "
          f"random {fmt(slopes['random'])}")
    return EXIT_OK


def summarize_bench(rows):
    """Median and quartiles of sup_error per (method, requested size)."""
    keys = sorted({(r["method"], r["requested_size"]) for r in rows})
    out = []
    for method, size in keys:
        errs = np.asarray([r["sup_error"] for r in rows
                           if r["method"] == method and r["requested_size"] == size])
        out.append({
            "method": method,
            "size": size,
            "median": float(np.median(errs)),
            "q25": float(np.quantile(errs, 0.25)),
            "q75": float(np.quantile(errs, 0.75)),
            "n": int(errs.size),
        })
    return out


def fit_loglog_slope(pairs):
    """Least-squares slope of log(error) against log(size), or None when
    fewer than two positive errors are available."""
    pts = [(s, e) for s, e in pairs if e > 0]
    if len(pts) < 2:
        return None
    xs = np.log([s for s, _ in pts])
    ys = np.log([e for _, e in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kdecoreset",
        description="Coresets for Gaussian kernel density estimation by "
                    "recursive discrepancy halving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flag groups; each command takes exactly the groups it reads.
    files, halving, query, stored = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    files.add_argument("--input", help="input point file (CSV or JSON)")
    files.add_argument("--output", help="output artifact path (JSON)")
    files.add_argument("--dim", type=int, help="expected dimension (validated)")
    files.add_argument("--config", help="JSON config file (lower precedence than flags)")
    halving.add_argument("--seed", type=int, help="root RNG seed (default 0)")
    halving.add_argument("--c0", type=float, help="grid-resolution constant")
    halving.add_argument("--c1", type=float, help="threshold constant")
    halving.add_argument("--c-big", dest="c_big", type=float, help="balance cap constant")
    halving.add_argument("--strict-constants", dest="strict_constants",
                         action="store_const", const=True,
                         help="theory-faithful constants and literal grid widths")
    halving.add_argument("--grid-budget", dest="grid_budget", type=int,
                         help="max enumerated points per verification grid")
    halving.add_argument("--retry-budget", dest="retry_budget", type=int,
                         help="per-cell Las Vegas retries before failing")
    query.add_argument("--resolution", type=int,
                       help="per-axis query grid resolution for evaluation")
    query.add_argument("--eval-budget", dest="eval_budget", type=int,
                       help="max enumerated query points for evaluation")
    stored.add_argument("--coreset", help="coreset artifact from `build`")

    p = sub.add_parser("build", help="construct a coreset", parents=[files, halving])
    p.add_argument("--target-size", dest="target_size", type=int,
                   help="stop halving at this size")
    p.add_argument("--epsilon", type=float,
                   help="error budget; sets the target size to ceil(4/eps), and does not "
                        "bound the error")
    p.add_argument("--presample", action="store_const", const=True,
                   help="uniform presample to ~1/eps^2 before halving")
    p.add_argument("--no-colorings", dest="emit_colorings", action="store_const",
                   const=False, help="omit per-round colorings from the artifact")
    sub.add_parser("eval", help="sup-error report for a stored coreset",
                   parents=[files, query, stored])
    sub.add_parser("verify", help="recheck a stored coloring under the constants "
                   "the artifact was built with", parents=[files, stored])
    p = sub.add_parser("bench", help="compare against random sampling",
                       parents=[files, halving, query])
    p.add_argument("--sizes", help="comma-separated coreset sizes")
    p.add_argument("--num-seeds", dest="num_seeds", type=int,
                   help="seeds per size (default 20)")
    return parser


# One parser per process: building it costs about a millisecond per call,
# and parsing leaves it unchanged, also when it exits on an error.
_parser = cache(build_parser)

_COMMANDS = {
    "build": cmd_build,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "bench": cmd_bench,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = resolve_config(values, config_path=args.config)
        if not cfg.input:
            raise ValidationError("an --input file is required")
        code = _COMMANDS[args.command](cfg)
    except (ColoringFailure, HalvingFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLORING
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
