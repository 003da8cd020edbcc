"""kdecoreset benchmark.

    python3 perfbench/run.py --workload mixture_chain --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Every child process is a fresh interpreter with BLAS pinned to one thread
and no KDECORESET_* overrides:

1. seven `setup` processes time `import kdecoreset` plus a warm-up;
2. the workload's fixed points are written out, and a `prep` process
   builds the coreset artifact that eval and verify read;
3. a `run` process repeats the workload's timed operations, on chains
   seeded from --seed, for about --seconds.

The end-to-end times are scaled by the machine's speed, measured while
each operation runs (see speed.py).

With --trace 0 the last line of output is the end-to-end result, with
--trace 1 the per-layer one (names as in BENCHMARK.json). The lines before
it are the environment stamp and a readable table. `--workload all` runs
every workload in turn.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, chain_seeds, lattice_kde, points, query_axes, sup_error

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
SETUP_PROBES = 7
RUN_LIMIT_S = 170  # a run must end within 180 s, result included


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("KDECORESET_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def child(work, name, spec, deadline):
    """Run worker.py in a fresh process on `spec`, killing it at the
    time.monotonic() `deadline`; returns its JSON result."""
    timeout = max(deadline - time.monotonic(), 1.0)
    spec = dict(spec, root=str(ROOT), out=str(work / f"{name}.out.json"))
    path = work / f"{name}.spec.json"
    path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(path)],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: no result within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{name} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(Path(spec["out"]).read_text())


def src_fingerprint():
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def env_stamp(workload, seed, trace):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "src_sha256": src_fingerprint(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def check_indices_across_runs(key, hashes):
    """Compare this run's index hashes with earlier runs of the same source
    in this checkout; returns the number of mismatches."""
    path = STATE / "indices.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    seen = known.setdefault(key, {})
    mismatches = sum(1 for k, h in hashes.items() if seen.setdefault(k, h) != h)
    STATE.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)
    return mismatches


def run_workload(workload, seed, seconds, trace):
    cfg = WORKLOADS[workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        # Set-up is an end-to-end metric only; the traced run skips it.
        probes = [child(work, f"setup{i}", {"mode": "setup"}, deadline)
                  for i in range(0 if trace else SETUP_PROBES)]
        pts = points(workload)
        npy, csv = work / "points.npy", work / "points.csv"
        np.save(npy, pts)
        csv.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
        spec = {"workload": workload, "seconds": seconds, "trace": trace, "npy": str(npy),
                "csv": str(csv), "artifact": str(work / "coreset.json"),
                "report": str(work / "eval.json"), "chain_seeds": chain_seeds(seed)}
        prep = child(work, "prep", dict(spec, mode="prep"), deadline)
        if prep["problem"]:
            raise BenchError(f"preparing the artifact failed: {prep['problem']}")
        artifact = json.loads((work / "coreset.json").read_text())["indices"]
        res = child(work, "run", dict(spec, mode="run"), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(res["problems"])
    built = dict(res["indices"], artifact=artifact)
    hashes = {k: hashlib.sha256(np.asarray(v, dtype=np.int64).tobytes()).hexdigest()
              for k, v in built.items()}
    mismatches = check_indices_across_runs(f"{src_fingerprint()}/{workload}", hashes)
    if mismatches:
        problems.append(f"{mismatches} chains' indices differ from an earlier run")
    attempted = len(probes) + 1 + res["attempted"]
    failed = res["failed"] + mismatches

    wall = {}  # unscaled medians, for the readable table only
    if trace:
        metrics = res["layers"]
    else:
        axes = query_axes(pts)
        base = lattice_kde(pts, axes)  # the full-set KDE, once per run
        dur = res["scaled"]
        if not {"eval", "verify"} <= set(dur):
            raise BenchError(f"no eval or verify succeeded: {problems}")
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "build_s": statistics.median(dur["chain"]) if "chain" in dur else prep["build_s"],
            "eval_s": statistics.median(dur["eval"]),
            "verify_s": statistics.median(dur["verify"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "sup_error_x_size": sup_error(pts, artifact, axes, base) * len(artifact),
            "size_ratio": len(artifact) / cfg["target"],
            "pass_share": (attempted - failed) / attempted,
        }
        raw = res["durations"]
        wall = {"setup_s": statistics.median(p["raw_setup_s"] for p in probes),
                "build_s": statistics.median(raw["chain"]) if "chain" in raw else prep["raw_build_s"],
                "eval_s": statistics.median(raw["eval"]),
                "verify_s": statistics.median(raw["verify"])}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} not as declared")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "problems": problems, "wall": wall,
            "metrics": {k: (metrics[k], units[k]) for k in units}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into an exception, so the running child is killed and
    # awaited and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "kdecoreset" / "__init__.py").is_file():
        print(f"error: no kdecoreset sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"env": env_stamp(name, args.seed, args.trace)}, sort_keys=True))
        verdict = "correct" if result["correct"] else "INCORRECT"
        print(f"{name} seed {args.seed}: {verdict}, {result['attempted']} attempted, "
              f"{result['failed']} failed")
        for p in result["problems"]:
            print(f"  problem: {p}")
        for k, (v, unit) in result["metrics"].items():
            print(f"  {k:36s} {v:14.6g} {unit}"
                  + (f"   (unscaled {result['wall'][k]:.6g} {unit})" if k in result["wall"] else ""))
        print(json.dumps({
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
