"""Child process of the benchmark: `python3 perfbench/worker.py SPEC.json`.

SPEC names a mode and the files to use; the worker writes its result as
JSON to SPEC["out"]. Each mode runs in a fresh process of its own:

setup  import ``kdecoreset`` and warm it up; reports the seconds taken.
       numpy is imported before the timing starts, by speed.py.
prep   `kdecoreset build` of the artifact that eval and verify read.
run    the workload's timed operations, so this process's peak RSS
       belongs to them alone. With trace on, every operation runs once
       untraced and once traced (see spans.py).

An untraced operation is timed with speed.py: reference slices run
before, during and after it, and its time is also kept scaled by them.
The end-to-end times are scaled ones.

Every operation's output is checked here, outside the timed region. A
failed check, a ColoringFailure or RuntimeError, or a nonzero CLI exit
counts as one failed operation and is never retried.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from speed import Speed


def import_package(root):
    """Import ``kdecoreset`` from the checkout's src/, and nothing else."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import kdecoreset

    if not os.path.abspath(kdecoreset.__file__).startswith(src + os.sep):
        raise SystemExit(f"kdecoreset imported from {kdecoreset.__file__}, not {src}")
    return kdecoreset


@contextlib.contextmanager
def stopwatch(out):
    """Time the body into out["seconds"], unless it raises."""
    start = time.perf_counter()
    yield out
    out["seconds"] = time.perf_counter() - start


def indices_sha256(indices):
    import numpy as np

    return hashlib.sha256(np.asarray(indices, dtype=np.int64).tobytes()).hexdigest()


def chain_problems(result, n, target):
    """Output checks of one build_coreset chain; returns a list of defects."""
    import numpy as np

    idx = np.asarray(result.indices)
    out = []
    if idx.size == 0 or np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] >= n:
        out.append("indices not sorted, unique and in range")
    if idx.size > target:
        out.append(f"final size {idx.size} above target {target}")
    prev = np.arange(n)
    for r, rnd in enumerate(result.rounds):
        if not np.isin(rnd.kept, prev).all():
            out.append(f"round {r} keeps points outside the previous round")
        for cell in rnd.cells:
            if not cell.max_grid_ratio < 1.0:
                out.append(f"round {r} cell {cell.center}: max_grid_ratio {cell.max_grid_ratio}")
            if abs(int(cell.coloring.sum())) > 1:
                out.append(f"round {r} cell {cell.center}: post-flip |sum| > 1")
        prev = rnd.kept
    if not np.array_equal(prev, idx):
        out.append("final indices differ from the last round's kept set")
    return out


def eval_problems(report_path, pts, indices):
    """The reported sup_error must equal |KDE_P - KDE_Q| at argmax_query,
    recomputed directly, within 1e-12."""
    import numpy as np

    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    x = np.asarray(report["argmax_query"], dtype=np.float64)
    kde = lambda p: float(np.mean(np.exp(-np.sum((x - p) ** 2, axis=1))))
    expect = abs(kde(pts) - kde(pts[indices]))
    if not abs(report["sup_error"] - expect) <= 1e-12:
        return [f"sup_error {report['sup_error']!r} != recomputed {expect!r}"]
    return []


class Run:
    """The timed operations of one workload run."""

    def __init__(self, kc, spec):
        import numpy as np

        from workloads import WORKLOADS

        self.kc = kc
        self.spec = spec
        self.cfg = WORKLOADS[spec["workload"]]
        self.pts = np.load(spec["npy"])
        with open(spec["artifact"], encoding="utf-8") as fh:
            self.artifact_indices = np.asarray(json.load(fh)["indices"], dtype=np.intp)
        self.durations = {}  # (op, traced) -> [seconds]
        self.scaled = {}  # op -> [seconds scaled by speed.py], untraced only
        self.speed = None  # set after the warm-up
        self.hashes = {}  # chain seed -> sha256 of its first indices
        self.indices = {}  # chain seed -> indices, for the check across runs
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _cli(self, argv):
        # The CLI's progress lines are not part of the result.
        with contextlib.redirect_stdout(io.StringIO()):
            return self.kc.cli.main(argv)

    def op(self, name, arg, tracer=None):
        """Run one operation, time it, check it; returns its seconds."""
        from spans import tracing

        self.attempted += 1
        ctx = tracing(tracer) if tracer is not None else contextlib.nullcontext()
        spec = self.spec
        timing = {}
        timer = self.speed.measure(timing) if tracer is None else stopwatch(timing)
        try:
            with ctx, timer:
                if name == "chain":
                    out = self.kc.coreset.build_coreset(self.pts, target=self.cfg["target"], seed=arg)
                elif name == "eval":
                    budget = self.cfg["eval_budget"]
                    out = self._cli(["eval", "--input", spec["csv"], "--coreset", spec["artifact"],
                                     "--output", spec["report"]]
                                    + ([] if budget is None else ["--eval-budget", str(budget)]))
                else:
                    out = self._cli(["verify", "--input", spec["csv"], "--coreset", spec["artifact"]])
        except RuntimeError as exc:  # ColoringFailure is a RuntimeError
            self.failed += 1
            self.problems.append(f"{name} {arg}: {type(exc).__name__}: {exc}")
            return None
        seconds = timing["seconds"]
        self.durations.setdefault((name, tracer is not None), []).append(seconds)
        if tracer is None:
            self.scaled.setdefault(name, []).append(timing["scaled"])
        found = []
        if name == "chain":
            found = chain_problems(out, len(self.pts), self.cfg["target"])
            digest = indices_sha256(out.indices)
            first = self.hashes.setdefault(arg, digest)
            self.indices.setdefault(arg, [int(i) for i in out.indices])
            if digest != first:
                found.append(f"chain seed {arg}: indices differ between runs "
                             f"({'traced' if tracer else 'untraced'})")
        elif out != 0:
            found = [f"{name} exited {out}"]
        elif name == "eval":
            found = eval_problems(spec["report"], self.pts, self.artifact_indices)
        self.failed += bool(found)
        self.problems.extend(f"{name} {arg}: {p}" for p in found)
        return seconds

    def warm_up(self):
        """Run each kind of operation once, small and untimed: the first
        call in a fresh process pays for lazy loading and first-touch
        memory, which users pay once per process."""
        import numpy as np

        spec = self.spec
        small = np.random.default_rng(0).uniform(-1.0, 1.0, (256, 2))
        self.kc.coreset.build_coreset(small, target=32, seed=0)
        self._cli(["eval", "--input", spec["csv"], "--coreset", spec["artifact"],
                   "--output", spec["report"], "--eval-budget", "1024"])
        self._cli(["verify", "--input", spec["csv"], "--coreset", spec["artifact"]])
        self.speed = Speed()

    def repeat(self, units, seconds):
        """Run the units in turn until each has run once and the next is
        predicted, from the last one's duration, to end after `seconds`.
        Returns the number of units run."""
        start = time.perf_counter()
        done = 0
        while True:
            begun = time.perf_counter()
            for op in units[done % len(units)]:
                self.op(*op)
            done += 1
            now = time.perf_counter()
            if done >= len(units) and now - start + (now - begun) > seconds:
                return done


def run(kc, spec):
    from spans import Tracer, layer_metrics

    r = Run(kc, spec)
    r.warm_up()
    unit = r.cfg["unit"]
    out = {}
    if not spec["trace"]:
        # Build workloads start a unit per chain seed; the audit has one.
        seeds = spec["chain_seeds"] if "chain" in unit else (None,)
        r.repeat([[(name, s if name == "chain" else None) for name in unit] for s in seeds],
                 spec["seconds"])
    else:
        # Every traced operation also runs untraced, on the same input. An
        # operation is one chain on build workloads, one eval plus one
        # verify on the audit.
        tracer = Tracer()
        if "chain" in unit:
            units = [[("chain", s), ("chain", s, tracer)] for s in spec["chain_seeds"]]
        else:
            units = [[("eval", None), ("verify", None),
                      ("eval", None, tracer), ("verify", None, tracer)]]
        n_ops = r.repeat(units, spec["seconds"])
        untraced = sum(sum(v) for (name, tr), v in r.durations.items() if not tr)
        traced = sum(sum(v) for (name, tr), v in r.durations.items() if tr)
        out["layers"] = dict(
            layer_metrics(tracer, n_ops),
            **{"trace.op_s": traced / n_ops,
               "trace.overhead_s": (traced - untraced) / n_ops,
               "trace.spans": len(tracer.spans) / n_ops})
    out.update({
        "attempted": r.attempted,
        "failed": r.failed,
        "problems": r.problems,
        "durations": {f"{name}{'+trace' if tr else ''}": v for (name, tr), v in r.durations.items()},
        "scaled": r.scaled,
        "indices": {str(k): v for k, v in r.indices.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return out


def setup(root):
    """Seconds from before `import kdecoreset` to the end of a small
    warm-up. numpy is already imported: speed.py's slices use it."""
    timing = {}
    with Speed().measure(timing):
        kc = import_package(root)
        import numpy as np

        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (64, 2))
        res = kc.build_coreset(pts, target=16, seed=0)
        kc.linf_error(pts, pts[res.indices], resolution=16)
    return {"setup_s": timing["scaled"], "raw_setup_s": timing["seconds"]}


def prep(kc, spec):
    from workloads import ARTIFACT_SEED, WORKLOADS

    timing = {}
    try:
        with contextlib.redirect_stdout(io.StringIO()), Speed().measure(timing):
            code = kc.cli.main(["build", "--input", spec["csv"], "--output", spec["artifact"],
                                "--target-size", str(WORKLOADS[spec["workload"]]["target"]),
                                "--seed", str(ARTIFACT_SEED)])
    except RuntimeError as exc:
        return {"build_s": None, "problem": f"build: {type(exc).__name__}: {exc}"}
    return {"build_s": timing["scaled"], "raw_build_s": timing["seconds"],
            "problem": None if code == 0 else f"build exited {code}"}


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["mode"] == "setup":
        result = setup(spec["root"])
    else:
        kc = import_package(spec["root"])
        import kdecoreset.cli  # noqa: F401  (the CLI is not imported by the package)

        result = prep(kc, spec) if spec["mode"] == "prep" else run(kc, spec)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
