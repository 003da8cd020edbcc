"""Spans and counters for the benchmark's traced run.

The traced run times calls into each layer of ``kdecoreset`` from outside
the package: it replaces the names a caller looks up (for example
``kdecoreset.colorizer.psd_factor``, which ``color_cell`` resolves at call
time) with timing wrappers, and restores the originals afterwards. Counts
are taken from the wrapped calls' return values, so nothing inside
``src/`` needs to know it is being traced.

Span names are ``<module>.<function>`` with the module of ``kdecoreset``
that owns the function. A layer's self time is the time its spans cover
minus the part of that time covered by their child spans.
"""

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, or -1 for a root span


@dataclass
class Tracer:
    """Spans and counters recorded in memory while bindings are patched."""

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key, value):
        self.counts[key] = max(self.counts.get(key, value), value)

    def sample(self, key, value):
        self.samples.setdefault(key, []).append(value)

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def wrap(self, name, fn, observe=None):
        """fn timed under span `name`; observe(tracer, args, result) runs
        after each successful call to record counts."""

        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced


def self_times(spans):
    """Per span: its duration minus the union of its children's intervals
    clipped to it."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def totals(spans):
    """Inclusive seconds per span name. A span nested in another span of
    the same name is not counted twice."""
    out = {}
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
    return out


def self_by_module(spans):
    """Self seconds summed per module prefix of the span names."""
    out = {}
    for s, t in zip(spans, self_times(spans)):
        module = s.name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + t
    return out


@contextmanager
def patched(replacements):
    """Set each (owner, attr, value) for the duration of the block, then put
    back exactly the object each attribute held before."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- what each layer records -------------------------------------------------


def _gram(tr, args, m):
    tr.peak("decomp.gram_order_max", m.shape[0])


def _factor(tr, args, f):
    tr.peak("decomp.factor_rank_max", f.dim_m)


def _walk(tr, args, out):
    tr.add("walk.attempts")
    tr.add("walk.steps", out.steps)


def _verify(tr, args, out):
    tr.add("colorizer.verify_calls")
    tr.sample("colorizer.verify_ratio", float(out[1]))


def _cell(tr, args, report):
    tr.sample("colorizer.max_grid_ratio", float(report.max_grid_ratio))
    if report.members.size > 2:
        tr.add("colorizer.accepted_walks")


def _partition(tr, args, cells):
    tr.add("colorizer.cells", len(cells))


def _grid_points(tr, args, pts):
    tr.add("schedule.grid_points", pts.shape[0])


def _pairs(tr, args, out):
    # (points, ..., queries) -> one kernel evaluation per pair.
    tr.add("kernel.pair_evals", len(args[0]) * out.shape[0])


def _linf(tr, args, report):
    tr.add("evaluation.n_queries", report.n_queries)


def _round(tr, args, out):
    tr.add("coreset.rounds")


def bindings():
    """(owner, attr, span name, observer) for every traced call site.

    Each function is wrapped at the binding its caller looks up at call
    time; a binding the code under test no longer has is skipped, so its
    layer reads as idle.
    """
    from kdecoreset import cli, colorizer, coreset, evaluation, schedule

    table = [
        (colorizer, "build_gram", "decomp.build_gram", _gram),
        (colorizer, "psd_factor", "decomp.psd_factor", _factor),
        (colorizer, "augment", "decomp.augment", None),
        (colorizer, "gsw_color", "walk.gsw_color", _walk),
        (colorizer, "verify", "colorizer.verify", _verify),
        (cli, "verify", "colorizer.verify", _verify),
        (colorizer, "partition", "colorizer.partition", _partition),
        (cli, "partition", "colorizer.partition", _partition),
        (coreset, "color_all", "colorizer.color_all", None),
        (colorizer, "color_cell", "colorizer.color_cell", _cell),
        (colorizer, "build_schedule", "schedule.build_schedule", None),
        (cli, "build_schedule", "schedule.build_schedule", None),
        (schedule.Grid, "points", "schedule.grid_points", _grid_points),
        (colorizer, "signed_discrepancy_batch", "kernel.signed_discrepancy_batch", _pairs),
        (evaluation, "kde_batch", "kernel.kde_batch", _pairs),
        (cli, "kde_batch", "kernel.kde_batch", _pairs),
        (cli, "linf_error", "evaluation.linf_error", _linf),
        (evaluation, "build_query_grid", "evaluation.build_query_grid", None),
        (cli, "build_query_grid", "evaluation.build_query_grid", None),
        (coreset, "build_coreset", "coreset.build_coreset", None),
        (coreset, "halve_indices", "coreset.halve_indices", _round),
        (cli, "main", "cli.main", None),
        (cli, "read_points", "cli.read_points", None),
        (cli, "write_artifact", "cli.write_artifact", None),
    ]
    return [row for row in table if row[1] in row[0].__dict__]


@contextmanager
def tracing(tracer):
    """Patch every binding with a wrapper that records into `tracer`."""
    with patched([(owner, attr, tracer.wrap(name, owner.__dict__[attr], observe))
                  for owner, attr, name, observe in bindings()]):
        yield


def layer_metrics(tracer, n_ops):
    """Per-layer metrics of BENCHMARK.json from a traced run of `n_ops`
    operations. Seconds and counts are per operation; maxima and medians
    are over the whole run."""
    tot = totals(tracer.spans)
    own = self_by_module(tracer.spans)
    c, smp = tracer.counts, tracer.samples
    per = lambda v: v / n_ops
    sec = lambda name: per(tot.get(name, 0.0))
    cells = c.get("colorizer.cells", 0)
    attempts = c.get("walk.attempts", 0)
    steps = c.get("walk.steps", 0)
    # Ratios of accepted colorings: per colored cell on a build, per
    # re-verified cell on the audit.
    ratios = smp.get("colorizer.max_grid_ratio") or smp.get("colorizer.verify_ratio") or [0.0]
    kernel_s = tot.get("kernel.kde_batch", 0.0) + tot.get("kernel.signed_discrepancy_batch", 0.0)
    pairs = c.get("kernel.pair_evals", 0)
    return {
        "decomp.build_gram_s": sec("decomp.build_gram"),
        "decomp.psd_factor_s": sec("decomp.psd_factor"),
        "decomp.augment_s": sec("decomp.augment"),
        "decomp.gram_order_max": c.get("decomp.gram_order_max", 0),
        "decomp.factor_rank_max": c.get("decomp.factor_rank_max", 0),
        "walk.gsw_color_s": sec("walk.gsw_color"),
        "walk.steps": per(steps),
        "walk.step_us": 1e6 * tot.get("walk.gsw_color", 0.0) / steps if steps else 0.0,
        "colorizer.verify_s": sec("colorizer.verify"),
        "colorizer.verify_calls_per_cell": c.get("colorizer.verify_calls", 0) / cells if cells else 0.0,
        "colorizer.partition_s": sec("colorizer.partition"),
        "colorizer.self_s": per(own.get("colorizer", 0.0)),
        "colorizer.cells": per(cells),
        "colorizer.walk_attempts": per(attempts),
        "colorizer.accept_ratio": c.get("colorizer.accepted_walks", 0) / attempts if attempts else 0.0,
        "colorizer.max_grid_ratio_p50": statistics.median(ratios),
        "colorizer.max_grid_ratio_max": max(ratios),
        "schedule.build_schedule_s": sec("schedule.build_schedule"),
        "schedule.grid_points_s": sec("schedule.grid_points"),
        "schedule.grid_points": per(c.get("schedule.grid_points", 0)),
        "kernel.signed_discrepancy_batch_s": sec("kernel.signed_discrepancy_batch"),
        "kernel.kde_batch_s": sec("kernel.kde_batch"),
        "kernel.pair_evals": per(pairs),
        "kernel.pair_evals_per_s": pairs / kernel_s if kernel_s else 0.0,
        "evaluation.linf_error_s": sec("evaluation.linf_error"),
        "evaluation.build_query_grid_s": sec("evaluation.build_query_grid"),
        "evaluation.n_queries": per(c.get("evaluation.n_queries", 0)),
        "coreset.rounds": per(c.get("coreset.rounds", 0)),
        "coreset.self_s": per(own.get("coreset", 0.0)),
        "cli.read_points_s": sec("cli.read_points"),
        "cli.write_artifact_s": sec("cli.write_artifact"),
        "cli.self_s": per(own.get("cli", 0.0)),
    }
