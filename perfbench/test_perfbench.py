"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import json
import re
import signal
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import kdecoreset  # noqa: E402
import kdecoreset.cli  # noqa: E402
import speed  # noqa: E402
from spans import Span, Tracer, bindings, layer_metrics, self_times, totals, tracing  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("kernel.kde_batch", 1.0, 4.0, 0),
        Span("kernel.kde_batch", 3.0, 6.0, 0),  # overlaps its sibling
        Span("schedule.grid_points", 2.0, 3.0, 1),
        Span("cli.read_points", 9.0, 12.0, 0),  # runs past its parent
    ]
    assert self_times(spans) == [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0]


def test_tracer_nests_spans_and_totals_count_recursion_once():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    with tr.span("coreset.build_coreset"):        # 0 .. 7
        with tr.span("colorizer.color_all"):      # 1 .. 6
            with tr.span("colorizer.color_all"):  # 2 .. 3
                pass
            with tr.span("walk.gsw_color"):       # 4 .. 5
                pass
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 1]
    assert self_times(tr.spans) == [2.0, 3.0, 1.0, 1.0]
    assert totals(tr.spans) == {"coreset.build_coreset": 7.0, "colorizer.color_all": 5.0,
                                "walk.gsw_color": 1.0}


def _module_state():
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "kdecoreset" or name.startswith("kdecoreset.")]
    owners.append(kdecoreset.schedule.Grid)
    return {(repr(o), k): v for o in owners for k, v in vars(o).items()}


def test_wrap_and_restore_leaves_every_attribute_identical():
    before = _module_state()
    tr = Tracer()
    pts = np.random.default_rng(1).uniform(-1.0, 1.0, (40, 2))
    with tracing(tr):
        assert any(owner.__dict__[attr] is not before[(repr(owner), attr)]
                   for owner, attr, _, _ in bindings())
        kdecoreset.coreset.build_coreset(pts, target=10, seed=3)
    after = _module_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert {s.name for s in tr.spans} >= {"coreset.build_coreset", "walk.gsw_color",
                                         "colorizer.verify", "schedule.grid_points"}


def test_tracing_restores_after_an_exception():
    before = _module_state()
    try:
        with tracing(Tracer()):
            raise KeyError("boom")
    except KeyError:
        pass
    after = _module_state()
    assert all(after[k] is before[k] for k in before)


def test_traced_build_reports_every_declared_layer_metric():
    tr = Tracer()
    pts = np.random.default_rng(2).uniform(-1.5, 1.5, (60, 2))
    with tracing(tr):
        kdecoreset.coreset.build_coreset(pts, target=15, seed=0)
    metrics = layer_metrics(tr, 1)
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(metrics) | {"trace.op_s", "trace.overhead_s", "trace.spans"} == declared
    assert metrics["coreset.rounds"] >= 2
    assert metrics["walk.steps"] > 0 and metrics["colorizer.cells"] > 0
    assert 0.0 < metrics["colorizer.max_grid_ratio_max"] < 1.0


def test_metric_names_and_units_are_valid():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics + BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.fullmatch(n) for n in names)
    assert all(unit.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_speed_scales_by_the_slices_and_subtracts_them(monkeypatch):
    monkeypatch.setattr(speed, "reference_slice", lambda: 2.0 * speed.SLICE_S)
    sp = speed.Speed()
    out = {}
    with sp.measure(out):
        time.sleep(0.03)
    assert abs(out["scaled"] - 0.5 * out["seconds"]) < 1e-12

    # A slice that "takes" a millisecond it never spends is subtracted from
    # the body's wall time once per slice run inside the body.
    monkeypatch.setattr(speed, "reference_slice", lambda: 0.001)
    start = time.perf_counter()
    with sp.measure(out):
        while time.perf_counter() - start < 0.5:
            pass
    inside = len(sp.slices) - 2 * speed.AROUND
    assert inside >= 5
    assert abs(out["seconds"] + 0.001 * inside - 0.5) < 0.05


def test_speed_restores_the_signal_handler_and_sets_nothing_on_error():
    before = signal.getsignal(signal.SIGALRM)
    sp = speed.Speed()
    out = {}
    try:
        with sp.measure(out):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert out == {}
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
