import json
import math

import numpy as np
import pytest

from kdecoreset.cli import (
    EXIT_COLORING,
    EXIT_IO,
    EXIT_VALIDATION,
    fit_loglog_slope,
    main,
    read_points,
)
from kdecoreset.config import ENV_PREFIX, RunConfig, resolve_config
from kdecoreset.evaluation import linf_error


def write_csv(path, pts, header=None):
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for row in pts:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@pytest.fixture
def square_csv(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(180, 2))
    path = tmp_path / "points.csv"
    write_csv(path, pts, header="x,y")
    return path, pts


def strip_timestamp(path):
    data = json.loads(path.read_text())
    data.pop("timestamp")
    return json.dumps(data, sort_keys=True)


def test_read_points_csv_and_json(tmp_path):
    pts = [[0.5, 1.5], [-1.0, 2.0]]
    csv_path = tmp_path / "p.csv"
    write_csv(csv_path, pts, header="a,b")
    json_path = tmp_path / "p.json"
    json_path.write_text(json.dumps(pts))
    assert np.allclose(read_points(csv_path), pts)
    assert np.allclose(read_points(json_path), pts)


def test_read_points_line_numbered_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="bad.csv:3"):
        read_points(path)
    path2 = tmp_path / "bad2.csv"
    path2.write_text("1.0,2.0\noops,3.0\n")
    with pytest.raises(ValueError, match="bad2.csv:2"):
        read_points(path2)


def test_read_points_dim_check(tmp_path):
    path = tmp_path / "p.csv"
    write_csv(path, [[1.0, 2.0]])
    with pytest.raises(ValueError, match="dimension"):
        read_points(path, dim=3)


def test_build_writes_artifact_and_identity_target(square_csv, tmp_path):
    path, pts = square_csv
    out = tmp_path / "coreset.json"
    code = main(["build", "--input", str(path), "--output", str(out),
                 "--target-size", "180", "--seed", "7"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == 1
    assert data["indices"] == list(range(180))
    assert data["rounds"] == []
    assert data["config"]["seed"] == 7
    assert data["input"]["sha256"]


def test_build_determinism_modulo_timestamp(square_csv, tmp_path):
    path, _ = square_csv
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    args = ["build", "--input", str(path), "--target-size", "45", "--seed", "3"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    assert d1["indices"] == d2["indices"]
    assert d1["rounds"] == d2["rounds"]
    d1.pop("timestamp"); d2.pop("timestamp")
    d1["config"].pop("output"); d2["config"].pop("output")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_build_eval_roundtrip(square_csv, tmp_path):
    path, pts = square_csv
    coreset = tmp_path / "coreset.json"
    assert main(["build", "--input", str(path), "--output", str(coreset),
                 "--target-size", "45", "--seed", "1"]) == 0
    report = tmp_path / "eval.json"
    assert main(["eval", "--input", str(path), "--coreset", str(coreset),
                 "--output", str(report), "--eval-budget", "20000"]) == 0
    data = json.loads(report.read_text())
    idx = json.loads(coreset.read_text())["indices"]
    in_process = linf_error(pts, pts[np.asarray(idx)], budget=20000)
    assert data["sup_error"] == pytest.approx(in_process.sup_error, abs=1e-12)


def test_eval_rejects_mismatched_input(square_csv, tmp_path):
    path, pts = square_csv
    coreset = tmp_path / "coreset.json"
    assert main(["build", "--input", str(path), "--output", str(coreset),
                 "--target-size", "45"]) == 0
    other = tmp_path / "other.csv"
    write_csv(other, pts + 0.5)
    assert main(["eval", "--input", str(other), "--coreset", str(coreset),
                 "--output", str(tmp_path / "r.json")]) == EXIT_VALIDATION


def test_verify_accepts_stored_coloring(square_csv, tmp_path):
    path, _ = square_csv
    coreset = tmp_path / "coreset.json"
    assert main(["build", "--input", str(path), "--output", str(coreset),
                 "--target-size", "45", "--seed", "5"]) == 0
    report = tmp_path / "verify.json"
    assert main(["verify", "--input", str(path), "--coreset", str(coreset),
                 "--output", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["passed"] is True
    assert all(r["passed"] for r in data["rounds"])


def test_verify_detects_tampering(square_csv, tmp_path):
    path, _ = square_csv
    coreset = tmp_path / "coreset.json"
    assert main(["build", "--input", str(path), "--output", str(coreset),
                 "--target-size", "90", "--seed", "5"]) == 0
    data = json.loads(coreset.read_text())
    # Flip a big block of one round's coloring to break the certificate.
    coloring = data["rounds"][0]["coloring"]
    data["rounds"][0]["coloring"] = [1] * len(coloring)
    coreset.write_text(json.dumps(data))
    assert main(["verify", "--input", str(path), "--coreset", str(coreset)]
                ) == EXIT_VALIDATION


def test_exit_codes(tmp_path, square_csv):
    path, _ = square_csv
    missing = tmp_path / "nope.csv"
    assert main(["build", "--input", str(missing), "--output",
                 str(tmp_path / "o.json"), "--target-size", "5"]) == EXIT_IO
    assert main(["build", "--input", str(path), "--output",
                 str(tmp_path / "o.json")]) == EXIT_VALIDATION  # no target
    # Impossible constants exhaust the retry budget.
    assert main(["build", "--input", str(path), "--output",
                 str(tmp_path / "o.json"), "--target-size", "45",
                 "--c1", "1e-9", "--retry-budget", "2",
                 "--grid-budget", "64"]) == EXIT_COLORING


def test_build_halving_stall_exit_code(tmp_path, capsys):
    # 400 points on a line fill ~50 cells, and a one-point cell always keeps
    # its point, so halving never gets down to 50 points.
    src = tmp_path / "line.csv"
    write_csv(src, np.linspace(-50, 50, 400).reshape(-1, 1))
    assert main(["build", "--input", str(src), "--output", str(tmp_path / "o.json"),
                 "--target-size", "50"]) == EXIT_COLORING
    assert "error: halving did not reach the target size" in capsys.readouterr().err


def test_env_and_config_file_precedence(tmp_path, monkeypatch):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seed": 11, "c1": 5.0}))
    monkeypatch.setenv(ENV_PREFIX + "SEED", "22")
    cfg = resolve_config({"seed": None, "c1": None}, config_path=str(cfg_file))
    assert cfg.seed == 22      # env beats config file
    assert cfg.c1 == 5.0       # config file beats defaults
    cfg = resolve_config({"seed": 33}, config_path=str(cfg_file))
    assert cfg.seed == 33      # flags beat env


def test_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"c9": 1}))
    with pytest.raises(ValueError, match="unknown config key"):
        resolve_config({}, config_path=str(cfg_file))


def test_runconfig_constants_strict():
    cfg = RunConfig(strict_constants=True)
    cst = cfg.constants_for(1)
    assert cst.strict and cst.grid_budget is None


def test_fit_loglog_slope_exact():
    pairs = [(2, 1.0), (4, 0.5), (8, 0.25)]
    assert fit_loglog_slope(pairs) == pytest.approx(-1.0, abs=1e-12)


def test_bench_single_full_size(square_csv, tmp_path):
    path, _ = square_csv
    out = tmp_path / "bench.json"
    assert main(["bench", "--input", str(path), "--output", str(out),
                 "--sizes", "180", "--num-seeds", "2",
                 "--eval-budget", "5000"]) == 0
    data = json.loads(out.read_text())
    for row in data["summary"]:
        assert row["median"] <= 1e-12
    assert (tmp_path / "bench.json.csv").exists()


def test_bench_uniform_square_slopes(tmp_path):
    # 20-seed scaling comparison on the uniform square: the halving method
    # must fit a log-log slope <= -0.8 while random sampling sits near the
    # -1/2 law of iid estimates.
    rng = np.random.default_rng(31415)
    pts = rng.uniform(-1, 1, size=(2048, 2))
    src = tmp_path / "square.csv"
    write_csv(src, pts)
    out = tmp_path / "bench.json"
    assert main(["bench", "--input", str(src), "--output", str(out),
                 "--sizes", "32,64,128,256", "--num-seeds", "20",
                 "--seed", "0", "--eval-budget", "40000"]) == 0
    data = json.loads(out.read_text())
    assert data["slopes"]["discrepancy"] <= -0.8
    assert -0.65 <= data["slopes"]["random"] <= -0.35
    med = {(r["method"], r["size"]): r["median"] for r in data["summary"]}
    for size in (32, 64, 128, 256):
        assert med[("discrepancy", size)] <= med[("random", size)]


def test_env_override_through_cli(square_csv, tmp_path, monkeypatch):
    path, _ = square_csv
    out = tmp_path / "c.json"
    monkeypatch.setenv(ENV_PREFIX + "SEED", "123")
    assert main(["build", "--input", str(path), "--output", str(out),
                 "--target-size", "45"]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 123


def test_bench_rows_ordered_by_size(square_csv, tmp_path):
    path, _ = square_csv
    out = tmp_path / "bench2.json"
    assert main(["bench", "--input", str(path), "--output", str(out),
                 "--sizes", "45,90", "--num-seeds", "2",
                 "--eval-budget", "5000"]) == 0
    data = json.loads(out.read_text())
    for method in ("discrepancy", "random"):
        sizes = [r["size"] for r in data["summary"] if r["method"] == method]
        assert sizes == sorted(sizes)
        meds = [r["median"] for r in data["summary"] if r["method"] == method]
        assert all(m >= 0 for m in meds)
