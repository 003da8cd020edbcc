import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdecoreset.cli import (
    EXIT_COLORING,
    EXIT_IO,
    EXIT_VALIDATION,
    ValidationError,
    _check_records,
    _field,
    _int_array,
    _parser,
    build_parser,
    file_sha256,
    fit_loglog_slope,
    main,
    read_points,
)
from kdecoreset import colorizer
from kdecoreset.colorizer import partition, recheck, verify
from kdecoreset.config import ENV_PREFIX, RunConfig, resolve_config
from kdecoreset.evaluation import linf_error
from kdecoreset.schedule import N_MIN, Constants, build_schedule, default_constants

import naive
from tracing import traced_peak


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


def test_read_points_csv_errors_name_the_physical_line(tmp_path, capsys):
    path = tmp_path / "p.csv"
    out = str(tmp_path / "o.json")
    cases = [
        # The quoted field spans lines 2-3, so the ragged row is on line 4.
        ('x,y\n"1\n",2\n3\n', "p.csv:4: row has 1 columns, expected 2"),
        ('1,2\n"3\n",4\nz,5\n', "p.csv:4: non-numeric value in row"),
        # csv.reader's field size limit is 131072 characters.
        ("1,2\n3," + "x" * 140000 + "\n", "p.csv:2: field larger than field limit"),
    ]
    for text, message in cases:
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            read_points(path)
        assert main(["build", "--input", str(path), "--output", out,
                     "--target-size", "1"]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err


def test_read_points_csv_with_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("\ufeff0.5,1.5\n2.0,3.0\n", encoding="utf-8")
    assert read_points(path).tolist() == [[0.5, 1.5], [2.0, 3.0]]
    path.write_text("\ufeffx,y\r\n0.5,1.5\r\n", encoding="utf-8")
    assert read_points(path).tolist() == [[0.5, 1.5]]


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["-0.0", "0", "1e400", "-1e-400", "nan", "-Infinity", "+1.5",
                     ".5", "1.", "1E5", "00012"]),
)
ODD_FIELDS = st.sampled_from(["", " ", "x", "1_0", '"2.5"', '"1,5"', "#3", "0x10",
                              "\u0661", "1 2", "nan(1)", "\xa07"])


@st.composite
def csv_texts(draw):
    """CSV text: in half the draws a numeric table (with padded fields,
    blank rows, a header or a byte order mark), in the others also odd
    fields, comment-like and ragged rows, trailing commas and mixed line
    ends."""
    dirty = draw(st.booleans())
    width = draw(st.integers(1, 4))

    def field():
        odd = dirty and draw(st.integers(0, 9)) == 0
        text = draw(ODD_FIELDS if odd else NUMBERS)
        return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " ", "\t"]))

    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["x,y", "x", "# header", '"a","b"', "a,b,c,"])))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", " , "])))
        elif dirty and kind == 1:
            lines.append(draw(st.sampled_from(["#c", "x,y", '"1\n2",3'])))
        else:
            w = width + (draw(st.integers(-1, 1)) if dirty and kind == 2 else 0)
            lines.append(",".join(field() for _ in range(max(w, 1)))
                         + ("," if dirty and kind == 3 else ""))
    ends = ["\n", "\r\n", "\r"]
    eol = draw(st.sampled_from(ends))
    text = "".join(line + (draw(st.sampled_from(ends)) if dirty else eol) for line in lines)
    if lines and draw(st.booleans()):
        text = text[:-1].rstrip("\r")
    return ("\ufeff" if draw(st.booleans()) else "") + text


@settings(max_examples=400, deadline=None)
@given(text=csv_texts())
def test_read_points_csv_matches_loop_reference(tmp_path_factory, text):
    # numpy's C reader and the csv loop must agree: the same float64 bits
    # on every file the loop reads, the same message on every file it rejects.
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        expected = naive.read_csv_points(path)
    except ValueError as exc:
        with pytest.raises(ValidationError) as info:
            read_points(path)
        assert str(info.value) == str(exc)
    else:
        got = read_points(path)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_read_points_json_coordinates_must_be_numbers(tmp_path, capsys):
    path = tmp_path / "p.json"
    cases = [
        ("[[1, null], [2, 3]]", "entry 0 coordinate 1 is not a number"),
        ("[[true, 1], [2, 3]]", "entry 0 coordinate 0 is not a number"),
        ("[[1, 2], [3, [4]]]", "entry 1 coordinate 1 is not a number"),
        ('[[1, 2], ["3", 4]]', "entry 1 coordinate 0 is not a number"),
        ("[[1, 2], [3, {}]]", "entry 1 coordinate 1 is not a number"),
        ("[[1, " + "9" * 400 + "]]", "non-finite coordinate"),
    ]
    for text, message in cases:
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            read_points(path)
        assert main(["build", "--input", str(path), "--output", str(tmp_path / "o.json"),
                     "--target-size", "1"]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
    path.write_text("[[1, 2.5], [-3, 4e-1]]")
    assert read_points(path).tolist() == [[1.0, 2.5], [-3.0, 0.4]]


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


def test_build_reproduces_from_its_artifact_config(square_csv, tmp_path):
    # The artifact's config, nulls included, is a valid --config file that
    # rebuilds the same artifact.
    path, _ = square_csv
    first, second = tmp_path / "c1.json", tmp_path / "c2.json"
    assert main(["build", "--input", str(path), "--output", str(first),
                 "--target-size", "45", "--seed", "3"]) == 0
    d1 = json.loads(first.read_text())
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(d1["config"]))
    assert None in d1["config"].values()
    assert main(["build", "--config", str(cfg_file), "--output", str(second)]) == 0
    d2 = json.loads(second.read_text())
    for d in (d1, d2):
        d.pop("timestamp")
        d["config"].pop("output")
    assert d1 == d2


def test_build_eval_roundtrip(square_csv, tmp_path, monkeypatch, capsys):
    path, pts = square_csv
    coreset = tmp_path / "coreset.json"
    assert main(["build", "--input", str(path), "--output", str(coreset),
                 "--target-size", "45", "--seed", "1"]) == 0
    report = tmp_path / "eval.json"
    # eval hashes its input once, for the check and the report alike.
    digests = []

    def counted(p):
        digests.append(file_sha256(p))
        return digests[-1]

    monkeypatch.setattr("kdecoreset.cli.file_sha256", counted)
    capsys.readouterr()
    assert main(["eval", "--input", str(path), "--coreset", str(coreset),
                 "--output", str(report), "--eval-budget", "20000"]) == 0
    data = json.loads(report.read_text())
    assert len(digests) == 1
    assert data["input"]["sha256"] == digests[0] == json.loads(coreset.read_text())["input"]["sha256"]
    idx = json.loads(coreset.read_text())["indices"]
    in_process = linf_error(pts, pts[np.asarray(idx)], budget=20000)
    assert data["sup_error"] == pytest.approx(in_process.sup_error, abs=1e-12)
    assert data["n_queries"] == in_process.n_queries == in_process.grid.count()
    assert 0 < data["n_evaluated"] == in_process.n_evaluated < data["n_queries"]
    assert (f"summed {data['n_evaluated']} of {data['n_queries']} queries"
            in capsys.readouterr().out)


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


def test_verify_detects_tampering(square_csv, tmp_path, capsys):
    path, _ = square_csv
    coreset = tmp_path / "coreset.json"
    assert main(["build", "--input", str(path), "--output", str(coreset),
                 "--target-size", "90", "--seed", "5"]) == 0
    original = coreset.read_text()

    def flip_coloring(data):
        # Flip a big block of one round's coloring to break the certificate.
        data["rounds"][0]["coloring"] = [1] * len(data["rounds"][0]["coloring"])

    def replace_indices(data):
        # Every round still verifies; only the final index set is swapped.
        data["indices"] = list(range(len(data["indices"])))

    def shift(*keys):
        # Move one recorded integer summary off the value verify re-derives.
        def tamper(data):
            obj = data
            for key in keys[:-1]:
                obj = obj[key]
            obj[keys[-1]] += 1
        tamper.__name__ = "/".join(map(str, keys))
        return tamper

    for tamper, where in [(flip_coloring, ""), (replace_indices, ""),
                          (shift("rounds", 0, "size_before"), "round 0"),
                          (shift("rounds", 0, "size_after"), "round 0"),
                          (shift("size"), "'size'"),
                          (shift("rounds", 0, "cells", 0, "imbalance_before_flip"),
                           "round 0 cell 0")]:
        data = json.loads(original)
        tamper(data)
        coreset.write_text(json.dumps(data))
        assert main(["verify", "--input", str(path), "--coreset", str(coreset)]
                    ) == EXIT_VALIDATION, tamper.__name__
        assert where in capsys.readouterr().err, tamper.__name__


def test_verify_zero_round_artifact(square_csv, tmp_path):
    path, _ = square_csv
    coreset = tmp_path / "coreset.json"
    assert main(["build", "--input", str(path), "--output", str(coreset),
                 "--target-size", "180"]) == 0
    assert json.loads(coreset.read_text())["rounds"] == []
    assert main(["verify", "--input", str(path), "--coreset", str(coreset)]) == 0


@pytest.fixture
def spread_artifact(tmp_path):
    # 240 normal(0, 2) points fill 28 cells; several carry balance flips.
    pts = np.random.default_rng(3).normal(0, 2, size=(240, 2))
    path = tmp_path / "spread.csv"
    write_csv(path, pts)
    coreset = tmp_path / "spread.json"
    assert main(["build", "--input", str(path), "--output", str(coreset),
                 "--target-size", "120"]) == 0
    return path, coreset


def test_verify_report_ratios_are_the_builds(spread_artifact, tmp_path):
    # Re-verification recomputes each round's worst ratio over its cells;
    # it must be the build's own numbers, bit for bit.
    path, coreset = spread_artifact
    report = tmp_path / "verify.json"
    assert main(["verify", "--input", str(path), "--coreset", str(coreset),
                 "--output", str(report)]) == 0
    built = json.loads(coreset.read_text())["rounds"]
    checked = json.loads(report.read_text())["rounds"]
    assert len(checked) == len(built) > 0
    for rnd, check in zip(built, checked):
        worst = max(cell["max_grid_ratio"] for cell in rnd["cells"])
        assert check["max_grid_ratio"].hex() == worst.hex()


@pytest.mark.parametrize("flags", [["--c1", "2000"], ["--grid-budget", "9"]],
                         ids=["c1", "grid_budget"])
def test_verify_rechecks_the_builds_constants(tmp_path, monkeypatch, flags):
    # verify takes c0, c1, c_big and the grid budget from the config the
    # artifact embeds; its own flags, environment and config file do not
    # enter, so it reports the build's per-round ratios bit for bit.
    pts = np.random.default_rng(3).normal(0, 2, size=(240, 2))
    path = tmp_path / "spread.csv"
    write_csv(path, pts)
    coreset = tmp_path / "spread.json"
    assert main(["build", "--input", str(path), "--output", str(coreset),
                 "--target-size", "60"] + flags) == 0
    artifact = json.loads(coreset.read_text())
    built = [max(cell["max_grid_ratio"] for cell in rnd["cells"]).hex()
             for rnd in artifact["rounds"]]
    assert len(built) > 1
    keys = ("c0", "c1", "c_big", "strict_constants", "grid_budget")
    built_config = {k: artifact["config"][k] for k in keys}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"c1": 1e-9, "grid_budget": 1}))
    report = tmp_path / "verify.json"

    def check(*extra):
        assert main(["verify", "--input", str(path), "--coreset", str(coreset),
                     "--output", str(report), *extra]) == 0
        checked = json.loads(report.read_text())
        assert [r["max_grid_ratio"].hex() for r in checked["rounds"]] == built
        # The report records the constants it checked under.
        assert {k: checked["config"][k] for k in keys} == built_config

    check()
    check("--config", str(cfg_file))
    monkeypatch.setenv(ENV_PREFIX + "C1", "1e-9")
    monkeypatch.setenv(ENV_PREFIX + "GRID_BUDGET", "1")
    check()
    assert built_config["c1" if "--c1" in flags else "grid_budget"] == float(flags[1])


def test_verify_rejects_malformed_config(spread_artifact, capsys):
    path, coreset = spread_artifact
    original = coreset.read_text()

    def set_config(value):
        def tamper(data):
            data["config"] = value
        return tamper

    for value in (None, [1], {"c1": [1]}, {"c1": -1.0}, {"strict_constants": "maybe"},
                  {"grid_budget": float("inf")}, {"grid_budget": 9.7}, {"grid_budget": True},
                  {"c1": True}, {"c_big": "many"}, {"c0": 10**400}):
        assert verify_tampered(path, coreset, original, set_config(value)
                               ) == EXIT_VALIDATION, value
        assert "'config'" in capsys.readouterr().err, value
    # Keys verify does not read are not checked.
    assert verify_tampered(path, coreset, original,
                           set_config({"target_size": "x", "sizes": 7})) == 0


def test_verify_rechecks_recorded_constants_after_a_default_changes(
        spread_artifact, tmp_path, monkeypatch):
    # A default-constant build records the constants it resolved, not null,
    # so a later change to a default does not change what verify rechecks.
    path, coreset = spread_artifact
    artifact = json.loads(coreset.read_text())
    recorded = {k: artifact["config"][k] for k in ("c0", "c1", "c_big", "grid_budget")}
    assert recorded == asdict(default_constants(2))
    built = [max(cell["max_grid_ratio"] for cell in rnd["cells"]).hex()
             for rnd in artifact["rounds"]]
    monkeypatch.setattr("kdecoreset.schedule._BASE_C1", 1e-6)
    report = tmp_path / "verify.json"
    assert main(["verify", "--input", str(path), "--coreset", str(coreset),
                 "--output", str(report)]) == 0
    assert [r["max_grid_ratio"].hex() for r in json.loads(report.read_text())["rounds"]
            ] == built


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("strict", [False, True])
def test_recorded_constants_resolve_to_themselves(d, strict):
    cfg = RunConfig(c0=30.0, c1=7.0, strict_constants=strict)
    constants = cfg.constants_for(d)
    again = resolve_config({**asdict(constants), "strict_constants": strict}, environ={})
    assert again.constants_for(d) == constants
    assert (constants.grid_budget is None) == strict


def test_eval_and_verify_reject_other_schema_versions(spread_artifact, capsys):
    path, coreset = spread_artifact
    original = coreset.read_text()
    for value in (99, 0, "1", True, None):
        data = json.loads(original)
        data["schema_version"] = value
        coreset.write_text(json.dumps(data))
        for command in ("eval", "verify"):
            assert main([command, "--input", str(path), "--coreset", str(coreset)]
                        ) == EXIT_VALIDATION, (command, value)
            assert "schema_version" in capsys.readouterr().err, (command, value)


def verify_tampered(path, coreset, original, tamper):
    data = json.loads(original)
    tamper(data)
    coreset.write_text(json.dumps(data))
    return main(["verify", "--input", str(path), "--coreset", str(coreset)])


def test_verify_names_the_failing_cells(spread_artifact, capsys):
    # Lower the recorded c1 to just below the build's largest round-0 ratio
    # times c1: each cell whose recorded ratio exceeds that cut now fails,
    # and verify names exactly those, with their ratio and imbalance.
    path, coreset = spread_artifact
    original = coreset.read_text()
    data = json.loads(original)
    ratios = sorted({c["max_grid_ratio"] for c in data["rounds"][0]["cells"]})
    cut = (ratios[-1] + ratios[-2]) / 2
    expected = [f"round {rno} cell {cno}: FAIL (ratio {c['max_grid_ratio'] / cut:.4g}, "
                f"imbalance {c['imbalance_before_flip']})"
                for rno, rnd in enumerate(data["rounds"])
                for cno, c in enumerate(rnd["cells"]) if c["max_grid_ratio"] > cut]
    assert expected

    def lower_c1(data):
        data["config"]["c1"] *= cut

    assert verify_tampered(path, coreset, original, lower_c1) == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "cell" in line] == expected
    assert "round 0: FAIL" in out


def test_verify_rejects_bad_flipped_positions(spread_artifact, capsys):
    path, coreset = spread_artifact
    original = coreset.read_text()
    cells = json.loads(original)["rounds"][0]["cells"]
    cno = next(i for i, c in enumerate(cells) if c["flipped"] == 1)
    pos = cells[cno]["flipped_positions"][0]

    def set_positions(positions, count=None, cell=cno):
        def tamper(data):
            meta = data["rounds"][0]["cells"][cell]
            meta["flipped_positions"] = positions
            meta["flipped"] = len(positions) if count is None else count
        return tamper

    assert main(["verify", "--input", str(path), "--coreset", str(coreset)]) == 0
    for positions, count in [([10**6], None), ([-1], None), ([pos, pos], None),
                             ([], 1), ([pos], 2), ([0.5], None), ([True], None)]:
        code = verify_tampered(path, coreset, original, set_positions(positions, count))
        assert code == EXIT_VALIDATION, (positions, count)
        assert f"round 0 cell {cno}" in capsys.readouterr().err
    # A position just outside the last cell with one flip, inside the
    # round's set: the cells with flips before it keep their own.
    last = max(i for i, c in enumerate(cells) if c["flipped"] == 1)
    size = cells[last]["size"]
    assert any(c["flipped"] for c in cells[:last])
    code = verify_tampered(path, coreset, original, set_positions([size], cell=last))
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (f"error: round 0 cell {last}: 'flipped_positions' "
                                       f"has an entry outside [0, {size})\n")


def test_verify_rejects_flips_beyond_the_balance_flips(spread_artifact, capsys):
    # Negate one more +1 and one more -1 member of a cell of the last round
    # and record both as flips: undoing the flips still gives the certified
    # coloring and the balance is unchanged, but the kept half is one the
    # build never produced. Only the balance flips of the accepted coloring
    # may be recorded.
    path, coreset = spread_artifact
    points = read_points(str(path))
    data = json.loads(coreset.read_text())
    rno = len(data["rounds"]) - 1
    rnd = data["rounds"][rno]
    current = np.asarray(data["rounds"][rno - 1]["kept"] if rno else range(len(points)))
    coloring = np.asarray(rnd["coloring"])
    for cno, cell in enumerate(partition(points[current])):
        meta = rnd["cells"][cno]
        free = [p for p in range(cell.members.size) if p not in meta["flipped_positions"]]
        extra = [next((p for p in free if coloring[cell.members[p]] == s), None)
                 for s in (1, -1)]
        if None not in extra:
            break
    coloring[cell.members[extra]] *= -1
    meta["flipped_positions"] = sorted(meta["flipped_positions"] + extra)
    meta["flipped"] = len(meta["flipped_positions"])
    rnd["coloring"] = coloring.tolist()
    rnd["kept"] = data["indices"] = current[coloring == 1].tolist()
    coreset.write_text(json.dumps(data))
    assert main(["verify", "--input", str(path), "--coreset", str(coreset)]
                ) == EXIT_VALIDATION
    assert f"round {rno} cell {cno}" in capsys.readouterr().err


def test_verify_names_the_first_bad_record_among_merged_small_cells(spread_artifact, capsys):
    # Cells below N_MIN share one schedule, so a round's small cells are
    # checked as one stack and its records' flips in one pass; a wrong
    # record still fails with the cell-by-cell message, naming the first
    # wrong cell.
    path, coreset = spread_artifact
    original = coreset.read_text()
    rno = len(json.loads(original)["rounds"]) - 1
    cells = json.loads(original)["rounds"][rno]["cells"]
    small = [cno for cno, c in enumerate(cells) if c["size"] < N_MIN and c["flipped"]]
    assert len(small) >= 2 and sum(c["size"] < N_MIN for c in cells) > len(small)
    first, later = small[0], small[-1]
    flips = "flipped positions are not the accepted coloring's balance flips"
    imbalance = "imbalance_before_flip is not the accepted coloring's sum"

    def tamper(*edits):
        def apply(data):
            for cno, key in edits:
                meta = data["rounds"][rno]["cells"][cno]
                if key == "flipped_positions":
                    # The same flip twice undoes to the same coloring once.
                    meta[key] = meta[key][:1] * 2
                    meta["flipped"] = 2
                else:
                    meta[key] += 2
        return apply

    for edits, cno, message in [
            ([(later, "flipped_positions")], later, flips),
            ([(later, "imbalance_before_flip")], later, imbalance),
            ([(later, "flipped_positions"), (first, "imbalance_before_flip")], first, imbalance),
            ([(later, "imbalance_before_flip"), (first, "flipped_positions")], first, flips)]:
        assert verify_tampered(path, coreset, original, tamper(*edits)) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: round {rno} cell {cno}: {message}\n", edits


def test_verify_names_the_round_of_a_coloring_entry_other_than_one(spread_artifact, capsys):
    # Set an unflipped -1 of a last-round cell with imbalance 0 or -1 to 0,
    # and its imbalance_before_flip to the sum that gives, so that the
    # cell's records agree with the entry (and to 3, where they do not):
    # verify prints the rounds before and names the round, where it once
    # failed with no round named and no round printed.
    path, coreset = spread_artifact
    points = read_points(str(path))
    original = coreset.read_text()
    data = json.loads(original)
    rno = len(data["rounds"]) - 1
    coloring = np.asarray(data["rounds"][rno]["coloring"])
    cells = partition(points[data["rounds"][rno - 1]["kept"]])
    cno, member = next((cno, m) for cno, (meta, cell) in enumerate(zip(
        data["rounds"][rno]["cells"], cells)) if meta["imbalance_before_flip"] in (0, -1)
        and not meta["flipped"] for m in cell.members if coloring[m] == -1)
    assert rno > 0
    for value in (0, 3, 10**30):
        def tamper(data):
            data["rounds"][rno]["coloring"][member] = value
            data["rounds"][rno]["cells"][cno]["imbalance_before_flip"] += value + 1
        assert verify_tampered(path, coreset, original, tamper) == EXIT_VALIDATION, value
        captured = capsys.readouterr()
        assert captured.err == f"error: round {rno}: coloring entries must be -1 or +1\n"
        assert [line.split(":")[0] for line in captured.out.splitlines()[1:]] == [
            f"round {r}" for r in range(rno)]


def test_verify_rejects_an_empty_round(spread_artifact, capsys):
    # No build halves a set of no points; verify names such a round, where
    # it once failed on an IndexError.
    path, coreset = spread_artifact

    def empty_first_round(data):
        data["presample_indices"] = []
        data["rounds"][0].update(coloring=[], kept=[], size_before=0, size_after=0)

    assert verify_tampered(path, coreset, coreset.read_text(), empty_first_round
                           ) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: round 0: the round's set is empty\n"


def test_verify_rejects_a_repeated_presample_index(tmp_path, capsys):
    # A build draws its presample without replacement. A presample that
    # lists point 0 twice, halved by a +1/-1 coloring of the two copies,
    # passes every round's check, so only the repeat can reject it.
    pts = np.random.default_rng(7).uniform(-1, 1, size=(40, 2))
    path, coreset = tmp_path / "points.csv", tmp_path / "coreset.json"
    write_csv(path, pts)
    assert main(["build", "--input", str(path), "--output", str(coreset),
                 "--target-size", "20"]) == 0
    [cell] = partition(pts[[0, 0]])

    def repeat_point_0(data):
        data.update(presample_indices=[0, 0], indices=[0], size=1)
        data["rounds"] = [{**data["rounds"][0], "coloring": [1, -1], "kept": [0],
                           "size_before": 2, "size_after": 1,
                           "cells": [{**data["rounds"][0]["cells"][0], "center": list(cell.center),
                                      "size": 2, "flipped": 0, "flipped_positions": [],
                                      "imbalance_before_flip": 0}]}]

    assert verify_tampered(path, coreset, coreset.read_text(), repeat_point_0
                           ) == EXIT_VALIDATION
    assert capsys.readouterr().err == (f"error: {coreset}: 'presample_indices' "
                                       "repeats an entry\n")


def records_cell_by_cell(rno, centers, metas, signs, sizes):
    """The round's record checks one cell at a time, each cell's checks in
    order: the accepted colorings as a list, or the first failure's
    message."""
    accepted, start = list(signs), 0
    try:
        for cno, (center, meta, size) in enumerate(zip(centers, metas, sizes)):
            where = f"round {rno} cell {cno}"
            if (_field(meta, "center", list, where) != center
                    or _field(meta, "size", int, where) != size):
                raise ValidationError(f"{where}: center or size does not match input")
            flipped = set(_int_array(meta, "flipped_positions", where, size).tolist())
            part = accepted[start:start + size]
            for p in flipped:
                part[p] = -part[p]
            accepted[start:start + size] = part
            start += size
            total = sum(part)
            majority = [p for p, s in enumerate(part) if s == (1 if total > 0 else -1)]
            own = majority[:abs(total) // 2] if abs(total) >= 2 else []
            if (meta["flipped_positions"] != own
                    or _field(meta, "flipped", int, where) != len(own)):
                raise ValidationError(f"{where}: flipped positions are not the "
                                      "accepted coloring's balance flips")
            if _field(meta, "imbalance_before_flip", int, where) != total:
                raise ValidationError(f"{where}: imbalance_before_flip is not the "
                                      "accepted coloring's sum")
    except ValidationError as exc:
        return str(exc)
    return accepted


def with_positions(meta, positions):
    return {**meta, "flipped_positions": positions, "flipped": len(positions)}


# Ways to spoil one cell's record (or none); spoiled positions come with a
# matching count, so that only the positions rule can catch them.
SPOILS = {
    "none": lambda meta: meta,
    "not an object": lambda meta: [meta],
    "center": lambda meta: {**meta, "center": [meta["center"][0] + 2.0]},
    "size": lambda meta: {**meta, "size": meta["size"] + 1},
    "size bool": lambda meta: {**meta, "size": True},
    "no size": lambda meta: {k: v for k, v in meta.items() if k != "size"},
    "positions doubled": lambda meta: with_positions(meta, meta["flipped_positions"][:1] * 2),
    "positions reversed": lambda meta: with_positions(meta, meta["flipped_positions"][::-1]),
    "position added": lambda meta: with_positions(meta, meta["flipped_positions"] + [0]),
    "position dropped": lambda meta: with_positions(meta, meta["flipped_positions"][1:]),
    "position outside": lambda meta: with_positions(meta, [meta["size"]]),
    "position negative": lambda meta: with_positions(meta, [-1]),
    "position float": lambda meta: with_positions(meta, [0.0]),
    "position huge": lambda meta: with_positions(meta, [10**30]),
    "position true": lambda meta: with_positions(meta, [True]),
    "positions not a list": lambda meta: {**meta, "flipped_positions": 0},
    "flipped": lambda meta: {**meta, "flipped": meta["flipped"] + 1},
    "flipped string": lambda meta: {**meta, "flipped": str(meta["flipped"])},
    "imbalance": lambda meta: {**meta, "imbalance_before_flip": meta["imbalance_before_flip"] + 2},
    "imbalance float": lambda meta: {**meta, "imbalance_before_flip": 0.5},
    "no imbalance": lambda meta: {k: v for k, v in meta.items() if k != "imbalance_before_flip"},
}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=15), min_size=1,
                max_size=8),
       st.data())
def test_record_checks_match_the_cell_by_cell_checks(colorings, data):
    # Records built from accepted colorings, then spoiled at random in
    # random cells: the round's checks accept exactly what the checks one
    # cell at a time accept, and otherwise fail with the same message.
    sizes = [len(c) for c in colorings]
    centers = [[2.0 * cno] for cno in range(len(sizes))]
    metas, signs = [], []
    for center, coloring in zip(centers, colorings):
        total = sum(coloring)
        majority = [p for p, s in enumerate(coloring) if s == (1 if total > 0 else -1)]
        flips = majority[:abs(total) // 2] if abs(total) >= 2 else []
        metas.append({"center": center, "size": len(coloring), "flipped_positions": flips,
                      "flipped": len(flips), "imbalance_before_flip": total})
        signs += [-s if p in flips else s for p, s in enumerate(coloring)]
    spoil = st.one_of(st.just("none"), st.sampled_from(sorted(SPOILS)))
    spoils = data.draw(st.lists(spoil, min_size=len(metas), max_size=len(metas)))
    metas = [SPOILS[spoil](meta) for spoil, meta in zip(spoils, metas)]
    expected = records_cell_by_cell(2, centers, metas, signs, sizes)
    # One round of 1-D points, each cell's at its center: partition gives
    # back these cells, their members in stored order.
    points = np.repeat([center for [center] in centers], sizes)[:, None]
    kept = np.flatnonzero(np.asarray(signs) == 1)
    [(cells, owned, _, runs)] = recheck(points, [(signs, kept, [
        meta.get("flipped_positions") if isinstance(meta, dict) else None for meta in metas])])
    try:
        _check_records(2, metas, cells, owned, runs)
    except ValidationError as exc:
        got = str(exc)
    else:
        # The records hold, so the accepted colorings are the stored signs
        # with the recorded flips undone.
        got, start = list(signs), 0
        for meta, size in zip(metas, sizes):
            for p in meta["flipped_positions"]:
                got[start + p] = -got[start + p]
            start += size
    assert got == expected
    if set(spoils) == {"none"}:
        assert got == [s for coloring in colorings for s in coloring]


def test_verify_requires_stored_colorings(spread_artifact, tmp_path, capsys):
    path, _ = spread_artifact
    bare = tmp_path / "bare.json"
    assert main(["build", "--input", str(path), "--output", str(bare),
                 "--target-size", "120", "--no-colorings"]) == 0
    assert all("coloring" not in rnd for rnd in json.loads(bare.read_text())["rounds"])
    assert main(["verify", "--input", str(path), "--coreset", str(bare)]
                ) == EXIT_VALIDATION
    assert "no stored colorings" in capsys.readouterr().err


def verify_round_by_round(path, coreset):
    """What `kdecoreset verify` prints and reports, from one round at a
    time with each cell checked alone by colorizer.verify: (stdout lines,
    report rounds, passed, error message or None). A round whose records
    are malformed ends it with records_cell_by_cell's message."""
    points = read_points(str(path))
    data = json.loads(coreset.read_text())
    constants = Constants(*(data["config"][k] for k in ("c0", "c1", "c_big", "grid_budget")))
    lines = [f"constants from artifact: c0 {constants.c0:.6g}, c1 {constants.c1:.6g}, "
             f"c_big {constants.c_big:.6g}, grid budget {constants.grid_budget}"]
    rounds, current = [], np.arange(len(points))
    for rno, rnd in enumerate(data["rounds"]):
        cells = partition(points[current])
        members = np.concatenate([c.members for c in cells])
        sizes = [c.members.size for c in cells]
        accepted = records_cell_by_cell(rno, [list(c.center) for c in cells], rnd["cells"],
                                        np.asarray(rnd["coloring"])[members].tolist(), sizes)
        if isinstance(accepted, str):
            return lines, rounds, False, accepted
        checked = [verify(points[current][c.members] - np.asarray(c.center), signs,
                          build_schedule(c.members.size, points.shape[1], constants))
                   for c, signs in zip(cells, np.split(accepted, np.cumsum(sizes)[:-1]))]
        worst = max(ratio for _, ratio, _ in checked)
        kept = current[np.asarray(rnd["coloring"]) == 1]
        ok = all(passed for passed, _, _ in checked) and kept.tolist() == rnd["kept"]
        rounds.append({"round": rno, "passed": ok, "max_grid_ratio": worst})
        lines.append(f"round {rno}: {'pass' if ok else 'FAIL'} (max ratio {worst:.4g})")
        lines += [f"round {rno} cell {cno}: FAIL (ratio {ratio:.4g}, imbalance {imbalance})"
                  for cno, (passed, ratio, imbalance) in enumerate(checked) if not passed]
        current = np.asarray(rnd["kept"])
    return lines, rounds, all(r["passed"] for r in rounds), None


def test_verify_output_matches_the_round_by_round_reference(spread_artifact, tmp_path, capsys):
    # verify checks the cells of all rounds in one pass; what it prints and
    # reports must still be what checking one round at a time gives, line
    # for line: with a lowered c1 that fails cells in both rounds, and with
    # a malformed record in the second round, which stops verify after the
    # first round's lines.
    path, coreset = spread_artifact
    data = json.loads(coreset.read_text())
    assert len(data["rounds"]) == 2
    cut = 0.999 * min(max(c["max_grid_ratio"] for c in rnd["cells"]) for rnd in data["rounds"])
    data["config"]["c1"] *= cut
    tightened = json.dumps(data)
    data["rounds"][1]["cells"][3]["imbalance_before_flip"] += 2
    for artifact in (tightened, json.dumps(data)):
        coreset.write_text(artifact)
        report = tmp_path / "report.json"
        report.unlink(missing_ok=True)
        lines, rounds, passed, error = verify_round_by_round(path, coreset)
        assert main(["verify", "--input", str(path), "--coreset", str(coreset),
                     "--output", str(report)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out.splitlines() == lines
        if error is None:
            assert sum("FAIL (ratio" in line for line in lines) >= 2
            assert {line.split()[1] for line in lines if "FAIL (ratio" in line} == {"0", "1"}
            assert captured.err == "error: stored coreset failed re-verification\n"
            written = json.loads(report.read_text())
            assert written["rounds"] == rounds and written["passed"] is passed is False
        else:
            assert error.startswith("round 1 cell 3") and len(rounds) == 1
            assert captured.err == f"error: {error}\n"
            assert not report.exists()


def test_verify_builds_one_table_set_per_grid_shape_of_all_rounds(spread_artifact, monkeypatch,
                                                                 capsys):
    # verify stacks the cells of every round by grid shape: it builds one
    # LatticeTables per grid shape of those cells, summed on every level,
    # not one per level, cell size, round or block of sums.
    path, coreset = spread_artifact
    data = json.loads(coreset.read_text())
    constants = Constants(*(data["config"][k] for k in ("c0", "c1", "c_big", "grid_budget")))
    shapes = set()
    for rnd in data["rounds"]:
        for cell in rnd["cells"]:
            schedule = build_schedule(cell["size"], 2, constants)
            shapes.add(tuple(grid.axes()[0].size for grid, _ in schedule.verification_levels))
    built = []
    tables = colorizer.LatticeTables
    monkeypatch.setattr(colorizer, "LatticeTables",
                        lambda *args, **kwargs: built.append(1) or tables(*args, **kwargs))
    assert main(["verify", "--input", str(path), "--coreset", str(coreset)]) == 0
    assert len(built) == len(shapes)


def test_verify_memory_bounded_on_spread_data(tmp_path, capsys):
    # 4096 normal(0, 5) points halved to 512 (the benchmark's spread_cells
    # artifact): 808 cells in 4 rounds, 663 of them below N_MIN, all of one
    # grid shape and so checked as one stack, its sums taken in blocks of
    # at most 6 MB: verify's traced peak is 4.4 MB (3.7 MB in stack chunks
    # with a LatticeTables each; 5.9 MB with a round's small cells in one
    # unblocked stack).
    path = tmp_path / "spread.csv"
    write_csv(path, np.random.default_rng(0).normal(0.0, 5.0, (4096, 2)))
    coreset = tmp_path / "spread.json"
    assert main(["build", "--input", str(path), "--output", str(coreset),
                 "--target-size", "512", "--seed", "0"]) == 0
    args = ["verify", "--input", str(path), "--coreset", str(coreset)]
    code, peak = traced_peak(lambda: main(args))
    assert code == 0
    assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"
    assert "round 3: pass" in capsys.readouterr().out


def test_verify_checks_cell_center_and_size(spread_artifact, capsys):
    path, coreset = spread_artifact
    original = coreset.read_text()

    def set_cell0(key, value):
        def tamper(data):
            data["rounds"][0]["cells"][0][key] = value
        return tamper

    for key, value in [("center", [99, 99]), ("size", 12345), ("center", None)]:
        assert verify_tampered(path, coreset, original, set_cell0(key, value)
                               ) == EXIT_VALIDATION, key
        assert "round 0 cell 0" in capsys.readouterr().err


def test_malformed_artifact_exit_codes(spread_artifact, capsys):
    path, coreset = spread_artifact
    original = coreset.read_text()

    def drop_indices(data):
        del data["indices"]

    def drop_kept(data):
        del data["rounds"][1]["kept"]

    def drop_cells(data):
        del data["rounds"][0]["cells"]

    def null_rounds(data):
        data["rounds"] = None

    def null_coloring(data):
        data["rounds"][0]["coloring"] = None

    def drop_sha256(data):
        del data["input"]["sha256"]

    def null_sha256(data):
        data["input"]["sha256"] = None

    def zero_sha256(data):
        data["input"]["sha256"] = 0

    def drop_input(data):
        del data["input"]

    for tamper in (drop_indices, drop_kept, drop_cells, null_rounds, null_coloring,
                   drop_sha256, null_sha256, zero_sha256, drop_input):
        assert verify_tampered(path, coreset, original, tamper
                               ) == EXIT_VALIDATION, tamper.__name__
        assert "missing or malformed" in capsys.readouterr().err, tamper.__name__
    # Both commands check the input against the recorded hash, so neither
    # takes an artifact that records none.
    for tamper in (drop_sha256, null_sha256, zero_sha256, drop_input):
        data = json.loads(original)
        tamper(data)
        coreset.write_text(json.dumps(data))
        assert main(["eval", "--input", str(path), "--coreset", str(coreset)]
                    ) == EXIT_VALIDATION, tamper.__name__
        assert "missing or malformed" in capsys.readouterr().err, tamper.__name__
    # eval reads only the indices.
    data = json.loads(original)
    drop_indices(data)
    coreset.write_text(json.dumps(data))
    assert main(["eval", "--input", str(path), "--coreset", str(coreset)]) == EXIT_VALIDATION
    assert "missing or malformed 'indices'" in capsys.readouterr().err
    # Repeated indices are rejected where eval and verify read them.
    data = json.loads(original)
    data["indices"] = [data["indices"][0]] * len(data["indices"])
    coreset.write_text(json.dumps(data))
    for command in ("eval", "verify"):
        assert main([command, "--input", str(path), "--coreset", str(coreset)]
                    ) == EXIT_VALIDATION, command
        assert "'indices' repeats an entry" in capsys.readouterr().err, command
    coreset.write_text("[1, 2]")
    assert main(["eval", "--input", str(path), "--coreset", str(coreset)]) == EXIT_VALIDATION


def test_exit_codes(tmp_path, square_csv, capsys):
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
    assert "np.float64" not in capsys.readouterr().err
    # Constants that would certify unchecked colorings (c1 <= 0 or nan) or
    # divide by zero (c0 = 0) are rejected before any build.
    for flag, value in [("--c1", "-1"), ("--c1", "nan"), ("--c0", "0"),
                        ("--c0", "inf"), ("--c-big", "-2")]:
        out = tmp_path / "bad_constants.json"
        assert main(["build", "--input", str(path), "--output", str(out),
                     "--target-size", "45", flag, value]) == EXIT_VALIDATION
        assert "must be finite and positive" in capsys.readouterr().err
        assert not out.exists()


def test_budgets_below_one_rejected(square_csv, tmp_path, capsys):
    path, _ = square_csv
    coreset = tmp_path / "coreset.json"
    build = ["build", "--input", str(path), "--output", str(coreset),
             "--target-size", "45"]
    assert main(build + ["--grid-budget", "0"]) == EXIT_VALIDATION
    assert "grid point budget must be at least 1" in capsys.readouterr().err
    assert main(build + ["--retry-budget", "0"]) == EXIT_VALIDATION
    assert "retry budget must be at least 1" in capsys.readouterr().err
    assert main(build) == 0
    assert main(["eval", "--input", str(path), "--coreset", str(coreset),
                 "--eval-budget", "-5"]) == EXIT_VALIDATION
    assert "grid point budget must be at least 1" in capsys.readouterr().err
    for seeds in ("0", "-3"):
        assert main(["bench", "--input", str(path), "--sizes", "4,8",
                     "--num-seeds", seeds]) == EXIT_VALIDATION
        assert "bench seed count must be at least 1" in capsys.readouterr().err


def test_bench_rejects_empty_size_list(square_csv, capsys):
    path, _ = square_csv
    assert main(["bench", "--input", str(path), "--sizes", ""]) == EXIT_VALIDATION
    assert "bench requires a nonempty size list" in capsys.readouterr().err


# Each command takes exactly the flags it reads.
COMMAND_FLAGS = {
    "build": {"--input", "--output", "--dim", "--config", "--seed", "--c0", "--c1",
              "--c-big", "--strict-constants", "--grid-budget", "--retry-budget",
              "--target-size", "--epsilon", "--presample", "--no-colorings"},
    "eval": {"--input", "--output", "--dim", "--config", "--resolution",
             "--eval-budget", "--coreset"},
    "verify": {"--input", "--output", "--dim", "--config", "--coreset"},
    "bench": {"--input", "--output", "--dim", "--config", "--seed", "--c0", "--c1",
              "--c-big", "--strict-constants", "--grid-budget", "--retry-budget",
              "--resolution", "--eval-budget", "--sizes", "--num-seeds"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_subcommand_flags(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {o for a in sub.choices[command]._actions for o in a.option_strings}
    assert options - {"-h", "--help"} == COMMAND_FLAGS[command]


@pytest.mark.parametrize("argv", [["eval", "--c1", "5"], ["verify", "--seed", "3"]])
def test_unread_flags_rejected(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--input", "points.csv"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    # main parses with one parser per process, which the error leaves usable.
    assert _parser() is _parser()
    missing = str(tmp_path / "missing.csv")
    assert main([argv[0], "--input", missing, "--coreset", missing]) == EXIT_IO
    assert "missing.csv" in capsys.readouterr().err


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


def test_build_config_integers_are_strict(square_csv, tmp_path, capsys):
    # Integer keys take ints, integral floats and decimal strings; a bool, a
    # fraction or a non-finite float is a validation error, not a truncation.
    # Float keys take non-bool numbers and numeric strings, and sizes a
    # string or a list; null means not given.
    path, _ = square_csv
    out = tmp_path / "coreset.json"
    cfg_file = tmp_path / "cfg.json"

    def run(text, command="build"):
        cfg_file.write_text(text)
        args = ["--target-size", "90", "--output", str(out)] if command == "build" else []
        return main([command, "--input", str(path), "--config", str(cfg_file)] + args)

    for text, command, message in [
            ('{"grid_budget": 9.7, "seed": true}', "build", "integer"),
            ('{"grid_budget": 9.7}', "build", "integer"),
            ('{"seed": true}', "build", "integer"),
            ('{"grid_budget": 1e999}', "build", "integer"),
            ('{"c1": [1]}', "build", "float"),
            ('{"c1": true}', "build", "float"),
            ('{"c0": {}}', "build", "float"),
            ('{"c0": 1' + "0" * 400 + '}', "build", "float"),
            ('{"sizes": 7}', "bench", "sizes"),
            ('{"sizes": {"32": 1}}', "bench", "sizes")]:
        assert run(text, command) == EXIT_VALIDATION, text
        assert f"cannot parse {message} config value" in capsys.readouterr().err, text
        assert not out.exists()
    assert run('{"seed": 3.0, "c_big": null, "epsilon": null}') == 0
    data = json.loads(out.read_text())
    assert data["seed"] == data["config"]["seed"] == 3
    assert type(data["config"]["seed"]) is int
    assert data["config"]["c_big"] == default_constants(2).c_big
    assert resolve_config({}, environ={ENV_PREFIX + "GRID_BUDGET": "12"}).grid_budget == 12
    with pytest.raises(ValueError):
        resolve_config({}, environ={ENV_PREFIX + "GRID_BUDGET": "9.7"})


def test_build_config_paths_must_be_strings(square_csv, tmp_path, capsys, monkeypatch):
    # input, output and coreset take strings only; another JSON value is a
    # validation error, not a file name.
    path, _ = square_csv
    monkeypatch.chdir(tmp_path)
    cfg_file = tmp_path / "cfg.json"
    flags = {"input": ["--input", str(path)], "output": ["--output", "c.json"]}
    for key, value in [("output", 5), ("input", [str(path)]), ("coreset", 1.5),
                       ("output", True), ("input", {"path": str(path)})]:
        cfg_file.write_text(json.dumps({key: value}))
        args = [a for k, f in flags.items() if k != key for a in f]
        assert main(["build", "--config", str(cfg_file), "--target-size", "90"] + args
                    ) == EXIT_VALIDATION, (key, value)
        assert "cannot parse path config value" in capsys.readouterr().err, (key, value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "points.csv"]


def test_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"c9": 1}))
    with pytest.raises(ValueError, match="unknown config key"):
        resolve_config({}, config_path=str(cfg_file))


def test_runconfig_constants_strict():
    cfg = RunConfig(strict_constants=True)
    cst = cfg.constants_for(1)
    # d = 1: c1 = max(10, 2 * c0) with c0 = 20, c_big = max(40, e^2, 4 c1 + 7).
    assert (cst.c0, cst.c1, cst.c_big, cst.grid_budget) == (20.0, 40.0, 167.0, None)


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


@pytest.mark.slow
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


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-m", "kdecoreset", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: kdecoreset")


def test_build_verify_eval_leave_numpy_ma_unloaded(tmp_path):
    # np.unique's first call imports numpy.ma (about 10 ms and 1 MB of RSS).
    # 40 cells of 6 points in d = 2, every third with a repeated row, give
    # stacks whose cells merge to different row counts.
    rng = np.random.default_rng(12)
    cells = []
    for c in range(40):
        pts = rng.uniform(-0.9, 0.9, size=(6, 2)) + 2.0 * np.array([c % 8, c // 8])
        if c % 3 == 0:
            pts[1] = pts[0]
        cells.append(pts)
    path = tmp_path / "points.csv"
    write_csv(path, np.concatenate(cells))
    coreset, report = tmp_path / "coreset.json", tmp_path / "report.json"
    script = "\n".join([
        "import sys",
        "from kdecoreset.cli import main",
        f"assert main(['build', '--input', {str(path)!r}, '--output', {str(coreset)!r},"
        " '--target-size', '130']) == 0",
        f"assert main(['verify', '--input', {str(path)!r}, '--coreset', {str(coreset)!r},"
        f" '--output', {str(report)!r}]) == 0",
        f"assert main(['eval', '--input', {str(path)!r}, '--coreset', {str(coreset)!r},"
        f" '--output', {str(report)!r}, '--eval-budget', '2000']) == 0",
        "print('numpy.ma' in sys.modules)",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"
