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
    build_parser,
    fit_loglog_slope,
    main,
    read_points,
)
from kdecoreset.colorizer import partition
from kdecoreset.config import ENV_PREFIX, RunConfig, resolve_config
from kdecoreset.evaluation import linf_error
from kdecoreset.schedule import default_constants

import naive


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


def test_verify_rejects_bad_flipped_positions(spread_artifact, capsys):
    path, coreset = spread_artifact
    original = coreset.read_text()
    cells = json.loads(original)["rounds"][0]["cells"]
    cno = next(i for i, c in enumerate(cells) if c["flipped"] == 1)
    pos = cells[cno]["flipped_positions"][0]

    def set_positions(positions, count=None):
        def tamper(data):
            meta = data["rounds"][0]["cells"][cno]
            meta["flipped_positions"] = positions
            meta["flipped"] = len(positions) if count is None else count
        return tamper

    assert main(["verify", "--input", str(path), "--coreset", str(coreset)]) == 0
    for positions, count in [([10**6], None), ([-1], None), ([pos, pos], None),
                             ([], 1), ([pos], 2), ([0.5], None), ([True], None)]:
        code = verify_tampered(path, coreset, original, set_positions(positions, count))
        assert code == EXIT_VALIDATION, (positions, count)
        assert f"round 0 cell {cno}" in capsys.readouterr().err


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


def test_verify_requires_stored_colorings(spread_artifact, tmp_path, capsys):
    path, _ = spread_artifact
    bare = tmp_path / "bare.json"
    assert main(["build", "--input", str(path), "--output", str(bare),
                 "--target-size", "120", "--no-colorings"]) == 0
    assert all("coloring" not in rnd for rnd in json.loads(bare.read_text())["rounds"])
    assert main(["verify", "--input", str(path), "--coreset", str(bare)]
                ) == EXIT_VALIDATION
    assert "no stored colorings" in capsys.readouterr().err


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

    for tamper in (drop_indices, drop_kept, drop_cells, null_rounds, null_coloring):
        assert verify_tampered(path, coreset, original, tamper
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
def test_unread_flags_rejected(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--input", "points.csv"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
