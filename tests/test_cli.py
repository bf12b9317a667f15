"""End-to-end command tests: exit codes, artifact schemas, reproducibility.

Commands run in-process through cli.main so exit codes and stderr are
asserted directly; one subprocess test covers the module entry point.
"""

import json
import math
import os
import platform
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import ska
from ska.cli import (MANIFEST, MARKERS_HEADER, THREAD_VARS, TRACE_HEADER, _check, main,
                     write_json, write_trace_csv)
from ska.invariance import compare, resample_common_grid, row_passed
from ska.linalg import keep_heap
from ska.metrics import COLUMNS, TrajectoryTrace

TRAIN_CFG = {
    "seed": 3,
    "network": {"layer_sizes": [4, 3, 2], "init_std_scale": 1.0},
    "run": {"dt": 0.05, "steps": 6},
    "data": {"source": "synthetic", "n": 24, "dim": 4, "classes": 3, "seed": 1},
}


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _train(tmp_path, cfg, out="out", extra=()):
    path = _write_cfg(tmp_path, cfg, f"{out}.json")
    rc = main(["train", "--config", path, "--out", str(tmp_path / out), *extra])
    return rc, tmp_path / out


# --------------------------------------------------------------- train ---


def test_train_artifacts_and_headers(tmp_path):
    rc, out = _train(tmp_path, TRAIN_CFG)
    assert rc == 0
    lines = (out / "trace.csv").read_text().splitlines()
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert lines[0] == readme.split("The trace header is exactly:\n\n```\n")[1].split("\n")[0]
    # 6 steps x 2 layers
    assert len(lines) == 1 + 12
    assert (out / "markers.csv").read_text().splitlines()[0] == MARKERS_HEADER
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["artifacts"] == sorted(manifest["artifacts"])
    for name in manifest["artifacts"]:
        assert (out / name).exists(), name
    svgs = sorted(out.glob("*.svg"))
    assert len(svgs) == 6
    for svg in svgs:
        ET.fromstring(svg.read_text())  # well-formed


def test_train_without_charts(tmp_path):
    rc, out = _train(tmp_path, TRAIN_CFG, out="nosvg", extra=("--no-svg",))
    assert rc == 0
    assert not list(out.glob("*.svg"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert not [a for a in manifest["artifacts"] if a.endswith(".svg")]


def test_train_reruns_are_byte_identical(tmp_path):
    _, out1 = _train(tmp_path, TRAIN_CFG, out="a")
    _, out2 = _train(tmp_path, TRAIN_CFG, out="b")
    for name in ("trace.csv", "markers.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    for svg in sorted(out1.glob("*.svg")):
        assert svg.read_bytes() == (out2 / svg.name).read_bytes()


def test_manifest_config_reproduces_the_run(tmp_path):
    _, out1 = _train(tmp_path, TRAIN_CFG, out="orig")
    echoed = json.loads((out1 / "manifest.json").read_text())["config"]
    path = _write_cfg(tmp_path, echoed, "echoed.json")
    rc = main(["train", "--config", path, "--out", str(tmp_path / "replay")])
    assert rc == 0
    assert (out1 / "trace.csv").read_bytes() == (tmp_path / "replay" / "trace.csv").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    _, out1 = _train(tmp_path, TRAIN_CFG, out="s3")
    rc, out2 = _train(tmp_path, TRAIN_CFG, out="s9", extra=("--seed", "9"))
    assert rc == 0
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


def test_undefined_cosine_is_an_empty_cell(tmp_path):
    cfg = {
        "seed": 0,
        "network": {"layer_sizes": [1, 1], "init_std_scale": 0.0},
        "run": {"dt": 0.1, "steps": 2},
        "data": {"source": "constant", "n": 1, "dim": 1, "value": 1.0},
    }
    rc, out = _train(tmp_path, cfg, out="gap")
    assert rc == 0
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    # zero weights stay zero: dD = 0 makes the cosine undefined, not 0
    for row in rows:
        assert row.split(",")[5] == ""


def test_trace_csv_round_trips_the_trace_values_bitwise(tmp_path):
    """trace.csv holds every metric of trace.values at full precision, a NaN
    cosine as an empty cell, beside the step, time and layer keys. Layer 1
    starts at zero weights and stays there, so its cosine is a NaN gap."""
    cfg = ska.NetworkConfig(layer_sizes=(4, 3, 3, 2), dt=0.05, steps=5, seed=2)
    net = ska.init_network(cfg)
    net.layers[1].W[:] = 0.0
    trace = ska.run(net, ska.synthetic_blobs(12, 4, 2, seed=1))
    assert np.isnan(trace.column("cosine")[:, 1]).all()
    assert np.shares_memory(trace.column("net_cum"), trace.values)
    write_trace_csv(tmp_path / "trace.csv", trace)
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    rows = [line.split(",") for line in lines[1:]]
    keys = [(int(k), float(t), int(l)) for k, t, l, *_ in rows]
    assert keys == [(k, t, l) for k, t in zip(trace.steps.tolist(), trace.times.tolist())
                    for l in range(3)]
    got = np.array([[float(c) if c else np.nan for c in row[3:]] for row in rows])
    assert got.reshape(trace.values.shape).tobytes() == trace.values.tobytes()


def test_train_on_an_axis_one_ulp_wide(tmp_path):
    """At dt 3e-16 the z_norm axis of flow_vs_znorm.svg spans one ulp; the
    chart still gets its ticks."""
    cfg = {"seed": 1, "network": {"layer_sizes": [4, 3]}, "run": {"dt": 3e-16, "steps": 4},
           "data": {"source": "synthetic", "n": 8, "dim": 4, "classes": 2, "seed": 1}}
    rc, out = _train(tmp_path, cfg, out="ulp")
    assert rc == 0
    assert len(list(out.glob("*.svg"))) == 6


# -------------------------------------------------------------- errors ---


def test_parse_error_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "seed": 3,,\n}\n')
    rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err


def test_unknown_keys_are_rejected_with_their_path(tmp_path, capsys):
    cfg = dict(TRAIN_CFG, network={"layer_sizes": [2, 2], "init_scale": 1.0})
    rc, _ = _train(tmp_path, cfg, out="x")
    assert rc == 2
    assert "network.init_scale" in capsys.readouterr().err
    rc2, _ = _train(tmp_path, {"nettwork": {}}, out="y")
    assert rc2 == 2
    err = capsys.readouterr().err
    assert "nettwork" in err and ".nettwork" not in err


def test_run_section_needs_a_consistent_window(tmp_path, capsys):
    cfg = dict(TRAIN_CFG, run={"dt": 0.1})
    rc, _ = _train(tmp_path, cfg, out="x")
    assert rc == 2
    assert "missing config key run.steps" in capsys.readouterr().err
    # steps is the one window: total_time would state dt * steps again
    cfg = dict(TRAIN_CFG, run={"dt": 0.1, "steps": 5, "total_time": 0.5})
    rc, _ = _train(tmp_path, cfg, out="y")
    assert rc == 2
    assert "unknown config key run.total_time" in capsys.readouterr().err


def test_report_on_a_train_run_says_it_carries_no_checks(tmp_path, capsys):
    """train computes no verdict, so report must not print one: its last
    line says the run carries no checks, and it exits 0."""
    rc, out = _train(tmp_path, TRAIN_CFG, extra=("--no-svg",))
    assert rc == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "no checks: a train run carries no verdict"
    assert not {"PASS", "FAIL"} & set(" ".join(lines).split())


def test_report_requires_a_manifest(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    rc = main(["report", "--out", str(tmp_path / "empty")])
    assert rc == 2
    assert "manifest.json" in capsys.readouterr().err


# ----------------------------------------------------------- invariance ---

INV_CFG = {
    "seed": 5,
    "network": {"layer_sizes": [4, 3]},
    "data": {"source": "synthetic", "n": 16, "dim": 4, "classes": 2, "seed": 2},
    "invariance": {"eta_list": [0.01, 0.005], "total_time": 0.2},
}


def _invariance(tmp_path, cfg, out="inv"):
    path = _write_cfg(tmp_path, cfg, f"{out}.json")
    rc = main(["invariance", "--config", path, "--out", str(tmp_path / out)])
    return rc, tmp_path / out


def test_invariance_family_passes_and_reports(tmp_path, capsys):
    rc, out = _invariance(tmp_path, INV_CFG)
    assert rc == 0
    rows = (out / "invariance_report.csv").read_text().splitlines()
    assert rows[0] == "metric,run,eta,reference_eta,sup_dev,rel_dev,tolerance,passed"
    # one non-reference run compared on four metrics
    assert len(rows) == 1 + 4
    report = json.loads((out / "invariance_report.json").read_text())
    assert report["all_pass"] is True
    assert (out / "trace_run0_eta0.01.csv").exists()
    assert (out / "trace_run1_eta0.005.csv").exists()
    assert (out / "aligned.csv").read_text().splitlines()[0] == \
        "metric,run,eta,layer,time,value"
    rc2 = main(["report", "--out", str(out)])
    assert rc2 == 0
    lines = capsys.readouterr().out.splitlines()
    # the one compared run: the worst of its four rows is named before the verdict
    worst = max(report["rows"], key=lambda r: r["rel_dev"] - r["tolerance"])
    assert lines[-2] == (f"worst row: {worst['metric']} {worst['run']}, "
                         f"rel_dev {worst['rel_dev']:.4f} against tol {worst['tolerance']:.4f}")
    assert lines[-1] == "PASS"


def test_invariance_report_csv_cells_match_the_json_rows(tmp_path, monkeypatch):
    # a one-weight net on a constant input: its cosine is constant, so those
    # rows are incomparable, and at a tolerance of 0.01 the entropy rows fail
    monkeypatch.setattr("ska.invariance.TOLERANCE", 0.01)
    cfg = {"seed": 4, "network": {"layer_sizes": [1, 1]}, "data": {"source": "constant"},
           "invariance": {"eta_list": [0.02, 0.01, 0.005], "total_time": 0.2}}
    rc, out = _invariance(tmp_path, cfg)
    assert rc == 1
    header, *lines = (out / "invariance_report.csv").read_text().splitlines()
    report = json.loads((out / "invariance_report.json").read_text())
    rows = {(r["metric"], r["run"]): r for r in report["rows"]}
    assert len(lines) == len(rows) == 8
    columns = header.split(",")
    assert columns == ["metric", "run", "eta", "reference_eta", "sup_dev", "rel_dev",
                       "tolerance", "passed"]
    words = {True: "pass", False: "fail", None: "incomparable"}
    for line in lines:
        cells = dict(zip(columns, line.split(",")))
        row = rows[(cells["metric"], cells["run"])]
        assert set(row) == set(columns) | {"per_layer"}
        assert cells.pop("passed") == words[row["passed"]]
        for key, cell in cells.items():
            if row[key] is None:  # a NaN: null in the JSON, an empty cell in the CSV
                assert cell == ""
            elif isinstance(row[key], str):
                assert cell == row[key]
            else:
                assert float(cell) == row[key]
    assert {words[r["passed"]] for r in rows.values()} == {"pass", "fail", "incomparable"}
    assert any(r["rel_dev"] is None for r in rows.values())


def test_invariance_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("ska.invariance.TOLERANCE", 1e-9)
    rc, out = _invariance(tmp_path, INV_CFG, out="tight")
    assert rc == 1
    assert json.loads((out / "invariance_report.json").read_text())["all_pass"] is False
    rc2 = main(["report", "--out", str(out)])
    assert rc2 == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("all_pass", [True, "no"], ids=["row-fails", "all-pass-text"])
def test_report_takes_the_family_verdict_from_the_rows(tmp_path, capsys, all_pass):
    """A row whose passed is false fails the family, whatever the report's
    all_pass holds: report judges the rows it checks, not a stored verdict."""
    rc, out = _invariance(tmp_path, INV_CFG)
    assert rc == 0
    path = out / "invariance_report.json"
    report = json.loads(path.read_text())
    row = report["rows"][0]
    row.update(passed=False, rel_dev=0.9)
    report["all_pass"] = all_pass
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"{row['metric']} {row['run']}: rel_dev 0.9000 tol {row['tolerance']:.4f} FAIL" in lines
    assert lines[-1] == "FAIL"


@pytest.mark.parametrize("changes,stored,gives", [
    ({"rel_dev": 0.9}, "true", "false"),
    ({"passed": None}, "null", "true"),
    ({"rel_dev": None}, "true", "null"),
], ids=["over-tolerance-passed", "measured-incomparable", "unmeasured-passed"])
def test_report_rejects_a_row_verdict_its_numbers_do_not_give(tmp_path, capsys, changes,
                                                              stored, gives):
    """report judges each row by compare's rule, rel_dev <= tolerance with
    a null rel_dev incomparable; a stored passed that disagrees is a
    tampered report, which exits 2 naming the row."""
    rc, out = _invariance(tmp_path, INV_CFG)
    assert rc == 0
    path = out / "invariance_report.json"
    report = json.loads(path.read_text())
    row = report["rows"][0]
    assert row["passed"] is True and row["rel_dev"] < row["tolerance"] < 0.9
    row.update(changes)
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: invariance_report.json rows[0] ({row['metric']} {row['run']}) "
                          f"stores passed {stored}, but its rel_dev ")
    assert err.endswith(f" give {gives}\n")


def test_an_infinite_rel_dev_keeps_its_verdict_through_the_json(tmp_path, capsys):
    """A reference z_norm whose range is one subnormal gives its row an
    infinite rel_dev and passed false. JSON has no infinity: write_json
    stores the largest float, so the stored rel_dev still gives the row's
    verdict (a NaN stays null, incomparable), and report on the run
    directory judges the family FAIL and exits 1."""
    def trace(dt, z_norm):
        steps = np.arange(1, len(z_norm) + 1)
        values = np.zeros((len(steps), 1, len(COLUMNS)))
        values[:, 0, COLUMNS.index("z_norm")] = z_norm
        return TrajectoryTrace(dt=dt, steps=steps, times=steps * dt, values=values)

    with np.errstate(over="ignore"):
        result = compare(resample_common_grid([trace(0.01, [0.0, 0.0, 0.0, 5e-324]),
                                               trace(0.02, [0.0, 1.0])]))
    rows = {r["metric"]: r for r in result["rows"]}
    assert (rows["z_norm"]["rel_dev"], rows["z_norm"]["passed"]) == (math.inf, False)
    write_json(tmp_path / "invariance_report.json", result)
    stored = json.loads((tmp_path / "invariance_report.json").read_text())["rows"]
    assert [r["passed"] for r in stored] == [r["passed"] for r in result["rows"]]
    assert [row_passed(r["rel_dev"], r["tolerance"]) for r in stored] == \
        [r["passed"] for r in result["rows"]]
    (tmp_path / "manifest.json").write_text(json.dumps(INV_MANIFEST))
    assert main(["report", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "z_norm run1:eta=0.02: rel_dev inf tol 0.0200 FAIL" in lines
    assert "worst row: z_norm run1:eta=0.02, rel_dev inf against tol 0.0200" in lines
    assert lines[-1] == "FAIL"


# ----------------------------------------------------------- variational ---


def test_variational_check_scalar_unit(tmp_path, capsys):
    cfg = {
        "seed": 0,
        "run": {"dt": 0.05, "steps": 20},
        "variational": {"units": [[0, 0, 0]]},
    }
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "var"
    rc = main(["variational-check", "--config", path, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "variational_report.json").read_text())
    (unit,) = report["units"]
    assert unit["selection"] == [0, 0, 0]
    assert unit["el_order"] > 0.9
    assert isinstance(unit["net_identity_crossings"], list)
    rc2 = main(["report", "--out", str(out)])
    assert rc2 == 0
    assert "PASS" in capsys.readouterr().out


def test_crossings_carry_the_net_action_bound(tmp_path, capsys):
    cfg = {"seed": 4, "run": {"dt": 0.05, "steps": 120}, "variational": {"dt_halving": False}}
    path = _write_cfg(tmp_path, cfg)
    out = tmp_path / "var"
    assert main(["variational-check", "--config", path, "--out", str(out)]) == 0
    (unit,) = json.loads((out / "variational_report.json").read_text())["units"]
    (crossing,) = unit["net_identity_crossings"]
    # 10 * dt * max|zdot| on the unit's recorded path
    assert crossing["bound"] == pytest.approx(0.1615, abs=1e-4)
    assert 0 < crossing["residual"] < crossing["bound"]
    assert main(["report", "--out", str(out)]) == 0
    assert f", bound {crossing['bound']:.3g}" in capsys.readouterr().out


def _tampered_unit_run(tmp_path, **changes):
    """A single-unit run whose report's first unit takes changes; a crossing
    change applies to its first crossing."""
    cfg = {"seed": 4, "run": {"dt": 0.05, "steps": 120}}
    out = tmp_path / "var"
    assert main(["variational-check", "--config", _write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    path = out / "variational_report.json"
    report = json.loads(path.read_text())
    unit = report["units"][0]
    assert unit["el_order"] >= 1.8
    crossing = unit["net_identity_crossings"][0]
    assert crossing["residual"] <= crossing["bound"]
    for key, value in changes.items():
        (crossing if key in crossing else unit)[key] = value
    path.write_text(json.dumps(report))
    return out


@pytest.mark.parametrize("changes,needle", [
    ({}, None),
    ({"el_order": 1.2}, "order 1.20 below 1.8 FAIL"),
    ({"residual": 0.5}, "net identity residual 0.5, bound 0.161 FAIL"),
], ids=["untouched", "low-order", "residual-over-bound"])
def test_report_verdict_on_variational_runs(tmp_path, capsys, changes, needle):
    """report fails a variational run whose EL order is under 1.8, or whose
    net-action residual at a crossing is over its bound."""
    out = _tampered_unit_run(tmp_path, **changes)
    capsys.readouterr()
    rc = main(["report", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    if needle is None:
        assert (rc, lines[-1]) == (0, "PASS")
    else:
        assert (rc, lines[-1]) == (1, "FAIL")
        assert any(line.endswith(needle) for line in lines), lines


@pytest.mark.parametrize("floor,rc,verdict", [(1.8, 0, "PASS"), (2.5, 1, "FAIL")])
def test_variational_check_applies_the_report_verdict(tmp_path, capsys, monkeypatch,
                                                       floor, rc, verdict):
    """variational-check and report share one rule: the single-unit config's
    EL order, 1.99, passes the 1.8 floor and fails one of 2.5."""
    monkeypatch.setattr("ska.variational.EL_ORDER_FLOOR", floor)
    out = tmp_path / "var"
    config = str(Path(__file__).resolve().parents[1] / "configs" / "single_unit.json")
    assert main(["variational-check", "--config", config, "--out", str(out)]) == rc
    assert capsys.readouterr().out.rstrip().endswith(verdict)
    assert main(["report", "--out", str(out)]) == rc
    assert capsys.readouterr().out.splitlines()[-1] == verdict


@pytest.mark.parametrize("seed,crossings", [(0, 0), (4, 1)])
def test_a_unit_without_a_crossing_says_so(tmp_path, capsys, seed, crossings):
    """single_unit.json finds no net zero crossing in its window at --seed 0,
    and one at its own seed 4. Without one, the report says once that the
    net-action identity went unchecked, and variational-check prints that
    report; the verdict is PASS either way."""
    note = "no net zero crossing in the window: net-action identity not checked"
    out = tmp_path / "var"
    config = str(Path(__file__).resolve().parents[1] / "configs" / "single_unit.json")
    assert main(["variational-check", "--config", config, "--seed", str(seed),
                 "--out", str(out)]) == 0
    checked = capsys.readouterr().out.splitlines()
    (unit,) = json.loads((out / "variational_report.json").read_text())["units"]
    assert len(unit["net_identity_crossings"]) == crossings
    assert main(["report", "--out", str(out)]) == 0
    reported = capsys.readouterr().out.splitlines()
    noted = 0 if crossings else 1
    assert checked == reported
    assert [l for l in reported if note in l] == [f"  {note}"] * noted
    assert checked[-1].endswith("PASS") and reported[-1] == "PASS"


STILL_FAMILY = {"network": {"layer_sizes": [4, 3], "init_std_scale": 0},
                "data": {"source": "synthetic", "n": 8, "dim": 4, "classes": 2},
                "invariance": {"eta_list": [0.1, 0.05], "total_time": 1}}
NO_ROW = "no row was comparable: the family checked nothing"
# Runs that check nothing: a family none of whose rows is comparable, and a
# unit with neither a measured EL order nor a crossing under a positive bound.
VACUOUS_RUNS = {
    "family-still": ("invariance", STILL_FAMILY, (), NO_ROW),
    # runs that saturate after one step
    "family-saturated": ("invariance", {**STILL_FAMILY, "network": {"layer_sizes": [4, 3]},
                                        "invariance": {"eta_list": [1e6, 5e5], "total_time": 1e7}},
                         (), NO_ROW),
    "unit-no-order-no-crossing": (
        "variational-check",
        {"seed": 4, "run": {"dt": 0.05, "steps": 120}, "variational": {"dt_halving": False}},
        ("--seed", "0"), "el residual 3.93e-06, nothing checked FAIL"),
    # the path never moves: no order, and the zero net crosses under a zero bound
    "unit-still": ("variational-check",
                   {"seed": 4, "network": {"layer_sizes": [1, 1], "init_std_scale": 0},
                    "run": {"dt": 0.05, "steps": 120}},
                   (), "el residual 0, nothing checked FAIL"),
}


@pytest.mark.parametrize("name", sorted(VACUOUS_RUNS))
def test_a_run_that_checked_nothing_fails(tmp_path, capsys, name):
    """A PASS must have checked something: each of these runs exits 1, and
    its report says that nothing was checked."""
    command, cfg, extra, needle = VACUOUS_RUNS[name]
    out = str(tmp_path / "out")
    assert main([command, "--config", _write_cfg(tmp_path, cfg), "--out", out, *extra]) == 1
    ran = capsys.readouterr().out.splitlines()
    assert main(["report", "--out", out]) == 1
    assert capsys.readouterr().out.splitlines() == ran
    assert ran[-1] == "FAIL"
    assert any(line.endswith(needle) for line in ran), ran


def test_manifest_records_the_environment(tmp_path, capsys, monkeypatch):
    """Every command's manifest holds the environment block, with the BLAS
    thread count of each run; report prints it as one line."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    rc, out = _train(tmp_path, TRAIN_CFG, extra=("--no-svg",))
    assert rc == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert env["numpy"] == np.__version__
    assert env["python"] == platform.python_version()
    assert set(env["blas"]) == {"name", "version"}
    assert env["thread_vars"]["OPENBLAS_NUM_THREADS"] == "2"
    assert env["thread_vars"]["OMP_NUM_THREADS"] is None
    assert len(env["blas_threads"]) == 1
    assert env["malloc"] == keep_heap()
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    (line,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("environment:")]
    assert f"numpy {np.__version__}" in line and "OPENBLAS_NUM_THREADS=2" in line
    assert "OMP_NUM_THREADS=unset" in line
    malloc = env["malloc"] or {}
    assert ", malloc " + (" ".join(f"{k}={v}" for k, v in malloc.items()) or "unchanged") in line
    assert line.endswith(f"BLAS threads per run: {env['blas_threads'][0]}")

    rc, inv = _invariance(tmp_path, INV_CFG)
    assert rc == 0
    assert len(json.loads((inv / "manifest.json").read_text())["environment"]["blas_threads"]) == 2


def test_variational_units_must_be_triples(tmp_path, capsys):
    cfg = {"seed": 0, "run": {"dt": 0.05, "steps": 4},
           "variational": {"units": [[0, 0]]}}
    path = _write_cfg(tmp_path, cfg)
    rc = main(["variational-check", "--config", path, "--out", str(tmp_path / "v")])
    assert rc == 2
    assert "layer, unit, sample" in capsys.readouterr().err


# ------------------------------------------------------- error boundary ---


def _with(cfg, section, **keys):
    return dict(cfg, **{section: dict(cfg[section], **keys)})


OVERFLOW_CFG = dict(TRAIN_CFG, network={"layer_sizes": [8, 4, 2]}, run={"dt": 1e300, "steps": 6},
                    data=dict(TRAIN_CFG["data"], dim=8))
WIDE_DATA = {"source": "synthetic", "n": 24, "dim": 64, "center_spacing": 0.35, "std": 0.1}


def _idx_data(limit):
    return {"source": "mnist", "images": "images.idx", "limit": limit}


BAD_INPUTS = {
    "dt-nan": ("train", _with(TRAIN_CFG, "run", dt=float("nan")), "run.dt"),
    # JSON reads 1 followed by 400 zeros as an int that no float holds
    "dt-int-past-float": ("train", _with(TRAIN_CFG, "run", dt=10**400),
                          "config key run.dt must be finite"),
    "init-std-scale-nan": ("train", _with(TRAIN_CFG, "network", init_std_scale=float("nan")),
                           "network.init_std_scale"),
    "input-width-mismatch": ("train", _with(TRAIN_CFG, "network", layer_sizes=[5, 3]),
                             "incompatible shapes"),
    "one-eta": ("invariance", _with(INV_CFG, "invariance", eta_list=[0.02]), "two step sizes"),
    "repeated-eta": ("invariance", _with(INV_CFG, "invariance", eta_list=[0.01, 0.01]),
                     "step sizes must be distinct"),
    # a family has one seed, so there is no per-run seed key
    "seed-overrides": ("invariance", _with(INV_CFG, "invariance", seed_overrides=[5, 6]),
                       "unknown config key invariance.seed_overrides"),
    # keys of deleted options: every step forwards the whole design matrix,
    # run.steps is the one run window, a family compares every metric, and
    # its tolerance is the constant ska.invariance.TOLERANCE
    "data-batch": ("train", _with(TRAIN_CFG, "data", batch={"mode": "full"}),
                   "unknown config key data.batch"),
    "run-total-time": ("train", _with(TRAIN_CFG, "run", total_time=0.3),
                       "unknown config key run.total_time"),
    "invariance-metrics": ("invariance", _with(INV_CFG, "invariance", metrics=["cosine"]),
                           "unknown config key invariance.metrics"),
    "invariance-tolerance": ("invariance", _with(INV_CFG, "invariance", tolerance=0.02),
                             "unknown config key invariance.tolerance"),
    "unit-out-of-range": ("variational-check", {"run": {"dt": 0.05, "steps": 4},
                                                "variational": {"units": [[0, 5, 0]]}},
                          "unit 5"),
    # a count past int64 stops in bounded_steps, before numpy sees it
    "window-overflows": ("train", _with(TRAIN_CFG, "run", steps=2**64),
                         "steps exceed the limit"),
    # NetworkConfig checks the network and run keys, each in its own words
    "steps-zero": ("train", _with(TRAIN_CFG, "run", steps=0), "steps must be at least 1"),
    "dt-zero": ("train", _with(TRAIN_CFG, "run", dt=0), "dt must be positive and finite"),
    "init-std-scale-negative": ("train", _with(TRAIN_CFG, "network", init_std_scale=-1),
                                "init_std_scale must be non-negative and finite"),
    "layer-sizes-input-only": ("train", _with(TRAIN_CFG, "network", layer_sizes=[8]),
                               "layer_sizes needs an input dim and at least one layer"),
    "layer-sizes-zero": ("train", _with(TRAIN_CFG, "network", layer_sizes=[8, 0]),
                         "layer sizes must be positive"),
    "steps-over-limit": ("train", _with(TRAIN_CFG, "run", steps=10**7), "steps exceed the limit"),
    "eta-window-overflows": ("invariance", _with(INV_CFG, "invariance", eta_list=[1e-310, 0.1]),
                             "steps exceed the limit"),
    # weights stay finite, but the norms of Z and dZ overflow
    "metrics-overflow": ("train", OVERFLOW_CFG, "step 1, layer 0: z_norm is inf"),
    "halved-window-over-limit": ("variational-check", {"run": {"dt": 0.001, "steps": 600000}},
                                 "run window at dt/2"),
    # two samples leave the Euler-Lagrange residual nothing to evaluate
    "short-variational-run": ("variational-check", {"run": {"dt": 0.05, "steps": 2}},
                              "run.steps must be at least 3"),
    # from_idx checks the limit before it reads the IDX file
    "idx-limit-negative": ("train", dict(TRAIN_CFG, data=_idx_data(-15)),
                           "limit must be positive"),
    "idx-limit-zero": ("train", dict(TRAIN_CFG, data=_idx_data(0)), "limit must be positive"),
    # a dataset is a design matrix: the dynamics read no labels
    "idx-labels": ("train", dict(TRAIN_CFG, data=dict(_idx_data(4), labels="labels.idx")),
                   "unknown config key data.labels"),
    # 10**15 elements: 7 PiB and more, far past any address space, so the
    # allocation always fails at once
    "dataset-out-of-memory": ("train", dict(TRAIN_CFG, network={"layer_sizes": [64, 4]},
                                            data=dict(WIDE_DATA, n=10**15)), "out of memory"),
    "layer-out-of-memory": ("train", dict(TRAIN_CFG, network={"layer_sizes": [64, 10**15]},
                                          data=WIDE_DATA), "out of memory"),
    "negative-seed": ("train", dict(TRAIN_CFG, seed=-1), "config key seed must be non-negative"),
    "negative-data-seed": ("train", _with(TRAIN_CFG, "data", seed=-1),
                           "config key data.seed must be non-negative"),
    "negative-seed-variational": ("variational-check",
                                  {"seed": -1, "run": {"dt": 0.05, "steps": 4}},
                                  "config key seed must be non-negative"),
    "variational-no-units": ("variational-check", {"run": {"dt": 0.05, "steps": 4},
                                                   "variational": {"units": []}},
                             "variational.units must list at least one [layer, unit, sample]"),
    # cut.idx.gz is written cut at half its length into the working directory
    "idx-gzip-cut": ("train", dict(TRAIN_CFG, data={"source": "mnist", "images": "cut.idx.gz"}),
                     "cut.idx.gz: compressed stream ends early"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, case):
    command, cfg, needle = BAD_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    ska.data.save_idx_images("cut.idx.gz", ska.data.glyph_images(50, 0))
    whole = Path("cut.idx.gz").read_bytes()
    Path("cut.idx.gz").write_bytes(whole[: len(whole) // 2])
    path = _write_cfg(tmp_path, cfg)
    rc = main([command, "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and needle in err


def test_exit_2_removes_only_the_empty_out_dir_it_made(tmp_path, capsys, monkeypatch):
    """A config error leaves no --out directory behind when main made it; a
    directory that was there before, or that holds a file, stays."""
    path = _write_cfg(tmp_path, _with(TRAIN_CFG, "network", layer_sizes=[8]))
    out = tmp_path / "out"
    assert main(["train", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()
    out.mkdir()
    assert main(["train", "--config", path, "--out", str(out)]) == 2
    assert out.is_dir()
    out.rmdir()

    def write_then_fail(args, c, ds):
        (args.out / "partial.csv").write_text("")
        raise ValueError("stopped after a write")

    _, help_line, sections = ska.cli.COMMANDS["train"]
    monkeypatch.setitem(ska.cli.COMMANDS, "train", (write_then_fail, help_line, sections))
    assert main(["train", "--config", _write_cfg(tmp_path, TRAIN_CFG), "--out", str(out)]) == 2
    assert (out / "partial.csv").is_file()


def test_negative_seed_flag_names_its_key(tmp_path, capsys):
    rc, _ = _train(tmp_path, TRAIN_CFG, extra=("--seed", "-1"))
    assert rc == 2
    assert capsys.readouterr().err == "error: config key seed must be non-negative\n"


def test_overflow_prints_only_the_error_line(tmp_path):
    """numpy's overflow warnings stay off stderr in a command."""
    path = _write_cfg(tmp_path, OVERFLOW_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "ska", "train", "--config", path, "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: step 1, layer 0: z_norm is inf, not finite\n"


# The benchmark's frozen family-invariance config: six step sizes, 2,059
# Euler steps on the 64-32-16-4 net over 512 samples.
FAMILY_CFG = {
    "seed": 19,
    "network": {"layer_sizes": [64, 32, 16, 4], "init_std_scale": 2.0},
    "data": {"source": "synthetic", "n": 512, "dim": 64, "classes": 8, "seed": 13,
             "center_spacing": 0.35, "std": 0.1},
    "invariance": {"eta_list": [0.02, 0.01, 0.005, 0.0033, 0.0025, 0.001], "total_time": 1.0},
}


def test_a_command_keeps_the_heap_its_steps_free(tmp_path):
    """Layer 0's Z and D are 512x32 float64, 128 KiB each: at glibc's default
    thresholds a freed one can be handed back to the kernel and faulted in
    again on the next step. Whether it is depends on the heap's layout: at
    the defaults this process reads up to 74,000 minor faults (15,000 to
    18,000 under pytest), and with the heap kept about 5,600 in every
    layout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(ska.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "-m", "ska", "invariance", "--config", _write_cfg(tmp_path, FAMILY_CFG),
         "--out", str(tmp_path / "family")], env=env, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "family" / "manifest.json").read_text())
    if manifest["environment"]["malloc"] is None:
        pytest.skip("no mallopt: the C library keeps its own heap policy")
    assert faults < 10_000, f"{faults} minor faults"


def test_corrupt_manifest_exits_2_with_one_line(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text('{"command": "train",')
    rc = main(["report", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "manifest.json" in err


# The keys every manifest holds whatever its command.
BASE_MANIFEST = {"version": ska.__version__,
                 "resolved": {"eta_times_K": 0.3, "layers": 2, "samples": 24},
                 "environment": {"python": "3", "numpy": "2",
                                 "blas": {"name": None, "version": None},
                                 "thread_vars": dict.fromkeys(THREAD_VARS),
                                 "blas_threads": [], "malloc": None}}
TRAIN_MANIFEST = {**BASE_MANIFEST, "command": "train"}
TRAIN_MARKERS = ("markers.csv", f"{MARKERS_HEADER}\n0,entropy_min,3.0,0.1\n")
INV_MANIFEST = {**BASE_MANIFEST, "command": "invariance"}
VAR_MANIFEST = {**BASE_MANIFEST, "command": "variational-check"}
VAR_UNIT = {"selection": [0, 0, 0], "action_entropy": 0.1, "entropy_by_definition": 0.1,
            "el_residual_max": 1e-6, "el_order": None}
INV_ROW = {"metric": "cosine", "run": "run1:eta=0.01", "rel_dev": 0.01, "tolerance": 0.02,
           "passed": True}


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _rows(**changes):
    return ("invariance_report.json", {"rows": [{**INV_ROW, **changes}]})


def _crossing(**changes):
    crossing = {"time": 0.5, "residual": 0.0, "bound": 0.1, **changes}
    return ("variational_report.json",
            {"units": [{**VAR_UNIT, "net_identity_crossings": [crossing]}]})


def _environment(**changes):
    return {**TRAIN_MANIFEST, "environment": {**BASE_MANIFEST["environment"], **changes}}


# A finished run directory whose JSON parses but lacks a key report reads,
# or whose markers.csv is missing or malformed.
BAD_RUN_DIRS = {
    "train": ({**TRAIN_MANIFEST, "resolved": {"eta_times_K": 0.3, "layers": 2}}, None,
              "samples"),
    "invariance": (INV_MANIFEST, ("invariance_report.json", {}), "rows"),
    # a family compares at least one row and a check records at least one
    # unit, so an empty list is no verdict, whatever all_pass holds
    "invariance-no-rows": (INV_MANIFEST, ("invariance_report.json",
                                          {"rows": [], "all_pass": False}),
                           "invariance_report.json rows is empty"),
    "variational-check-no-units": (VAR_MANIFEST, ("variational_report.json", {"units": []}),
                                   "variational_report.json units is empty"),
    "variational-check": (VAR_MANIFEST,
                          ("variational_report.json",
                           {"units": [{"selection": [0, 0, 0], "el_order": None}]}),
                          "action_entropy"),
    # a table's keys are read in its order, so the first absent one is named
    # whether it is REQUIRED or NULLABLE
    "variational-check-selection-only": (
        VAR_MANIFEST, ("variational_report.json", {"units": [{"selection": [0, 0, 0]}]}),
        "missing variational_report.json key units[0].action_entropy"),
    # keys every manifest holds, missing from a run that is otherwise whole
    "train-no-environment": (_without(TRAIN_MANIFEST, "environment"), TRAIN_MARKERS,
                             "missing manifest.json key environment"),
    "train-no-version": (_without(TRAIN_MANIFEST, "version"), TRAIN_MARKERS,
                         "missing manifest.json key version"),
    "train-no-malloc": ({**TRAIN_MANIFEST, "environment": _without(BASE_MANIFEST["environment"],
                                                                   "malloc")},
                        TRAIN_MARKERS, "missing manifest.json key environment.malloc"),
    # every command writes each of these keys, as null where nothing was measured
    "invariance-no-samples": ({**INV_MANIFEST, "resolved": _without(BASE_MANIFEST["resolved"],
                                                                    "samples")},
                              ("invariance_report.json", {"rows": [INV_ROW]}),
                              "missing manifest.json key resolved.samples"),
    "train-no-thread-var": (
        _environment(thread_vars=_without(BASE_MANIFEST["environment"]["thread_vars"],
                                          "MKL_NUM_THREADS")), TRAIN_MARKERS,
        "missing manifest.json key environment.thread_vars.MKL_NUM_THREADS"),
    "variational-check-no-order": (
        VAR_MANIFEST, ("variational_report.json",
                       {"units": [{**_without(VAR_UNIT, "el_order"),
                                   "net_identity_crossings": []}]}),
        "missing variational_report.json key units[0].el_order"),
    "variational-check-no-bound": (
        VAR_MANIFEST,
        ("variational_report.json",
         {"units": [{**VAR_UNIT, "net_identity_crossings": [{"time": 0.5, "residual": 0.0}]}]}),
        "missing variational_report.json key units[0].net_identity_crossings[0].bound"),
    # keys present, but holding values report cannot format
    "invariance-null-tolerance": (INV_MANIFEST, _rows(tolerance=None),
                                  "missing invariance_report.json key rows[0].tolerance"),
    "invariance-text-verdict": (INV_MANIFEST, _rows(rel_dev=None, passed="yes"),
                                "invariance_report.json key rows[0].passed must be bool"),
    # a JSON true or false is no number, though Python's bool is an int
    "invariance-bool-numbers": (INV_MANIFEST, _rows(rel_dev=False, tolerance=True),
                                "invariance_report.json key rows[0].rel_dev must be float"),
    "variational-check-bool-order": (
        VAR_MANIFEST,
        ("variational_report.json",
         {"units": [{**VAR_UNIT, "el_order": True, "net_identity_crossings": []}]}),
        "variational_report.json key units[0].el_order must be float"),
    "variational-check-bool-bound": (
        VAR_MANIFEST, _crossing(bound=True),
        "variational_report.json key units[0].net_identity_crossings[0].bound must be float"),
    "train-environment-threads-text": (
        _environment(blas_threads=["2"]), None,
        "manifest.json key environment.blas_threads[0] must be int"),
    "train-environment-threads-bool": (
        _environment(blas_threads=[1, True]), None,
        "manifest.json key environment.blas_threads[1] must be int"),
    "train-environment-threads-not-list": (
        _environment(blas_threads=1), None,
        "manifest.json key environment.blas_threads must be a list"),
    "train-environment-malloc-text": (
        _environment(malloc="glibc"), None,
        "manifest.json key environment.malloc must be an object"),
    "train-environment-malloc-nan": (
        _environment(malloc={"mmap_threshold": float("nan"), "trim_threshold": 1 << 30}), None,
        "manifest.json key environment.malloc.mmap_threshold must be int"),
    "train-environment-malloc-unknown": (
        _environment(malloc={"arena_max": 1}), None,
        "unknown manifest.json key environment.malloc.arena_max"),
    "train-environment-thread-var-infinite": (
        _environment(thread_vars={**dict.fromkeys(THREAD_VARS), "OMP_NUM_THREADS": float("inf")}),
        None,
        "manifest.json key environment.thread_vars.OMP_NUM_THREADS must be str"),
    "variational-check-text-time": (
        VAR_MANIFEST, _crossing(time="0.5"),
        "variational_report.json key units[0].net_identity_crossings[0].time must be float"),
    # json reads NaN and Infinity as numbers, which a report must not judge
    "variational-check-nan-order": (
        VAR_MANIFEST,
        ("variational_report.json",
         {"units": [{**VAR_UNIT, "el_order": float("nan"), "net_identity_crossings": []}]}),
        "variational_report.json key units[0].el_order must be finite"),
    "variational-check-nan-residual": (
        VAR_MANIFEST, _crossing(residual=float("nan")),
        "variational_report.json key units[0].net_identity_crossings[0].residual must be finite"),
    "invariance-infinite-tolerance": (
        INV_MANIFEST, _rows(rel_dev=0.5, tolerance=float("inf")),
        "invariance_report.json key rows[0].tolerance must be finite"),
    "train-markers-missing": (TRAIN_MANIFEST, None, "markers.csv: No such file or directory"),
    "train-markers-no-header": (TRAIN_MANIFEST, ("markers.csv", "0,entropy_min,3.0,0.1\n"),
                                "markers.csv does not start with the header"),
    "train-markers-short-row": (TRAIN_MANIFEST,
                                ("markers.csv", f"{MARKERS_HEADER}\n0,entropy_min,3.0\n"),
                                "markers.csv line 2 is not a marker row"),
    "train-markers-text-layer": (TRAIN_MANIFEST,
                                 ("markers.csv", f"{MARKERS_HEADER}\nx,flow_peak,2.0,0.5\n"),
                                 "markers.csv line 2 is not a marker row"),
    "train-markers-unknown-kind": (TRAIN_MANIFEST,
                                   ("markers.csv", f"{MARKERS_HEADER}\n0,flow_dip,2.0,0.5\n"),
                                   "markers.csv line 2 is not a marker row"),
    "train-markers-non-finite": (TRAIN_MANIFEST,
                                 ("markers.csv", f"{MARKERS_HEADER}\n0,entropy_min,nan,inf\n"),
                                 "markers.csv line 2 is not a marker row"),
}


def test_report_prints_the_environment_keys_the_manifest_holds(tmp_path, capsys):
    """Every thread variable and malloc threshold of the manifest is on the
    environment line, in sorted order; a null one reads unset or refused. A
    null BLAS name reads unknown, and a null BLAS version is left out."""
    env = {"thread_vars": {"MKL_NUM_THREADS": None, "OMP_NUM_THREADS": "1",
                           "OPENBLAS_NUM_THREADS": None},
           "malloc": {"mmap_threshold": 1 << 25, "trim_threshold": None}}
    (tmp_path / "manifest.json").write_text(json.dumps(_environment(**env)))
    (tmp_path / TRAIN_MARKERS[0]).write_text(TRAIN_MARKERS[1])
    assert main(["report", "--out", str(tmp_path)]) == 0
    (line,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("environment:")]
    assert (", numpy 2, BLAS unknown, MKL_NUM_THREADS=unset OMP_NUM_THREADS=1 "
            "OPENBLAS_NUM_THREADS=unset, "
            "malloc mmap_threshold=33554432 trim_threshold=refused, ") in line


@pytest.mark.parametrize("command", sorted(BAD_RUN_DIRS))
def test_report_on_incomplete_run_exits_2_with_one_line(tmp_path, capsys, command):
    manifest, report, needle = BAD_RUN_DIRS[command]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    if report is not None:
        name, body = report
        (tmp_path / name).write_text(body if isinstance(body, str) else json.dumps(body))
    rc = main(["report", "--out", str(tmp_path)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and needle in err


def test_data_keys_of_another_source_are_rejected(tmp_path, capsys):
    rc, _ = _train(tmp_path, _with(TRAIN_CFG, "data", value=0.5))
    assert rc == 2
    assert "data.value" in capsys.readouterr().err


# One small config per command; the boundary sweep varies each in turn.
BOUNDARY_CFGS = {
    "train": TRAIN_CFG,
    "invariance": INV_CFG,
    "variational-check": {"seed": 0, "run": {"dt": 0.05, "steps": 4},
                          "variational": {"units": [[0, 0, 0]]}},
}
BOUNDARY_VALUES = (0, -1, 1e-308, 1e308)


def _boundary_variants(value, where=""):
    """(where, variant) pairs: value with one of its numbers set to each of
    BOUNDARY_VALUES, or one of its lists emptied, where naming the key."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        yield where, []
        items = enumerate(value)
    else:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield from ((f"{where}={v:g}", v) for v in BOUNDARY_VALUES)
        return
    for key, sub in items:
        for name, variant in _boundary_variants(sub, f"{where}[{key}]"):
            copy = dict(value) if isinstance(value, dict) else list(value)
            copy[key] = variant
            yield name, copy


def test_boundary_values_end_in_a_documented_outcome(tmp_path, capsys):
    """Each number of each command's config set to 0, -1, 1e-308 and 1e308 in
    turn, and each list emptied: every run exits 0, 1 or 2 without raising,
    with at most one error line (train draws its SVGs)."""
    failures = []
    for command, base in BOUNDARY_CFGS.items():
        for i, (where, cfg) in enumerate(_boundary_variants(base)):
            out = tmp_path / f"{command}-{i}"
            try:
                rc = main([command, "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
            except Exception as exc:
                failures.append(f"{command} {where}: raised {exc!r}")
                continue
            err = capsys.readouterr().err
            if rc not in (0, 1, 2) or err.count("error:") > 1:
                failures.append(f"{command} {where}: exit {rc}, stderr {err!r}")
    assert not failures, failures


# A small run of each command, and every number report prints or judges in
# the JSON files it writes, as a key path in each file.
RUN_FILE_CFGS = {"train": TRAIN_CFG, "invariance": INV_CFG,
                 "variational-check": {"seed": 4, "run": {"dt": 0.05, "steps": 120}}}
MANIFEST_NUMBERS = [("resolved", "eta_times_K"), ("resolved", "layers"),
                    ("resolved", "samples"), ("environment", "blas_threads", 0)]
REPORT_NUMBERS = {
    "train": {"manifest.json": MANIFEST_NUMBERS},
    "invariance": {"manifest.json": MANIFEST_NUMBERS,
                   "invariance_report.json": [("rows", 0, "rel_dev"), ("rows", 0, "tolerance")]},
    "variational-check": {
        "manifest.json": MANIFEST_NUMBERS,
        "variational_report.json": [
            *(("units", 0, key) for key in ("action_entropy", "entropy_by_definition",
                                            "el_residual_max", "el_order")),
            ("units", 0, "selection", 0),
            *(("units", 0, "net_identity_crossings", 0, key)
              for key in ("time", "residual", "bound"))]},
}


def test_report_rejects_a_run_file_number_that_is_not_a_finite_number(tmp_path, capsys):
    """Each number of REPORT_NUMBERS set to NaN, Infinity, true and "x" in
    turn: report exits 2 with one error line and prints nothing, as the
    config resolver does for a config number."""
    failures = []
    for command, files in REPORT_NUMBERS.items():
        out = tmp_path / command
        config = _write_cfg(tmp_path, RUN_FILE_CFGS[command])
        charts = ["--no-svg"] if command == "train" else []
        assert main([command, "--config", config, "--out", str(out), *charts]) == 0
        for name, paths in files.items():
            whole = (out / name).read_text()
            for path in paths:
                for bad in (float("nan"), float("inf"), True, "x"):
                    data = json.loads(whole)
                    target = data
                    for key in path[:-1]:
                        target = target[key]
                    target[path[-1]] = bad
                    (out / name).write_text(json.dumps(data))
                    capsys.readouterr()
                    rc = main(["report", "--out", str(out)])
                    printed, err = capsys.readouterr()
                    if (rc, printed, err.count("\n"), err[:6]) != (2, "", 1, "error:"):
                        failures.append(f"{command} {name} {path} = {bad!r}: exit {rc}, "
                                        f"stdout {printed!r}, stderr {err!r}")
            (out / name).write_text(whole)
    assert not failures, failures


# The characteristic time, layer count and sample count of each run of
# RUN_FILE_CFGS, and the (eta, steps) of each of its runs: variational-check
# halves dt by default.
RUN_FILE_RESOLVED = {"train": (0.05 * 6, 2, 24, [(0.05, 6)]),
                     "invariance": (0.2, 1, 16, [(0.01, 20), (0.005, 40)]),
                     "variational-check": (0.05 * 120, 1, 1, [(0.05, 120), (0.025, 240)])}


@pytest.mark.parametrize("command", sorted(RUN_FILE_CFGS))
def test_every_manifest_has_one_shape(tmp_path, capsys, command):
    """Each command's manifest passes MANIFEST alone, its resolved block has
    the same keys whatever the command and lists every run the command
    made, and its report prints the characteristic time and the layers line
    as lines 3 and 4."""
    out = tmp_path / "out"
    charts = ["--no-svg"] if command == "train" else []
    config = _write_cfg(tmp_path, RUN_FILE_CFGS[command])
    assert main([command, "--config", config, "--out", str(out), *charts]) == 0
    manifest = _check(json.loads((out / "manifest.json").read_text()), MANIFEST, "",
                      "manifest.json")
    T, layers, samples, runs = RUN_FILE_RESOLVED[command]
    resolved = manifest["resolved"]
    assert sorted(resolved) == ["eta_times_K", "layers", "runs", "samples"]
    assert [resolved[k] for k in ("eta_times_K", "layers", "samples")] == [T, layers, samples]
    assert [(r["eta"], r["steps"]) for r in resolved["runs"]] == runs
    for r in resolved["runs"]:
        assert sorted(r) == ["eta", "eta_times_K", "steps"]
        assert r["eta_times_K"] == r["eta"] * r["steps"]
    assert capsys.readouterr().out.splitlines()[2:4] == [
        f"characteristic time eta*K = {T}", f"layers: {layers}, samples: {samples}"]


# ------------------------------------------------------------ entry point ---


def test_module_entry_point(tmp_path):
    path = Path(_write_cfg(tmp_path, TRAIN_CFG))
    proc = subprocess.run(
        [sys.executable, "-m", "ska", "train", "--config", str(path),
         "--out", str(tmp_path / "sub"), "--no-svg"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == f"ska {ska.__version__} train run in {tmp_path / 'sub'}"
    helped = subprocess.run([sys.executable, "-m", "ska", "--help"],
                            capture_output=True, text=True)
    assert helped.returncode == 0
    for sub in ("train", "invariance", "variational-check", "report"):
        assert sub in helped.stdout


SINGLE_UNIT = str(Path(__file__).resolve().parents[1] / "configs" / "single_unit.json")


@pytest.mark.parametrize("command,cfg,extra,patch,rc", [
    ("train", TRAIN_CFG, (), {}, 0),
    ("invariance", INV_CFG, (), {}, 0),
    ("invariance", INV_CFG, (), {"ska.invariance.TOLERANCE": 1e-9}, 1),
    ("variational-check", SINGLE_UNIT, (), {}, 0),
    ("variational-check", SINGLE_UNIT, (), {"ska.variational.EL_ORDER_FLOOR": 2.5}, 1),
    ("variational-check", SINGLE_UNIT, ("--seed", "0"), {}, 0),
], ids=["train", "invariance", "invariance-tight", "unit", "unit-floor-2.5", "unit-no-crossing"])
def test_a_command_prints_the_report_of_its_run(tmp_path, capsys, monkeypatch,
                                                command, cfg, extra, patch, rc):
    """A command's stdout is, line for line, what report prints on the
    directory it wrote, and both exit with the same code."""
    for name, value in patch.items():
        monkeypatch.setattr(name, value)
    config = cfg if isinstance(cfg, str) else _write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert main([command, "--config", config, "--out", out, *extra]) == rc
    ran = capsys.readouterr().out.splitlines()
    assert main(["report", "--out", out]) == rc
    assert ran == capsys.readouterr().out.splitlines()
    assert ran[0].startswith(f"ska {ska.__version__} {command} run in ")
