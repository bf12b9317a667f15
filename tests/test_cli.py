"""End-to-end command tests: exit codes, artifact schemas, reproducibility.

Commands run in-process through cli.main so exit codes and stderr are
asserted directly; one subprocess test covers the module entry point.
"""

import json
import platform
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from ska.cli import MARKERS_HEADER, TRACE_HEADER, main

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
    assert lines[0] == TRACE_HEADER
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
    "invariance": {"eta_list": [0.02, 0.01], "total_time": 0.2, "tolerance": 0.5},
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
    assert (out / "trace_run0_eta0.02.csv").exists()
    assert (out / "trace_run1_eta0.01.csv").exists()
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


def test_invariance_failure_exits_1(tmp_path, capsys):
    cfg = dict(INV_CFG, invariance=dict(INV_CFG["invariance"], tolerance=1e-9))
    rc, out = _invariance(tmp_path, cfg, out="tight")
    assert rc == 1
    assert json.loads((out / "invariance_report.json").read_text())["all_pass"] is False
    rc2 = main(["report", "--out", str(out)])
    assert rc2 == 1
    assert "FAIL" in capsys.readouterr().out


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
    monkeypatch.setattr("ska.cli.EL_ORDER_FLOOR", floor)
    out = tmp_path / "var"
    config = str(Path(__file__).resolve().parents[1] / "configs" / "single_unit.json")
    assert main(["variational-check", "--config", config, "--out", str(out)]) == rc
    assert capsys.readouterr().out.rstrip().endswith(verdict)
    assert main(["report", "--out", str(out)]) == rc
    assert capsys.readouterr().out.splitlines()[-1] == verdict


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
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    (line,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("environment:")]
    assert f"numpy {np.__version__}" in line and "OPENBLAS_NUM_THREADS=2" in line
    assert "OMP_NUM_THREADS=unset" in line
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
    # a tolerance of zero or below would run the family only to fail it
    "tolerance-zero": ("invariance", _with(INV_CFG, "invariance", tolerance=0),
                       "tolerance must be positive"),
    "tolerance-negative": ("invariance", _with(INV_CFG, "invariance", tolerance=-1),
                           "tolerance must be positive"),
    # keys of deleted options: every step forwards the whole design matrix,
    # run.steps is the one run window, and a family compares every metric
    "data-batch": ("train", _with(TRAIN_CFG, "data", batch={"mode": "full"}),
                   "unknown config key data.batch"),
    "run-total-time": ("train", _with(TRAIN_CFG, "run", total_time=0.3),
                       "unknown config key run.total_time"),
    "invariance-metrics": ("invariance", _with(INV_CFG, "invariance", metrics=["cosine"]),
                           "unknown config key invariance.metrics"),
    "unit-out-of-range": ("variational-check", {"run": {"dt": 0.05, "steps": 4},
                                                "variational": {"units": [[0, 5, 0]]}},
                          "unit 5"),
    # a count past int64 stops in bounded_steps, before numpy sees it
    "window-overflows": ("train", _with(TRAIN_CFG, "run", steps=2**64),
                         "steps exceed the limit"),
    "steps-zero": ("train", _with(TRAIN_CFG, "run", steps=0), "run.steps must be at least 1"),
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
    # the limit is checked before the IDX files are read
    "idx-limit-negative": ("train", dict(TRAIN_CFG, data=_idx_data(-15)),
                           "config key data.limit must be positive"),
    "idx-limit-zero": ("train", dict(TRAIN_CFG, data=_idx_data(0)),
                       "config key data.limit must be positive"),
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
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, case):
    command, cfg, needle = BAD_INPUTS[case]
    path = _write_cfg(tmp_path, cfg)
    rc = main([command, "--config", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and needle in err


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


def test_corrupt_manifest_exits_2_with_one_line(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text('{"command": "train",')
    rc = main(["report", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "manifest.json" in err


# A finished run directory whose JSON parses but lacks a key report reads.
BAD_RUN_DIRS = {
    "train": ({"command": "train", "resolved": {"eta_times_K": 0.3, "layers": 2}}, None,
              "samples"),
    "invariance": ({"command": "invariance", "config": {"invariance": {"total_time": 0.2}}},
                   ("invariance_report.json", {}), "rows"),
    "variational-check": ({"command": "variational-check", "resolved": {"eta_times_K": 0.2}},
                          ("variational_report.json", {"units": [{"selection": [0, 0, 0]}]}),
                          "action_entropy"),
    # keys present, but holding values report cannot format
    "invariance-null-tolerance": (
        {"command": "invariance", "config": {"invariance": {"total_time": 0.2}}},
        ("invariance_report.json",
         {"all_pass": True, "rows": [{"metric": "cosine", "run": 1, "rel_dev": 0.01,
                                      "tolerance": None, "passed": True}]}),
        "rows[0] key tolerance must be a number, not null"),
    "invariance-text-verdict": (
        {"command": "invariance", "config": {"invariance": {"total_time": 0.2}}},
        ("invariance_report.json",
         {"all_pass": True, "rows": [{"metric": "cosine", "run": 1, "rel_dev": None,
                                      "tolerance": 0.02, "passed": "yes"}]}),
        'key passed must be true, false or null, not "yes"'),
    "train-environment-threads-not-list": (
        {"command": "train", "environment": {"python": "3", "numpy": "2", "blas": {},
                                             "thread_vars": {}, "blas_threads": 1}},
        None, "environment key blas_threads must be a list, not 1"),
    "variational-check-text-time": (
        {"command": "variational-check", "resolved": {"eta_times_K": 0.2}},
        ("variational_report.json",
         {"units": [{"selection": [0, 0, 0], "action_entropy": 0.1,
                     "entropy_by_definition": 0.1, "el_residual_max": 1e-6,
                     "net_identity_crossings": [{"time": "0.5", "residual": 0.0}]}]}),
        'net_identity_crossings[0] key time must be a number, not "0.5"'),
}


@pytest.mark.parametrize("command", sorted(BAD_RUN_DIRS))
def test_report_on_incomplete_run_exits_2_with_one_line(tmp_path, capsys, command):
    manifest, report, needle = BAD_RUN_DIRS[command]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    if report is not None:
        (tmp_path / report[0]).write_text(json.dumps(report[1]))
    rc = main(["report", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and needle in err


def test_data_keys_of_another_source_are_rejected(tmp_path, capsys):
    rc, _ = _train(tmp_path, _with(TRAIN_CFG, "data", value=0.5))
    assert rc == 2
    assert "data.value" in capsys.readouterr().err


# ------------------------------------------------------------ entry point ---


def test_module_entry_point(tmp_path):
    path = Path(_write_cfg(tmp_path, TRAIN_CFG))
    proc = subprocess.run(
        [sys.executable, "-m", "ska", "train", "--config", str(path),
         "--out", str(tmp_path / "sub"), "--no-svg"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "train:" in proc.stdout
    helped = subprocess.run([sys.executable, "-m", "ska", "--help"],
                            capture_output=True, text=True)
    assert helped.returncode == 0
    for sub in ("train", "invariance", "variational-check", "report"):
        assert sub in helped.stdout
