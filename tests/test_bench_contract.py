"""The names the benchmark in perfbench/ reaches into ska by.

perfbench/tracer.py wraps every function its WRAPPED table lists at
ska.<layer>, and perfbench/child.py calls a few ska.cli functions and
replaces the module-global run in ska.cli and ska.invariance. Both files
are only read here. A function pruned or renamed under one of these names,
or a call count that no longer follows perfbench/workloads.py, would break
the traced benchmark run; these checks fail first.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ska.cli
import ska.invariance

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves_on_its_layer():
    for layer, functions in _load("tracer").WRAPPED.items():
        home = importlib.import_module(f"ska.{layer}")
        for fname in functions:
            owner = home
            *classes, attr = fname.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            assert callable(vars(owner).get(attr)), f"ska.{layer}.{fname}"


def test_cli_names_the_child_uses_exist():
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "ska.cli"}
    assert {"load_config", "resolve_data", "build_dataset", "main"} <= used
    for name in used:
        assert callable(getattr(ska.cli, name, None)), f"ska.cli.{name}"


def test_workload_configs_resolve_through_the_child_path():
    for name, workload in _load("workloads").WORKLOADS.items():
        cfg = workload["config"]
        spec = ska.cli.resolve_data(cfg, cfg["seed"])
        assert spec["source"] == cfg["data"]["source"], name


def test_runs_go_through_the_module_global_run(tmp_path, monkeypatch):
    calls = []
    for module in (ska.cli, ska.invariance):
        def counted(*args, _run=module.run, _name=module.__name__, **kwargs):
            calls.append(_name)
            return _run(*args, **kwargs)

        monkeypatch.setattr(module, "run", counted)
    data = {"source": "constant", "n": 2, "dim": 2, "value": 0.5}
    net = {"layer_sizes": [2, 2]}
    configs = {
        "train": {"network": net, "run": {"dt": 0.1, "steps": 2}, "data": data},
        "variational-check": {"network": net, "run": {"dt": 0.1, "steps": 3}, "data": data},
        "invariance": {"network": net, "data": data,
                       "invariance": {"eta_list": [0.1, 0.05], "total_time": 0.2}},
    }
    for command, cfg in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        assert ska.cli.main([command, "--config", str(path), "--out", str(tmp_path / command)]) in (0, 1)
    # train: one run; variational-check: dt and dt/2; invariance: one per eta
    assert calls == ["ska.cli"] * 3 + ["ska.invariance"] * 2


# A miniature glyph-train config, and the configs/ files of the other two
# workloads: the same commands on smaller inputs than the frozen configs.
TRACED_CONFIGS = {
    "glyph-train": {"seed": 10, "network": {"layer_sizes": [784, 6, 3], "init_std_scale": 0.15},
                    "run": {"dt": 0.01, "steps": 3},
                    "data": {"source": "glyphs", "n": 16, "seed": 7}},
    "family-invariance": json.loads((ROOT / "configs" / "invariance_family.json").read_text()),
    "unit-variational": json.loads((ROOT / "configs" / "single_unit.json").read_text()),
}


@pytest.mark.parametrize("name", sorted(TRACED_CONFIGS))
def test_traced_child_makes_the_calls_the_config_implies(tmp_path, name):
    """One iteration of each workload through child.py --traced, checked as
    run.py --trace 1 checks it: every count expected_counts derives from
    the config, and no wrapped call raised."""
    cfg = TRACED_CONFIGS[name]
    config, result_path = tmp_path / "config.json", tmp_path / "result.json"
    config.write_text(json.dumps(cfg))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), name, str(config),
         str(out), str(result_path), "--traced"],
        env=env, capture_output=True, text=True, timeout=120)
    result = json.loads(result_path.read_text())
    assert result["ok"], result.get("error") or proc.stderr
    assert result["errors"] == {}
    with np.load(result_path.with_suffix(".npz")) as spans:
        layers = _load("tracer").layer_metrics(spans, result["work"], result["errors"])
    crossings = 0
    if name == "unit-variational":
        # each crossing adds identity calls; run.py counts them off the report
        report = json.loads((out / "variational_report.json").read_text())
        crossings = sum(len(u["net_identity_crossings"]) for u in report["units"])
    expected = _load("workloads").expected_counts(name, cfg, crossings)
    assert {k: layers[k] for k in expected} == expected
