"""The names the benchmark in perfbench/ reaches into ska by.

perfbench/tracer.py wraps every function its WRAPPED table lists at
ska.<layer>, and perfbench/child.py calls a few ska.cli functions and
replaces the module-global run in ska.cli and ska.invariance. Both files
are only read here. A function pruned or renamed under one of these names
would break the traced benchmark run; these checks fail first.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import ska.cli
import ska.invariance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
        "variational-check": {"network": net, "run": {"dt": 0.1, "steps": 2}, "data": data},
        "invariance": {"network": net, "data": data,
                       "invariance": {"eta_list": [0.1, 0.05], "total_time": 0.2}},
    }
    for command, cfg in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        assert ska.cli.main([command, "--config", str(path), "--out", str(tmp_path / command)]) in (0, 1)
    # train: one run; variational-check: dt and dt/2; invariance: one per eta
    assert calls == ["ska.cli"] * 3 + ["ska.invariance"] * 2
