"""Config-driven command line: run experiments, write CSV traces, SVG charts, reports.

Commands: train, invariance, variational-check, report. Configs are JSON
with a fixed key schema (see README). Every command writes a manifest.json
echoing the fully resolved config so the exact run can be repeated from the
manifest alone. Exit codes: 0 success, 1 comparison failure, 2 usage,
config, input or IO error, reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, charts
from .data import Dataset, constant_dataset, from_idx, glyph_dataset, synthetic_blobs
from .dynamics import NetworkConfig, bounded_steps, init_network, run
from .invariance import (
    COMPARE_METRICS,
    InvarianceSpec,
    compare,
    resample_common_grid,
    run_family,
)
from .metrics import (
    TrajectoryTrace,
    find_entropy_minimum,
    find_flow_peak,
    find_zero_crossings,
)
from .variational import (
    action_entropy,
    el_residual,
    entropy_by_definition,
    extract_unit_trajectories,
    net_action_identity,
)

# Environment variables that set BLAS thread counts, recorded in the manifest.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Least Euler-Lagrange order under step halving that a variational-check
# passes: the residual of a second-order central difference should fall
# about 4x.
EL_ORDER_FLOOR = 1.8

TRACE_HEADER = "step,time,layer,entropy_step,entropy_cum,cosine,z_norm,flow_norm,net_step,net_cum"
MARKERS_HEADER = "layer,kind,step,value"


class ConfigError(ValueError):
    """Bad config file: unknown key, missing key, or invalid value."""


# ---------------------------------------------------------------- config ---

REQUIRED = object()  # table default: the key must be given
SEED = object()  # table default: the run's top-level seed

# A section table maps each key to (type, default | REQUIRED). A type is a
# Python type, a tuple of the allowed strings, a one-element list [type] for
# a list of that type, or a nested table. A float must be finite; an int is
# accepted where a float is expected. A null value counts as absent.
SECTIONS = {
    "network": {"layer_sizes": ([int], REQUIRED), "init_std_scale": (float, 1.0)},
    "run": {"dt": (float, REQUIRED), "steps": (int, REQUIRED)},
    "invariance": {
        "eta_list": ([float], REQUIRED),
        "total_time": (float, REQUIRED),
        "tolerance": (float, 0.02),
    },
    "variational": {"units": ([[int]], [[0, 0, 0]]), "dt_halving": (bool, True)},
}

# The data section reads the keys of its source's table besides these.
SOURCES = {
    "synthetic": {"n": (int, 512), "dim": (int, 64), "classes": (int, 8), "seed": (int, SEED),
                  "center_spacing": (float, 0.45), "std": (float, 0.08)},
    "glyphs": {"n": (int, 4096), "seed": (int, SEED)},
    "constant": {"n": (int, 1), "dim": (int, 1), "value": (float, 1.0)},
    "mnist": {"images": (str, REQUIRED), "limit": (int, None)},
}
DATA = {"source": (tuple(SOURCES), REQUIRED)}

# The sections each command reads, each with its default.
COMMANDS = {
    "train": {"network": REQUIRED, "run": REQUIRED, "data": REQUIRED},
    "invariance": {"network": REQUIRED, "data": REQUIRED, "invariance": REQUIRED},
    "variational-check": {"network": {"layer_sizes": [1, 1]}, "run": REQUIRED,
                          "data": {"source": "constant"}, "variational": {}},
}


def load_config(path) -> dict:
    """Read a JSON file whose top level is an object."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _value(value, kind, default, path: str):
    """A config value, or its default when absent, checked against its type."""
    if value is None:
        if default is REQUIRED:
            raise ConfigError(f"missing config key {path}")
        if default is None:
            return None
        value = default
    return _check(value, kind, path)


def _check(value, kind, path: str):
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config key {path} must be an object")
        unknown = [k for k in value if k not in kind]
        if unknown:
            raise ConfigError(f"unknown config key {_join(path, unknown[0])}")
        return {key: _value(value.get(key), sub, default, _join(path, key))
                for key, (sub, default) in kind.items()}
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key {path} must be a list")
        return [_check(v, kind[0], f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"config key {path} must be one of {', '.join(kind)}")
        return value
    if kind is float and type(value) is int:
        value = float(value)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"config key {path} must be {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"config key {path} must be finite")
    return value


def resolve_data(cfg: dict, default_seed: int) -> dict:
    """The data section of cfg, checked and completed from its source's table."""
    data = _value(cfg.get("data"), dict, REQUIRED, "data")
    source = _value(data.get("source"), tuple(SOURCES), REQUIRED, "data.source")
    keys = {k: (kind, default_seed if d is SEED else d) for k, (kind, d) in SOURCES[source].items()}
    return _check(data, {**DATA, **keys}, "data")


def _check_rules(c: dict) -> None:
    """Rules across keys that the tables cannot state."""
    sizes = c["network"]["layer_sizes"]
    if len(sizes) < 2 or min(sizes) < 1:
        raise ConfigError("network.layer_sizes must list 2+ positive integers")
    if c["network"]["init_std_scale"] < 0:
        raise ConfigError("network.init_std_scale must be nonnegative")
    for path, seed in (("seed", c["seed"]), ("data.seed", c["data"].get("seed"))):
        if seed is not None and seed < 0:
            raise ConfigError(f"config key {path} must be non-negative")
    limit = c["data"].get("limit")
    if limit is not None and limit < 1:
        # a negative limit would slice rows off the end of the IDX file
        raise ConfigError("config key data.limit must be positive")
    if "run" in c:
        if c["run"]["dt"] <= 0:
            raise ConfigError("run.dt must be positive")
        if bounded_steps(c["run"]["steps"], "run window") < 1:
            raise ConfigError("run.steps must be at least 1")
    if "variational" in c:
        if any(len(u) != 3 for u in c["variational"]["units"]):
            raise ConfigError("variational.units entries must be [layer, unit, sample]")
        if c["run"]["steps"] < 3:
            # el_residual is a central difference: it needs an interior sample
            raise ConfigError("run.steps must be at least 3 for variational-check")
        if c["variational"]["dt_halving"]:
            bounded_steps(2 * c["run"]["steps"], "run window at dt/2")


def resolve_config(args) -> dict:
    """The command's config, checked and completed from the tables.

    Commands run on this dict and their manifests echo it as "config", so
    the echo re-resolves to itself.
    """
    sections = COMMANDS[args.command]
    table = {"seed": (int, 0), **{name: (SECTIONS.get(name, dict), default)
                                  for name, default in sections.items()}}
    c = _check(load_config(args.config), table, "")
    if args.seed is not None:
        c["seed"] = args.seed
    c["data"] = resolve_data(c, c["seed"])
    _check_rules(c)
    return c


def build_dataset(spec: dict) -> Dataset:
    source = spec["source"]
    if source == "synthetic":
        return synthetic_blobs(
            spec["n"], spec["dim"], spec["classes"], spec["seed"],
            center_spacing=spec["center_spacing"], std=spec["std"],
        )
    if source == "glyphs":
        return glyph_dataset(spec["n"], spec["seed"])
    if source == "constant":
        return constant_dataset(spec["n"], spec["dim"], spec["value"])
    return from_idx(spec["images"], limit=spec["limit"])


# ------------------------------------------------------------- artifacts ---


def _cell(v) -> str:
    """A CSV cell: a float as its repr, NaN as an empty cell, else str(v)."""
    if isinstance(v, float):
        return repr(v) if v == v else ""
    return str(v)


def write_csv(path, header: str, rows) -> None:
    """The header line, then one line of _cell cells per row, streamed so
    the file's text is never held whole. Rows should hold Python scalars
    (from .tolist()), not numpy ones."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def write_trace_csv(path, trace: TrajectoryTrace) -> None:
    """One row per (step, layer), steps outer, in TRACE_HEADER's columns."""
    L = trace.n_layers
    columns = [np.repeat(trace.steps, L), np.repeat(trace.times, L),
               np.tile(np.arange(L), trace.n_steps)]
    columns += [trace.column(name).ravel() for name in TRACE_HEADER.split(",")[3:]]
    write_csv(path, TRACE_HEADER, zip(*(c.tolist() for c in columns)))


def trace_markers(trace: TrajectoryTrace) -> list:
    """(layer, kind, step, value) rows: extrema carry the metric value at the
    step, zero crossings carry the crossing time."""
    rows = []
    first = int(trace.steps[0])
    for l in range(trace.n_layers):
        k_min = find_entropy_minimum(trace, l)
        rows.append((l, "entropy_min", float(k_min), float(trace.entropy_step[k_min - first, l])))
        k_pk = find_flow_peak(trace, l)
        rows.append((l, "flow_peak", float(k_pk), float(trace.flow_norm[k_pk - first, l])))
        for pos in find_zero_crossings(trace, l):
            rows.append((l, "net_zero_crossing", float(pos), float(pos * trace.dt)))
    return rows


def write_markers_csv(path, trace: TrajectoryTrace) -> None:
    write_csv(path, MARKERS_HEADER, trace_markers(trace))


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def environment(traces) -> dict:
    """Python, numpy and BLAS of this process, the BLAS thread variables, and
    the BLAS thread count each of the command's runs used."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": [trace.blas_threads for trace in traces],
    }


def write_manifest(out_dir: Path, command: str, config: dict, resolved: dict,
                   artifacts: list, t0: float, traces) -> None:
    manifest = {
        "tool": "ska",
        "version": __version__,
        "command": command,
        "config": config,
        "resolved": resolved,
        "artifacts": sorted(artifacts),
        "environment": environment(traces),
        "duration_seconds": round(time.perf_counter() - t0, 3),
    }
    write_json(out_dir / "manifest.json", manifest)


def train_charts(out_dir: Path, trace: TrajectoryTrace) -> list:
    steps = trace.steps.astype(float)
    L = trace.n_layers
    col = lambda name, l: trace.column(name)[:, l]
    written = []

    def chart(name, title, x_label, y_label, series, markers=()):
        svg = charts.line_chart(series, title=title, x_label=x_label,
                                y_label=y_label, markers=list(markers))
        (out_dir / name).write_text(svg)
        written.append(name)

    def layer_series(xname, yname):
        out = []
        for l in range(L):
            x = steps if xname == "step" else col(xname, l)
            out.append(charts.Series(f"layer {l}", x, col(yname, l),
                                     charts.COLORS[l % len(charts.COLORS)]))
        return out

    ent_marks = []
    for l in range(L):
        k = find_entropy_minimum(trace, l)
        ent_marks.append(charts.Marker(float(k), float(trace.entropy_step[k - 1, l]),
                                       charts.COLORS[l % len(charts.COLORS)], f"min L{l}"))
    chart("entropy_vs_step.svg", "Per-step entropy", "step", "entropy",
          layer_series("step", "entropy_step"), ent_marks)

    chart("cosine_vs_step.svg", "Knowledge and decision-shift alignment", "step",
          "cosine", layer_series("step", "cosine"))

    flow_marks = []
    for l in range(L):
        k = find_flow_peak(trace, l)
        flow_marks.append(charts.Marker(float(k), float(trace.flow_norm[k - 1, l]),
                                        charts.COLORS[l % len(charts.COLORS)], f"peak L{l}"))
    chart("flow_vs_step.svg", "Knowledge flow", "step", "flow norm",
          layer_series("step", "flow_norm"), flow_marks)

    chart("flow_vs_znorm.svg", "Knowledge flow against knowledge norm",
          "knowledge norm", "flow norm", layer_series("z_norm", "flow_norm"))

    cross_marks = []
    for l in range(L):
        for pos in find_zero_crossings(trace, l):
            cross_marks.append(charts.Marker(float(pos), 0.0,
                                             charts.COLORS[l % len(charts.COLORS)], ""))
    chart("net_vs_step.svg", "Cumulative net", "step", "net",
          layer_series("step", "net_cum"), cross_marks)

    zn_marks = []
    for l in range(L):
        for pos in find_zero_crossings(trace, l):
            zx = float(np.interp(pos, steps, col("z_norm", l)))
            zn_marks.append(charts.Marker(zx, 0.0, charts.COLORS[l % len(charts.COLORS)], ""))
    chart("net_vs_znorm.svg", "Cumulative net against knowledge norm",
          "knowledge norm", "net", layer_series("z_norm", "net_cum"), zn_marks)
    return written


# -------------------------------------------------------------- commands ---


def _run(c: dict, ds: Dataset, dt: float, steps: int, record_units=None) -> TrajectoryTrace:
    """One run of the configured network on ds."""
    config = NetworkConfig(
        layer_sizes=c["network"]["layer_sizes"], dt=dt, steps=steps,
        init_std_scale=c["network"]["init_std_scale"], seed=c["seed"],
    )
    return run(init_network(config), ds, record_units=record_units)


def cmd_train(args, c: dict, t0: float) -> int:
    out_dir = args.out
    ds = build_dataset(c["data"])
    trace = _run(c, ds, c["run"]["dt"], c["run"]["steps"])

    artifacts = ["trace.csv", "markers.csv", "manifest.json"]
    write_trace_csv(out_dir / "trace.csv", trace)
    write_markers_csv(out_dir / "markers.csv", trace)
    if args.svg:
        artifacts += train_charts(out_dir, trace)

    resolved = {
        "eta": c["run"]["dt"],
        "steps": c["run"]["steps"],
        "eta_times_K": c["run"]["dt"] * c["run"]["steps"],
        "layers": len(c["network"]["layer_sizes"]) - 1,
        "samples": ds.n,
    }
    write_manifest(out_dir, "train", c, resolved, artifacts, t0, [trace])
    print(f"train: {trace.n_steps} steps x {trace.n_layers} layers, "
          f"eta*K = {resolved['eta_times_K']:g}, wrote {len(artifacts)} files to {out_dir}")
    return 0


def cmd_invariance(args, c: dict, t0: float) -> int:
    out_dir = args.out
    inv = c["invariance"]
    spec = InvarianceSpec(
        total_time=inv["total_time"],
        eta_list=inv["eta_list"],
        layer_sizes=c["network"]["layer_sizes"],
        seed=c["seed"],
        dataset=build_dataset(c["data"]),
        init_std_scale=c["network"]["init_std_scale"],
        tolerance=inv["tolerance"],
    )
    runs = run_family(spec)
    artifacts = ["aligned.csv", "invariance_report.csv", "invariance_report.json", "manifest.json"]
    for i, fr in enumerate(runs):
        name = f"trace_run{i}_eta{fr.eta:g}.csv"
        write_trace_csv(out_dir / name, fr.trace)
        artifacts.append(name)

    aligned = resample_common_grid(runs)
    grid = aligned.grid.tolist()
    rows = []
    for lab, eta in zip(aligned.labels, aligned.etas):
        for metric in COMPARE_METRICS:
            vals = aligned.values(lab, metric)
            for l in range(vals.shape[1]):
                rows += [(metric, lab, float(eta), l, t, v)
                         for t, v in zip(grid, vals[:, l].tolist())]
    write_csv(out_dir / "aligned.csv", "metric,run,eta,layer,time,value", rows)

    report = compare(aligned, tolerance=spec.tolerance)
    words = {None: "incomparable", True: "pass", False: "fail"}
    write_csv(out_dir / "invariance_report.csv",
              "metric,run,eta,reference_eta,sup_dev,rel_dev,tolerance,passed",
              [(r.metric, r.label, r.eta, r.reference_eta, r.sup_dev, r.rel_dev,
                r.tolerance, words[r.passed]) for r in report.rows])

    write_json(out_dir / "invariance_report.json", {
        "reference": report.reference_label,
        "reference_eta": report.reference_eta,
        "tolerance_base": report.tolerance_base,
        "all_pass": report.all_pass,
        "rows": [{
            "metric": r.metric,
            "run": r.label,
            "eta": r.eta,
            "reference_eta": r.reference_eta,
            "sup_dev": r.sup_dev,
            "rel_dev": r.rel_dev,
            "tolerance": r.tolerance,
            "passed": r.passed,
            "per_layer": {str(l): {"dev": d, "rel": rel, "range": rng}
                          for l, (d, rel, rng) in r.per_layer.items()},
        } for r in report.rows],
    })

    resolved = {
        "runs": [{"label": fr.label, "eta": fr.eta, "steps": fr.steps,
                  "eta_times_K": fr.realized_product} for fr in runs],
        "all_pass": report.all_pass,
    }
    write_manifest(out_dir, "invariance", c, resolved, artifacts, t0,
                   [fr.trace for fr in runs])
    verdict = "PASS" if report.all_pass else "FAIL"
    print(f"invariance: {len(runs)} runs, {len(report.rows)} compared rows, {verdict}")
    return 0 if report.all_pass else 1


def unit_faults(unit: dict) -> tuple:
    """The faults of one variational-check unit: "below EL_ORDER_FLOOR" when
    its measured EL order is under that floor, else "", and for each of its
    crossings whether the residual is over its bound. Any fault fails."""
    order = unit.get("el_order")
    low = f"below {EL_ORDER_FLOOR}" if order is not None and order < EL_ORDER_FLOOR else ""
    return low, ["bound" in c and c["residual"] > c["bound"]
                 for c in unit["net_identity_crossings"]]


def cmd_variational(args, c: dict, t0: float) -> int:
    out_dir = args.out
    ds = build_dataset(c["data"])
    dt, steps = c["run"]["dt"], c["run"]["steps"]
    units, halving = c["variational"]["units"], c["variational"]["dt_halving"]
    trace = _run(c, ds, dt, steps, units)
    traces = [trace]
    trajs = extract_unit_trajectories(trace, units)
    trajs_half = None
    if halving:
        traces.append(_run(c, ds, dt / 2.0, steps * 2, units))
        trajs_half = extract_unit_trajectories(traces[1], units)

    unit_reports = []
    for i, sel in enumerate(units):
        traj = trajs[i]
        norm = float(np.abs(el_residual(traj)).max())
        entry = {
            "selection": sel,
            "action_entropy": float(action_entropy(traj)),
            "entropy_by_definition": float(entropy_by_definition(traj)),
            "el_residual_max": norm,
        }
        if trajs_half is not None:
            norm_h = float(np.abs(el_residual(trajs_half[i])).max())
            entry["el_residual_max_half"] = norm_h
            entry["el_order"] = float(math.log2(norm / norm_h)) if norm > 0 and norm_h > 0 else None
        # the net-action residual at a crossing is a leftover of the last
        # few increments of z, so it is held to 10 * dt * max|zdot|
        zdot_max = float(np.abs(np.diff(traj.z)).max()) / dt
        bound = 10.0 * dt * zdot_max
        crossings = []
        for pos in find_zero_crossings(trace, sel[0]):
            ct = float(pos * trace.dt)
            if ct <= float(traj.t[-1]):
                crossings.append({
                    "step": float(pos),
                    "time": ct,
                    "residual": float(net_action_identity(traj, ct)),
                    "bound": bound,
                })
        entry["net_identity_crossings"] = crossings
        unit_reports.append(entry)

    payload = {
        "dt": dt,
        "steps": steps,
        "dt_halving": halving,
        "units": unit_reports,
    }
    write_json(out_dir / "variational_report.json", payload)
    resolved = {"eta_times_K": dt * steps, "recorded_units": len(units)}
    artifacts = ["variational_report.json", "manifest.json"]
    write_manifest(out_dir, "variational-check", c, resolved, artifacts, t0, traces)
    passed = not any(low or any(over) for low, over in map(unit_faults, unit_reports))
    print(f"variational-check: {len(units)} unit(s), "
          f"el_residual_max = {unit_reports[0]['el_residual_max']:.3g}, "
          + ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


# What a value cmd_report formats as a number, or reads as a verdict, must
# be: the Python types json gives it, and their JSON name.
NUMBER = ((int, float), "a number")
NUMBER_OR_NULL = ((int, float, type(None)), "a number or null")
VERDICT = ((bool, type(None)), "true, false or null")
OBJECT = ((dict,), "an object")
LIST = ((list,), "a list")


def _fields(obj, where: str, keys, kinds=None) -> dict:
    """obj, checked to be a JSON object that holds every one of keys, where
    each key of kinds that obj holds has a value of the kind given there."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ConfigError(f"{where} has no key {key}")
    for key, (types, name) in (kinds or {}).items():
        if key in obj and not isinstance(obj[key], types):
            raise ConfigError(f"{where} key {key} must be {name}, not {json.dumps(obj[key])}")
    return obj


def _items(obj, where: str, keys, kinds=None) -> list:
    """obj, checked to be a JSON list of objects that each pass _fields."""
    if not isinstance(obj, list):
        raise ConfigError(f"{where} must be a JSON list")
    return [_fields(item, f"{where}[{i}]", keys, kinds) for i, item in enumerate(obj)]


def environment_line(manifest: dict) -> str | None:
    """The manifest's environment block as one line, or None when it has none."""
    if "environment" not in manifest:
        return None
    env = _fields(manifest["environment"], "manifest.json environment",
                  ("python", "numpy", "blas", "thread_vars", "blas_threads"),
                  {"blas": OBJECT, "thread_vars": OBJECT, "blas_threads": LIST})
    blas = env["blas"]
    thread_vars = " ".join(f"{k}={'unset' if v is None else v}"
                           for k, v in env["thread_vars"].items())
    threads = " ".join("?" if t is None else str(t) for t in env["blas_threads"])
    return (f"environment: Python {env['python']}, numpy {env['numpy']}, "
            f"BLAS {blas.get('name')} {blas.get('version')}, {thread_vars}, "
            f"BLAS threads per run: {threads}")


def cmd_report(args) -> int:
    out_dir = args.out
    manifest = load_config(out_dir / "manifest.json")
    command = manifest.get("command", "?")
    print(f"ska {manifest.get('version', '?')} {command} run in {out_dir}")
    env_line = environment_line(manifest)
    if env_line is not None:
        print(env_line)

    if command == "train":
        resolved = _fields(manifest.get("resolved"), "manifest.json resolved",
                           ("eta_times_K", "layers", "samples"))
        print(f"characteristic time eta*K = {resolved['eta_times_K']}")
        print(f"layers: {resolved['layers']}, samples: {resolved['samples']}")
        markers_path = out_dir / "markers.csv"
        if markers_path.exists():
            by_layer = {}
            for line in markers_path.read_text().splitlines()[1:]:
                layer, kind, step_v, value = line.split(",")
                by_layer.setdefault(int(layer), []).append((kind, step_v, value))
            for layer in sorted(by_layer):
                parts = []
                for kind, step_v, value in by_layer[layer]:
                    if kind == "net_zero_crossing":
                        parts.append(f"net crossing at step {step_v} (t = {value})")
                    elif kind == "entropy_min":
                        parts.append(f"entropy min at step {float(step_v):g}")
                    else:
                        parts.append(f"flow peak at step {float(step_v):g}")
                print(f"layer {layer}: " + "; ".join(parts))
        print("PASS")
    elif command == "invariance":
        cfg = _fields(manifest.get("config"), "manifest.json config", ("invariance",))
        inv = _fields(cfg["invariance"], "manifest.json config.invariance", ("total_time",))
        print(f"characteristic time eta*K = {inv['total_time']}")
        report = _fields(load_config(out_dir / "invariance_report.json"),
                         "invariance_report.json", ("rows", "all_pass"))
        rows = _items(report["rows"], "invariance_report.json rows",
                      ("metric", "run", "rel_dev", "tolerance", "passed"),
                      {"rel_dev": NUMBER_OR_NULL, "tolerance": NUMBER, "passed": VERDICT})
        for row in rows:
            word = {True: "pass", False: "FAIL", None: "incomparable"}[row["passed"]]
            rel = "nan" if row["rel_dev"] is None else f"{row['rel_dev']:.4f}"
            print(f"{row['metric']} {row['run']}: rel_dev {rel} "
                  f"tol {row['tolerance']:.4f} {word}")
        # the row with the least room under its tolerance, or furthest past it
        measured = [r for r in rows if r["rel_dev"] is not None]
        if measured:
            w = max(measured, key=lambda r: r["rel_dev"] - r["tolerance"])
            print(f"worst row: {w['metric']} {w['run']}, rel_dev {w['rel_dev']:.4f} "
                  f"against tol {w['tolerance']:.4f}")
        print("PASS" if report["all_pass"] else "FAIL")
        return 0 if report["all_pass"] else 1
    elif command == "variational-check":
        resolved = _fields(manifest.get("resolved"), "manifest.json resolved", ("eta_times_K",))
        print(f"characteristic time eta*K = {resolved['eta_times_K']}")
        report = _fields(load_config(out_dir / "variational_report.json"),
                         "variational_report.json", ("units",))
        units = _items(report["units"], "variational_report.json units",
                       ("selection", "action_entropy", "entropy_by_definition",
                        "el_residual_max", "net_identity_crossings"),
                       {"action_entropy": NUMBER, "entropy_by_definition": NUMBER,
                        "el_residual_max": NUMBER, "el_order": NUMBER_OR_NULL})
        passed = True
        for i, unit in enumerate(units):
            crossings = _items(unit["net_identity_crossings"],
                               f"variational_report.json units[{i}].net_identity_crossings",
                               ("time", "residual"),
                               {"time": NUMBER, "residual": NUMBER, "bound": NUMBER})
            low, over = unit_faults(unit)
            passed &= not (low or any(over))
            order = unit.get("el_order")
            print(f"unit {unit['selection']}: action {unit['action_entropy']:.6g}, "
                  f"entropy {unit['entropy_by_definition']:.6g}, "
                  f"el residual {unit['el_residual_max']:.3g}"
                  + (f", order {order:.2f}" if order is not None else "")
                  + (f" {low} FAIL" if low else ""))
            for c, bad in zip(crossings, over):
                print(f"  crossing t = {c['time']:.4g}: net identity residual {c['residual']:.3g}"
                      + (f", bound {c['bound']:.3g}" if "bound" in c else "")
                      + (" FAIL" if bad else ""))
        print("PASS" if passed else "FAIL")
        return 0 if passed else 1
    else:
        raise ConfigError(f"unknown command {command!r} in manifest")
    return 0


# ------------------------------------------------------------ entry point ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ska",
        description="Forward-only entropy-driven learning runs with CSV/SVG artifacts.",
    )
    parser.add_argument("--version", action="version", version=f"ska {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p_train = sub.add_parser("train", help="single run with trace, markers, charts")
    add_common(p_train)
    p_train.add_argument("--svg", action=argparse.BooleanOptionalAction, default=True,
                         help="write SVG charts (default on)")
    p_train.set_defaults(func=cmd_train)

    p_inv = sub.add_parser("invariance", help="fixed eta*K family comparison")
    add_common(p_inv)
    p_inv.set_defaults(func=cmd_invariance)

    p_var = sub.add_parser("variational-check", help="unit-trajectory identity checks")
    add_common(p_var)
    p_var.set_defaults(func=cmd_variational)

    p_rep = sub.add_parser("report", help="summarize a finished run directory")
    p_rep.add_argument("--out", type=Path, required=True, help="directory holding manifest.json")
    return parser


def main(argv=None) -> int:
    """Run one command; every library or config error exits 2 with one line.

    numpy's floating-point warnings are off inside a command: a run whose
    metrics go non-finite stops with its own error line instead.
    """
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        with np.errstate(all="ignore"):
            if args.command == "report":
                return cmd_report(args)
            c = resolve_config(args)
            args.out.mkdir(parents=True, exist_ok=True)
            return args.func(args, c, t0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
