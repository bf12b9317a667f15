"""Config-driven command line: run experiments, write CSV traces, SVG charts, reports.

Commands: train, invariance, variational-check, report. Configs are JSON
with a fixed key schema (see README). Every command writes a manifest.json
echoing the fully resolved config so the exact run can be repeated from the
manifest alone, then prints the report of the directory it wrote and exits
with the report's code. Exit codes: 0 success, 1 comparison failure, 2
usage, config, input or IO error, reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__, charts, variational
from .data import Dataset, constant_dataset, from_idx, glyph_dataset, synthetic_blobs
from .dynamics import NetworkConfig, bounded_steps, init_network, run
from .invariance import (
    COMPARE_METRICS,
    compare,
    family_passed,
    resample_common_grid,
    row_passed,
    run_family,
)
from .linalg import _HEAP_POLICY, keep_heap
from .metrics import (
    COLUMNS,
    TrajectoryTrace,
    find_entropy_minimum,
    find_flow_peak,
    find_zero_crossings,
)

# Environment variables that set BLAS thread counts, recorded in the manifest.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TRACE_HEADER = ",".join(("step", "time", "layer") + COLUMNS)
MARKERS_HEADER = "layer,kind,step,value"


# ---------------------------------------------------------------- config ---

REQUIRED = object()  # table default: the key must be given
NULLABLE = object()  # table default: the key must be given, and may be null
SEED = object()  # table default: the run's top-level seed
MISSING = object()  # the value _check passes _value for an absent key


class Open(dict):
    """A table whose object may hold keys it does not list; they pass unread."""


# A table maps each key to (type, default | REQUIRED | NULLABLE). A type is a
# Python type, a tuple of the allowed strings, a list [type] of that type
# ([type, NULLABLE] when an item may be null), or a nested table. A float
# must be finite, an int is accepted where a float is expected, and a bool
# is never a number. A null value counts as absent, but a NULLABLE key must
# be present. Keys are checked in table order, so the first bad one is named.
SECTIONS = {
    "network": {"layer_sizes": ([int], REQUIRED), "init_std_scale": (float, 1.0)},
    "run": {"dt": (float, REQUIRED), "steps": (int, REQUIRED)},
    "invariance": {"eta_list": ([float], REQUIRED), "total_time": (float, REQUIRED)},
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


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


def load_config(path) -> dict:
    """Read a JSON file whose top level is an object."""
    text = _read(path)
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    return cfg


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _value(value, kind, default, path: str, label: str = "config"):
    """A value (MISSING when its key is absent), or its default when absent
    or null, checked against its type."""
    if value is MISSING or value is None:
        if default is REQUIRED or (default is NULLABLE and value is MISSING):
            raise ValueError(f"missing {label} key {path}")
        if default is None or default is NULLABLE:
            return None
        value = default
    return _check(value, kind, path, label)


def _check(value, kind, path: str, label: str = "config"):
    """value checked against the type kind, each table's defaults filled in.
    label names the file in messages: the config, or a run file report reads.
    An Open table's object keeps the keys the table does not list."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{label} key {path} must be an object")
        unknown = [] if isinstance(kind, Open) else [k for k in value if k not in kind]
        if unknown:
            raise ValueError(f"unknown {label} key {_join(path, unknown[0])}")
        checked = {key: _value(value.get(key, MISSING), sub, default, _join(path, key), label)
                   for key, (sub, default) in kind.items()}
        return {**value, **checked} if isinstance(kind, Open) else checked
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ValueError(f"{label} key {path} must be a list")
        return [None if v is None and NULLABLE in kind
                else _check(v, kind[0], f"{path}[{i}]", label) for i, v in enumerate(value)]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"{label} key {path} must be one of {', '.join(kind)}")
        return value
    if kind is float and type(value) is int:  # an int past the float range is no finite float
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{label} key {path} must be {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{label} key {path} must be finite")
    return value


def resolve_data(cfg: dict, default_seed: int) -> dict:
    """The data section of cfg, checked and completed from its source's table."""
    data = _value(cfg.get("data"), dict, REQUIRED, "data")
    source = _value(data.get("source"), tuple(SOURCES), REQUIRED, "data.source")
    keys = {k: (kind, default_seed if d is SEED else d) for k, (kind, d) in SOURCES[source].items()}
    return _check(data, {**DATA, **keys}, "data")


def _check_rules(c: dict) -> None:
    """The rules no ska object checks when it takes the value: NetworkConfig,
    run_family and the data builders check the keys they take."""
    for path, seed in (("seed", c["seed"]), ("data.seed", c["data"].get("seed"))):
        if seed is not None and seed < 0:
            # numpy's error for a negative seed does not name the key
            raise ValueError(f"config key {path} must be non-negative")
    if "variational" in c:
        if not c["variational"]["units"]:
            raise ValueError("variational.units must list at least one [layer, unit, sample]")
        if any(len(u) != 3 for u in c["variational"]["units"]):
            raise ValueError("variational.units entries must be [layer, unit, sample]")
        if c["run"]["steps"] < 3:
            # el_residual is a central difference: it needs an interior sample
            raise ValueError("run.steps must be at least 3 for variational-check")
        if c["variational"]["dt_halving"]:
            bounded_steps(2 * c["run"]["steps"], "run window at dt/2")


def resolve_config(args) -> dict:
    """The command's config, checked and completed from the tables.

    Commands run on this dict and their manifests echo it as "config", so
    the echo re-resolves to itself.
    """
    _, _, sections = COMMANDS[args.command]
    table = {"seed": (int, 0), **{name: (SECTIONS.get(name, dict), default)
                                  for name, default in sections.items()}}
    c = _check(load_config(args.config), table, "")
    if args.seed is not None:
        c["seed"] = args.seed
    c["data"] = resolve_data(c, c["seed"])
    _check_rules(c)
    return c


def build_dataset(spec: dict) -> Dataset:
    """The dataset of a resolved data section: its source's builder called
    with the section's other keys. The builders are looked up at each call,
    so a wrapper set on this module's names sees the call."""
    builders = {"synthetic": synthetic_blobs, "glyphs": glyph_dataset,
                "constant": constant_dataset, "mnist": from_idx}
    kwargs = dict(spec)
    return builders[kwargs.pop("source")](**kwargs)


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
    keys = product(zip(trace.steps.tolist(), trace.times.tolist()), range(trace.n_layers))
    rows = trace.values.reshape(-1, len(COLUMNS))
    write_csv(path, TRACE_HEADER,
              ((k, t, l, *row.tolist()) for ((k, t), l), row in zip(keys, rows)))


def trace_markers(trace: TrajectoryTrace) -> list:
    """(layer, kind, step, value) rows: extrema carry the metric value at the
    step, zero crossings carry the crossing time."""
    rows = []
    entropy, flow = trace.column("entropy_step"), trace.column("flow_norm")
    for l in range(trace.n_layers):
        k_min = find_entropy_minimum(trace, l)
        rows.append((l, "entropy_min", float(k_min), float(entropy[k_min - 1, l])))
        k_pk = find_flow_peak(trace, l)
        rows.append((l, "flow_peak", float(k_pk), float(flow[k_pk - 1, l])))
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
    """Python, numpy and BLAS of this process, the BLAS thread variables, the
    BLAS thread count each of the command's runs used, and the malloc policy
    main set."""
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
        "malloc": keep_heap(),
    }


def write_manifest(out_dir: Path, command: str, c: dict, samples: int,
                   artifacts: list, t0: float, traces) -> None:
    """Write manifest.json, listed in its own artifacts. resolved has one
    shape for every command: the window c asks for, the net's layers, the
    samples and each trace's eta, steps and product, in the runner's order."""
    window = (c["invariance"]["total_time"] if "invariance" in c
              else c["run"]["dt"] * c["run"]["steps"])
    manifest = {
        "tool": "ska",
        "version": __version__,
        "command": command,
        "config": c,
        "resolved": {"eta_times_K": window, "layers": len(c["network"]["layer_sizes"]) - 1,
                     "samples": samples,
                     "runs": [{"eta": t.dt, "steps": t.n_steps, "eta_times_K": t.dt * t.n_steps}
                              for t in traces]},
        "artifacts": sorted([*artifacts, "manifest.json"]),
        "environment": environment(traces),
        "duration_seconds": round(time.perf_counter() - t0, 3),
    }
    write_json(out_dir / "manifest.json", manifest)


def train_charts(out_dir: Path, trace: TrajectoryTrace) -> list:
    steps = trace.steps.astype(float)
    L = trace.n_layers
    col = lambda name, l: trace.column(name)[:, l]
    color = lambda l: charts.COLORS[l % len(charts.COLORS)]
    written = []

    def chart(name, title, x_label, y_label, series, markers=()):
        svg = charts.line_chart(series, title=title, x_label=x_label,
                                y_label=y_label, markers=list(markers))
        (out_dir / name).write_text(svg)
        written.append(name)

    def layer_series(xname, yname):
        return [charts.Series(f"layer {l}", steps if xname == "step" else col(xname, l),
                              col(yname, l), color(l)) for l in range(L)]

    def extremum_marks(find, yname):
        # one marker per layer at the step find picks, on the yname curve
        marks = []
        for l in range(L):
            k = find(trace, l)
            marks.append(charts.Marker(float(k), float(col(yname, l)[k - 1]), color(l)))
        return marks

    def crossing_marks(xname):
        # the net's zero crossings, placed on the xname axis
        marks = []
        for l in range(L):
            for pos in find_zero_crossings(trace, l):
                x = pos if xname == "step" else np.interp(pos, steps, col(xname, l))
                marks.append(charts.Marker(float(x), 0.0, color(l)))
        return marks

    chart("entropy_vs_step.svg", "Per-step entropy", "step", "entropy",
          layer_series("step", "entropy_step"),
          extremum_marks(find_entropy_minimum, "entropy_step"))
    chart("cosine_vs_step.svg", "Knowledge and decision-shift alignment", "step",
          "cosine", layer_series("step", "cosine"))
    chart("flow_vs_step.svg", "Knowledge flow", "step", "flow norm",
          layer_series("step", "flow_norm"), extremum_marks(find_flow_peak, "flow_norm"))
    chart("flow_vs_znorm.svg", "Knowledge flow against knowledge norm",
          "knowledge norm", "flow norm", layer_series("z_norm", "flow_norm"))
    chart("net_vs_step.svg", "Cumulative net", "step", "net",
          layer_series("step", "net_cum"), crossing_marks("step"))
    chart("net_vs_znorm.svg", "Cumulative net against knowledge norm",
          "knowledge norm", "net", layer_series("z_norm", "net_cum"), crossing_marks("z_norm"))
    return written


# -------------------------------------------------------------- commands ---


def _run(c: dict, ds: Dataset, dt: float, steps: int, record_units=None) -> TrajectoryTrace:
    """One run of the configured network on ds."""
    config = NetworkConfig(**c["network"], dt=dt, steps=steps, seed=c["seed"])
    return run(init_network(config), ds, record_units=record_units)


def cmd_train(args, c: dict, ds: Dataset) -> tuple:
    out_dir = args.out
    trace = _run(c, ds, c["run"]["dt"], c["run"]["steps"])

    artifacts = ["trace.csv", "markers.csv"]
    write_trace_csv(out_dir / "trace.csv", trace)
    write_markers_csv(out_dir / "markers.csv", trace)
    if args.svg:
        artifacts += train_charts(out_dir, trace)
    return artifacts, [trace]


def cmd_invariance(args, c: dict, ds: Dataset) -> tuple:
    out_dir = args.out
    traces = run_family(ds, **c["network"], **c["invariance"], seed=c["seed"])
    aligned = resample_common_grid(traces)
    result = compare(aligned)
    artifacts = ["aligned.csv", "invariance_report.csv", "invariance_report.json"]
    for i, trace in enumerate(traces):
        name = f"trace_run{i}_eta{trace.dt:g}.csv"
        write_trace_csv(out_dir / name, trace)
        artifacts.append(name)

    keys = product(zip(aligned.labels, [t.dt for t in traces]), COMPARE_METRICS,
                   range(aligned.data.shape[3]), aligned.grid.tolist())
    values = aligned.data.transpose(0, 1, 3, 2).ravel().tolist()
    write_csv(out_dir / "aligned.csv", "metric,run,eta,layer,time,value",
              ((metric, lab, eta, l, t, v) for ((lab, eta), metric, l, t), v in zip(keys, values)))

    write_json(out_dir / "invariance_report.json", result)
    # the CSV has one column per scalar field of a report row
    columns = [k for k, v in result["rows"][0].items() if not isinstance(v, dict)]
    words = {None: "incomparable", True: "pass", False: "fail"}
    write_csv(out_dir / "invariance_report.csv", ",".join(columns),
              ([words[row[k]] if k == "passed" else row[k] for k in columns]
               for row in result["rows"]))
    return artifacts, traces


def cmd_variational(args, c: dict, ds: Dataset) -> tuple:
    """The run, and with dt_halving the same window at dt/2, recording the
    configured units; variational_report.json holds unit_reports of them."""
    out_dir = args.out
    dt, steps = c["run"]["dt"], c["run"]["steps"]
    units, halving = c["variational"]["units"], c["variational"]["dt_halving"]
    traces = [_run(c, ds, dt, steps, units)]
    if halving:
        traces.append(_run(c, ds, dt / 2.0, steps * 2, units))
    payload = {"dt": dt, "steps": steps, "dt_halving": halving,
               "units": variational.unit_reports(units, *traces)}
    write_json(out_dir / "variational_report.json", payload)
    return ["variational_report.json"], traces


# Each command's runner, help line and the config sections it reads, each
# with its default. A runner takes the args, the resolved config and its
# dataset, writes its artifacts into args.out and returns the names of the
# files it wrote and its traces.
COMMANDS = {
    "train": (cmd_train, "single run with trace, markers, charts",
              {"network": REQUIRED, "run": REQUIRED, "data": REQUIRED}),
    "invariance": (cmd_invariance, "fixed eta*K family comparison",
                   {"network": REQUIRED, "data": REQUIRED, "invariance": REQUIRED}),
    "variational-check": (cmd_variational, "unit-trajectory identity checks",
                          {"network": {"layer_sizes": [1, 1]}, "run": REQUIRED,
                           "data": {"source": "constant"}, "variational": {}}),
}


# The keys report reads from each JSON file of a run directory, checked by
# the config's rules; keys an Open table does not list pass unread. The
# commands write every key listed here, null where nothing was measured.
ENVIRONMENT = Open({"python": (str, REQUIRED), "numpy": (str, REQUIRED),
                    "blas": (Open({"name": (str, NULLABLE), "version": (str, NULLABLE)}),
                             REQUIRED),
                    "thread_vars": ({var: (str, NULLABLE) for var in sorted(THREAD_VARS)},
                                    REQUIRED),
                    "blas_threads": ([int, NULLABLE], REQUIRED),
                    "malloc": ({name: (int, NULLABLE) for name, _, _ in sorted(_HEAP_POLICY)},
                               NULLABLE)})
RESOLVED = Open({"eta_times_K": (float, REQUIRED), "layers": (int, REQUIRED),
                 "samples": (int, REQUIRED)})
MANIFEST = Open({"version": (str, REQUIRED), "command": (tuple(COMMANDS), REQUIRED),
                 "resolved": (RESOLVED, REQUIRED), "environment": (ENVIRONMENT, REQUIRED)})
ROW = Open({"metric": (str, REQUIRED), "run": (str, REQUIRED), "rel_dev": (float, NULLABLE),
            "tolerance": (float, REQUIRED), "passed": (bool, NULLABLE)})
CROSSING = Open({"time": (float, REQUIRED), "residual": (float, REQUIRED),
                 "bound": (float, REQUIRED)})
UNIT = Open({"selection": ([int], REQUIRED), "action_entropy": (float, REQUIRED),
             "entropy_by_definition": (float, REQUIRED), "el_residual_max": (float, REQUIRED),
             "el_order": (float, NULLABLE), "net_identity_crossings": ([CROSSING], REQUIRED)})
INVARIANCE_REPORT = Open({"rows": ([ROW], REQUIRED)})
VARIATIONAL_REPORT = Open({"units": ([UNIT], REQUIRED)})


def _read_run_file(out_dir: Path, name: str, table: Open) -> dict:
    """The JSON file name of the run directory out_dir, checked against table."""
    return _check(load_config(out_dir / name), table, "", name)


def environment_line(env: dict) -> str:
    """A checked manifest environment block as one line."""
    name, version = env["blas"]["name"], env["blas"]["version"]
    blas = ("unknown" if name is None else name) + ("" if version is None else f" {version}")
    thread_vars = " ".join(f"{k}={'unset' if v is None else v}"
                           for k, v in env["thread_vars"].items())
    threads = " ".join("?" if t is None else str(t) for t in env["blas_threads"])
    malloc = "unchanged" if env["malloc"] is None else " ".join(
        f"{k}={'refused' if v is None else v}" for k, v in env["malloc"].items())
    return (f"environment: Python {env['python']}, numpy {env['numpy']}, "
            f"BLAS {blas}, {thread_vars}, "
            f"malloc {malloc}, BLAS threads per run: {threads}")


def report(out_dir: Path) -> int:
    """Print the summary of the run directory out_dir once all of it is read
    and checked, and return its exit code: 1 when a check fails or a run
    checked nothing, else 0.

    Each JSON file is read through _check against its table above, so the
    config's rules hold there too: a number is finite and never a bool. The
    verdicts are the library's: row_passed and family_passed judge a family,
    ska.variational's unit_verdicts and unit_passed a unit."""
    lines, passed = [], True
    say = lines.append
    manifest = _read_run_file(out_dir, "manifest.json", MANIFEST)
    command, resolved = manifest["command"], manifest["resolved"]
    say(f"ska {manifest['version']} {command} run in {out_dir}")
    say(environment_line(manifest["environment"]))
    say(f"characteristic time eta*K = {resolved['eta_times_K']}")
    say(f"layers: {resolved['layers']}, samples: {resolved['samples']}")

    if command == "train":
        path = out_dir / "markers.csv"
        rows = _read(path).splitlines()
        if rows[:1] != [MARKERS_HEADER]:
            raise ValueError(f"{path} does not start with the header {MARKERS_HEADER}")
        by_layer = {}
        for n, line in enumerate(rows[1:], 2):
            try:
                layer, kind, step, value = line.split(",")
                layer, at, height = int(layer), float(step), float(value)
                if not (math.isfinite(at) and math.isfinite(height)):
                    raise ValueError
                text = {"entropy_min": f"entropy min at step {at:g}",
                        "flow_peak": f"flow peak at step {at:g}",
                        "net_zero_crossing": f"net crossing at step {step} (t = {value})"}[kind]
            except (ValueError, KeyError):
                raise ValueError(f"{path} line {n} is not a marker row "
                                 f"(integer layer, known kind, finite step and value): "
                                 f"{line!r}") from None
            by_layer.setdefault(layer, []).append(text)
        for layer in sorted(by_layer):
            say(f"layer {layer}: " + "; ".join(by_layer[layer]))
        say("no checks: a train run carries no verdict")
    elif command == "invariance":
        rows = _read_run_file(out_dir, "invariance_report.json", INVARIANCE_REPORT)["rows"]
        if not rows:  # a family of two or more runs compares at least four rows
            raise ValueError("invariance_report.json rows is empty")
        for i, row in enumerate(rows):
            verdict = row_passed(row["rel_dev"], row["tolerance"])
            if row["passed"] is not verdict:
                raise ValueError(
                    f"invariance_report.json rows[{i}] ({row['metric']} {row['run']}) "
                    f"stores passed {json.dumps(row['passed'])}, but its rel_dev "
                    f"{json.dumps(row['rel_dev'])} and tolerance {row['tolerance']} "
                    f"give {json.dumps(verdict)}")
            word = {True: "pass", False: "FAIL", None: "incomparable"}[verdict]
            rel = "nan" if row["rel_dev"] is None else f"{row['rel_dev']:.4f}"
            say(f"{row['metric']} {row['run']}: rel_dev {rel} "
                f"tol {row['tolerance']:.4f} {word}")
        # the row with the least room under its tolerance, or furthest past it
        measured = [r for r in rows if r["rel_dev"] is not None]
        if measured:
            w = max(measured, key=lambda r: r["rel_dev"] - r["tolerance"])
            say(f"worst row: {w['metric']} {w['run']}, rel_dev {w['rel_dev']:.4f} "
                f"against tol {w['tolerance']:.4f}")
        else:
            say("no row was comparable: the family checked nothing")
        passed = family_passed(rows)
        say("PASS" if passed else "FAIL")
    else:  # variational-check, the last command MANIFEST allows
        units = _read_run_file(out_dir, "variational_report.json", VARIATIONAL_REPORT)["units"]
        if not units:  # a variational-check records at least one unit
            raise ValueError("variational_report.json units is empty")
        for unit in units:
            crossings, order = unit["net_identity_crossings"], unit["el_order"]
            low, *over = (verdict is False for verdict in variational.unit_verdicts(unit))
            ok = variational.unit_passed(unit)
            passed &= ok
            say(f"unit {unit['selection']}: action {unit['action_entropy']:.6g}, "
                f"entropy {unit['entropy_by_definition']:.6g}, "
                f"el residual {unit['el_residual_max']:.3g}"
                + (f", order {order:.2f}" if order is not None else "")
                + (f" below {variational.EL_ORDER_FLOOR} FAIL" if low else "")
                + (", nothing checked FAIL" if not (ok or low or any(over)) else ""))
            for c, bad in zip(crossings, over):
                say(f"  crossing t = {c['time']:.4g}: net identity residual {c['residual']:.3g}, "
                    f"bound {c['bound']:.3g}" + (" FAIL" if bad else ""))
            if not crossings:
                say("  no net zero crossing in the window: net-action identity not checked")
        say("PASS" if passed else "FAIL")
    print("\n".join(lines))
    return 0 if passed else 1


# ------------------------------------------------------------ entry point ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ska",
        description="Forward-only entropy-driven learning runs with CSV/SVG artifacts.",
    )
    parser.add_argument("--version", action="version", version=f"ska {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, help_line, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name == "train":
            p.add_argument("--svg", action=argparse.BooleanOptionalAction, default=True,
                           help="write SVG charts (default on)")

    p_rep = sub.add_parser("report", help="summarize a finished run directory")
    p_rep.add_argument("--out", type=Path, required=True, help="directory holding manifest.json")
    return parser


def main(argv=None) -> int:
    """Run one command, then print the report of its run directory and exit
    with the report's code; every library or config error exits 2 with one
    line.

    The process keeps the heap a step frees (linalg.keep_heap). numpy's
    floating-point warnings are off inside a command: a run whose metrics
    go non-finite stops with its own error line instead. An --out directory
    the command made is removed again on exit 2 while it is empty.
    """
    keep_heap()
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    made = args.command != "report" and not args.out.exists()
    try:
        with np.errstate(all="ignore"):
            if args.command != "report":
                c = resolve_config(args)
                args.out.mkdir(parents=True, exist_ok=True)
                ds = build_dataset(c["data"])
                runner, _, _ = COMMANDS[args.command]
                artifacts, traces = runner(args, c, ds)
                write_manifest(args.out, args.command, c, ds.n, artifacts, t0, traces)
            return report(args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
    if made:
        try:
            args.out.rmdir()  # refused while the directory holds anything
        except OSError:
            pass
    return 2
