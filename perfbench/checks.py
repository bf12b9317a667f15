"""Output checks for one benchmark iteration.

Each check returns a list of failure messages; an empty list is a pass.
Against the stored reference, every number may differ by at most TOL times
the range of its column over its layer in the produced output. One and two
BLAS threads give traces that differ by about 1e-14 of that range, so TOL
sits far above threading noise and far below any change in the dynamics.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

TOL = 1e-9
REFERENCE = Path(__file__).resolve().parent / "reference"
TRACE_KEYS = ("step", "layer")
ALIGNED_KEYS = ("metric", "run", "layer", "time")
MARKER_SCALE = {"entropy_min": "entropy_step", "flow_peak": "flow_norm"}


def read_table(path) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _num(cell: str) -> float:
    return float(cell) if cell else math.nan


def _differs(got: float, want: float, scale: float) -> bool:
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) != math.isnan(want)
    return abs(got - want) > TOL * scale


def compare_table(produced, reference, keys: tuple, group: tuple) -> list:
    """Rows of the (possibly subsampled) reference against the produced CSV.

    Rows match on the key columns. Every other column is numeric and its
    scale is its range over the produced rows that share the group columns
    (the layer, or metric and layer).
    """
    name = Path(produced).name
    head, rows = read_table(produced)
    ref_head, ref_rows = read_table(reference)
    if head != ref_head:
        return [f"{name}: header {head} differs from the reference"]
    kidx = [head.index(k) for k in keys]
    gidx = [head.index(g) for g in group]
    vidx = [j for j in range(len(head)) if head[j] not in keys]
    by_key = {tuple(r[j] for j in kidx): r for r in rows}
    ranges = {}
    for r in rows:
        gkey = tuple(r[i] for i in gidx)
        for j in vidx:
            v = _num(r[j])
            if not math.isnan(v):
                lo, hi = ranges.get((gkey, j), (v, v))
                ranges[(gkey, j)] = (min(lo, v), max(hi, v))
    failures = []
    for ref in ref_rows:
        key = tuple(ref[j] for j in kidx)
        got = by_key.get(key)
        if got is None:
            failures.append(f"{name}: row {key} missing")
            continue
        gkey = tuple(ref[i] for i in gidx)
        for j in vidx:
            lo, hi = ranges.get((gkey, j), (0.0, 0.0))
            want = _num(ref[j])
            scale = hi - lo if hi > lo else abs(want)
            if _differs(_num(got[j]), want, scale):
                failures.append(f"{name}: {head[j]} at {key} is {got[j]}, reference {ref[j]}")
    return failures[:5]


def trace_columns(path) -> dict:
    """Trace CSV as column -> (K, n_layers) array."""
    head, rows = read_table(path)
    data = np.array([[_num(c) for c in r] for r in rows])
    layers = int(data[:, head.index("layer")].max()) + 1
    return {h: data[:, j].reshape(-1, layers) for j, h in enumerate(head)}


def compare_markers(produced, reference, trace: dict) -> list:
    """Markers in the same order; extrema values scaled by their metric's
    layer range, steps by the step range and crossing times by the time range."""
    _, rows = read_table(produced)
    _, ref_rows = read_table(reference)
    if [r[:2] for r in rows] != [r[:2] for r in ref_rows]:
        return [f"markers.csv: marker rows {[r[:2] for r in rows]} differ from the reference"]

    def span(col, layer):
        v = trace[col][:, layer]
        return float(np.nanmax(v) - np.nanmin(v))

    failures = []
    for got, want in zip(rows, ref_rows):
        layer, kind = int(got[0]), got[1]
        value_scale = span(MARKER_SCALE.get(kind, "time"), layer)
        for j, scale in ((2, span("step", layer)), (3, value_scale)):
            if _differs(_num(got[j]), _num(want[j]), scale):
                failures.append(f"markers.csv: layer {layer} {kind} has {got[j]}, "
                                f"reference {want[j]}")
    return failures


def _close(got, want, scale: float) -> bool:
    if got is None or want is None:
        return got is want
    return not _differs(float(got), float(want), scale)


def compare_invariance_report(produced, reference) -> list:
    """Same rows and verdicts; deviations within TOL of each layer's range."""
    got, want = json.loads(Path(produced).read_text()), json.loads(Path(reference).read_text())
    if (got["reference"], got["all_pass"], len(got["rows"])) != (
            want["reference"], want["all_pass"], len(want["rows"])):
        return ["invariance_report.json: reference run, verdict or row count differ"]
    failures = []
    for g, w in zip(got["rows"], want["rows"]):
        where = f"invariance_report.json {w['metric']} {w['run']}"
        if (g["metric"], g["run"], g["passed"], g["eta"], g["tolerance"]) != (
                w["metric"], w["run"], w["passed"], w["eta"], w["tolerance"]):
            failures.append(f"{where}: identity, verdict or tolerance differ")
            continue
        widest = 0.0
        for layer, wl in w["per_layer"].items():
            gl = g["per_layer"].get(layer, {})
            rng = wl["range"] or 0.0
            widest = max(widest, rng)
            if not (_close(gl.get("range"), wl["range"], rng)
                    and _close(gl.get("dev"), wl["dev"], rng)
                    and _close(gl.get("rel"), wl["rel"], 1.0)):
                failures.append(f"{where}: layer {layer} deviation differs")
        if not (_close(g["rel_dev"], w["rel_dev"], 1.0)
                and _close(g["sup_dev"], w["sup_dev"], widest)):
            failures.append(f"{where}: sup_dev or rel_dev differ")
    return failures[:5]


def compare_variational_report(produced, reference, z_range: float) -> list:
    """Same units and crossings. Crossing steps and times are held to TOL of
    the run's step count and duration, every other value to TOL of the
    unit's z range."""
    report = json.loads(Path(produced).read_text())
    got, want = report["units"], json.loads(Path(reference).read_text())["units"]
    if len(got) != len(want):
        return ["variational_report.json: unit count differs"]
    failures = []
    for g, w in zip(got, want):
        pairs = [(k, g[k], w[k], z_range) for k in ("action_entropy", "entropy_by_definition",
                                                    "el_residual_max", "el_residual_max_half")]
        if len(g["net_identity_crossings"]) != len(w["net_identity_crossings"]):
            failures.append(f"unit {w['selection']}: crossing count differs")
            continue
        for gc, wc in zip(g["net_identity_crossings"], w["net_identity_crossings"]):
            pairs += [("crossing step", gc["step"], wc["step"], report["steps"]),
                      ("crossing time", gc["time"], wc["time"], report["steps"] * report["dt"]),
                      ("crossing residual", gc["residual"], wc["residual"], z_range)]
        for key, a, b, scale in pairs:
            if not _close(a, b, scale):
                failures.append(f"unit {w['selection']}: {key} {a} differs from reference {b}")
    return failures


def glyph_shapes(trace: dict) -> list:
    """Acceptance-6 shape checks on a glyph-train trace."""
    failures = []
    z, net, flow = trace["z_norm"], trace["net_cum"], trace["flow_norm"]
    layers = z.shape[1]
    for layer in range(layers):
        drops = np.diff(z[4:, layer])
        if not np.all(drops >= -1e-12):
            failures.append(f"layer {layer}: z_norm decreases after step 5")
    hidden = range(layers - 1)
    crossed = [l for l in hidden if np.any(np.sign(net[1:, l]) != np.sign(net[:-1, l]))
               or np.any(net[:, l] == 0.0)]
    if not crossed:
        failures.append("no hidden layer has a net zero crossing")
    frac = float(np.mean(net[:, layers - 1] <= 0.0))
    if frac <= 0.70:
        failures.append(f"output net_cum <= 0 on only {frac:.2f} of steps")
    steps = z.shape[0]
    for layer in hidden:
        peak = int(np.argmax(flow[:, layer])) + 1
        if not 1 < peak < steps:
            failures.append(f"layer {layer}: flow peak at boundary step {peak}")
    return failures


def variational_floor(report_path, zdot_max: float) -> list:
    """EL order at least 1.8; at each crossing a net-identity residual of at
    most 10 * dt * max|zdot|; at least one crossing, so the identity runs."""
    report = json.loads(Path(report_path).read_text())
    bound = 10.0 * report["dt"] * zdot_max
    failures = []
    for unit in report["units"]:
        order = unit.get("el_order")
        if order is None or order < 1.8:
            failures.append(f"unit {unit['selection']}: EL order {order} below 1.8")
        if not unit["net_identity_crossings"]:
            failures.append(f"unit {unit['selection']}: no net zero crossing")
        for c in unit["net_identity_crossings"]:
            if not c["residual"] <= bound:
                failures.append(f"unit {unit['selection']}: net identity residual "
                                f"{c['residual']:.3g} above {bound:.3g} at t = {c['time']:.4g}")
    return failures


def digests(out_dir) -> dict:
    """sha256 of every artifact except manifest.json, whose duration varies."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir())
            if p.is_file() and p.name != "manifest.json"}


def against_reference(name: str, out_dir, z_range: float = 0.0) -> list:
    """Every artifact the reference of workload `name` keeps, compared."""
    ref = REFERENCE / name
    out = Path(out_dir)
    meta = json.loads((ref / "meta.json").read_text())
    if meta["config"] != WORKLOADS[name]["config"]:
        return [f"reference of {name} was made from another config; rebuild it"]
    missing = [f for f in [*meta["files"], *meta["rows"]] if not (out / f).is_file()]
    if missing:
        return [f"{f}: not written" for f in missing]
    failures = [f"{f}: row count differs from the reference's {rows}"
                for f, rows in meta["rows"].items() if len(read_table(out / f)[1]) != rows]
    if failures:
        return failures
    if name == "glyph-train":
        failures += compare_table(out / "trace.csv", ref / "trace.csv", TRACE_KEYS, ("layer",))
        failures += compare_markers(out / "markers.csv", ref / "markers.csv",
                                    trace_columns(out / "trace.csv"))
    elif name == "family-invariance":
        for fname in meta["rows"]:
            keys, group = ((ALIGNED_KEYS, ("metric", "layer")) if fname == "aligned.csv"
                           else (TRACE_KEYS, ("layer",)))
            failures += compare_table(out / fname, ref / fname, keys, group)
        failures += compare_invariance_report(out / "invariance_report.json",
                                              ref / "invariance_report.json")
    else:
        failures += compare_variational_report(out / "variational_report.json",
                                               ref / "variational_report.json", z_range)
    return failures


def outputs(name: str, out_dir, result: dict) -> list:
    """Checks that hold for every config of workload `name`."""
    out = Path(out_dir)
    failures = []
    if name == "glyph-train":
        failures += glyph_shapes(trace_columns(out / "trace.csv"))
        if len(list(out.glob("*.svg"))) != 6:
            failures.append("train did not write its six SVG charts")
    elif name == "family-invariance":
        if not json.loads((out / "invariance_report.json").read_text())["all_pass"]:
            failures.append("invariance family failed its comparison")
    else:
        failures += variational_floor(out / "variational_report.json", result["zdot_max"])
    return failures
