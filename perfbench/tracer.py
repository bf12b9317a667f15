"""Spans around calls into the ska modules, and the per-layer figures drawn
from them.

The traced run replaces each wrapped public function at every module
attribute that refers to it, so a call is recorded whichever name the caller
looked it up through. A span is (name, start, end, parent); spans live in
parallel lists during the run and are saved once, after the command returns.
Calls in one thread nest, so a span's children never overlap and its self
time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

import numpy as np

# Layer (ska module) -> wrapped public functions; methods as "Class.method".
WRAPPED = {
    "data": ("glyph_dataset", "synthetic_blobs", "constant_dataset", "from_idx", "take_batch"),
    "dynamics": ("init_network", "run", "step", "forward", "sigmoid", "entropy_gradient"),
    "linalg": ("matmul", "outer_mean", "frobenius_norm", "cosine_flat"),
    "metrics": ("TraceAccumulator.add", "TraceAccumulator.finish",
                "find_zero_crossings", "find_entropy_minimum", "find_flow_peak"),
    "invariance": ("run_family", "resample_common_grid", "compare"),
    "variational": ("extract_unit_trajectories", "action_entropy", "entropy_by_definition",
                    "lagrangian", "el_residual", "net_action_identity"),
    "charts": ("line_chart",),
    "cli": ("main", "write_trace_csv", "write_markers_csv", "write_json"),
}
LAYERS = tuple(WRAPPED)
# Every module whose namespace may hold a reference to a wrapped function.
MODULES = ("ska",) + tuple(f"ska.{layer}" for layer in LAYERS)

# Metric group -> the spans it covers. A group's time counts each span
# whose parent lies outside the group, so nested calls are not counted twice.
GROUPS = {
    "dynamics.sigmoid": ("dynamics.sigmoid",),
    "dynamics.entropy_gradient": ("dynamics.entropy_gradient",),
    "dynamics.step": ("dynamics.step",),
    "dynamics.forward": ("dynamics.forward",),
    "dynamics.run": ("dynamics.run",),
    "dynamics.init_network": ("dynamics.init_network",),
    "linalg.matmul": ("linalg.matmul",),
    "linalg.outer_mean": ("linalg.outer_mean",),
    "linalg.norm_cos": ("linalg.frobenius_norm", "linalg.cosine_flat"),
    "metrics.add": ("metrics.TraceAccumulator.add",),
    "metrics.finish": ("metrics.TraceAccumulator.finish",),
    "metrics.markers": ("metrics.find_zero_crossings", "metrics.find_entropy_minimum",
                        "metrics.find_flow_peak"),
    "invariance.run_family": ("invariance.run_family",),
    "invariance.resample": ("invariance.resample_common_grid",),
    "invariance.compare": ("invariance.compare",),
    "variational": tuple(f"variational.{f}" for f in WRAPPED["variational"]),
    "charts.line_chart": ("charts.line_chart",),
    "cli": ("cli.main",),
    "cli.write_trace_csv": ("cli.write_trace_csv",),
    "cli.write_markers_csv": ("cli.write_markers_csv",),
    "cli.write_json": ("cli.write_json",),
    "data.build": ("data.glyph_dataset", "data.synthetic_blobs", "data.constant_dataset",
                   "data.from_idx"),
    "data.take_batch": ("data.take_batch",),
}

# Percentiles a tail may be reported at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def matmul_work(a_shape, b_shape) -> tuple:
    """(flop, bytes) of (m, k) @ (k, n), computed from the shapes: 2mkn
    flop; both operands read once and the result written once, in float64."""
    m, k = a_shape
    n = b_shape[1]
    return 2 * m * k * n, 8 * (m * k + k * n + m * n)


def outer_mean_work(a_shape, b_shape) -> tuple:
    """(flop, bytes) of outer_mean on (n, p) and (n, q): the (p, n) @ (n, q)
    product plus one division per result entry, computed from the shapes."""
    n, p = a_shape
    q = b_shape[1]
    return 2 * n * p * q + p * q, 8 * (n * p + n * q + p * q)


def _sigmoid_work(z):
    return {"elems": int(np.size(z))}


def _matmul_work(a, b):
    flop, nbytes = matmul_work(a.shape, b.shape)
    return {"flop": flop, "bytes": nbytes}


def _outer_mean_work(a, b):
    flop, nbytes = outer_mean_work(a.shape, b.shape)
    return {"flop": flop, "bytes": nbytes}


WORK = {
    "dynamics.sigmoid": _sigmoid_work,
    "linalg.matmul": _matmul_work,
    "linalg.outer_mean": _outer_mean_work,
}


class Tracer:
    """Records spans, work counters and raised exceptions of wrapped calls."""

    def __init__(self):
        self.names = []
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self.work = {}
        self.errors = {}
        self._open = [-1]

    def wrap(self, name: str, fn, work=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                totals = self.work.setdefault(name, {})
                for key, value in work(*args, **kwargs).items():
                    totals[key] = totals.get(key, 0) + value
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self._open.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                self.end[i] = clock()
                self._open.pop()

        return traced

    def install(self) -> dict:
        """Wrap every function in WRAPPED at each attribute that refers to it.

        Returns span name -> number of lookup sites replaced.
        """
        modules = [importlib.import_module(m) for m in MODULES]
        sites = {}
        for layer, functions in WRAPPED.items():
            home = importlib.import_module(f"ska.{layer}")
            for fname in functions:
                name = f"{layer}.{fname}"
                if "." in fname:
                    cls_name, method = fname.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, method, self.wrap(name, cls.__dict__[method]))
                    sites[name] = 1
                    continue
                original = getattr(home, fname)
                wrapper = self.wrap(name, original, WORK.get(name))
                sites[name] = 0
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            sites[name] += 1
        return sites

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent)
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def tail_percentile(n: int):
    """Highest LADDER percentile with at least ten of n samples beyond it
    (nearest-rank), or None when even the median has fewer."""
    best = None
    for p in LADDER:
        if n - nearest_rank(p, n) >= 10:
            best = p
    return best


def nearest_rank(p: float, n: int) -> int:
    """1-based rank of the p-th percentile of n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return float(ordered[nearest_rank(p, len(ordered)) - 1])


def group_stats(spans) -> dict:
    """Group -> {"calls", "s", "self_s", "durations"} from loaded spans."""
    names = [str(n) for n in spans["names"]]
    name_id = np.asarray(spans["name_id"])
    start, end = np.asarray(spans["start"]), np.asarray(spans["end"])
    parent = np.asarray(spans["parent"])
    dur = end - start
    self_t = self_times(start, end, parent)
    out = {}
    for group, members in GROUPS.items():
        ids = [names.index(m) for m in members if m in names]
        inside = np.isin(name_id, ids)
        parent_inside = np.zeros_like(inside)
        has = parent >= 0
        parent_inside[has] = inside[parent[has]]
        out[group] = {
            "calls": int(inside.sum()),
            "s": float(dur[inside & ~parent_inside].sum()),
            "self_s": float(self_t[inside].sum()),
            "durations": dur[inside],
        }
    return out


def layer_metrics(spans, work: dict, errors: dict) -> dict:
    """Per-layer figures of one traced child (times in s, step times in us)."""
    g = group_stats(spans)
    m = {}
    for group, stats in g.items():
        for key in ("calls", "s", "self_s"):
            m[f"{group}.{key}"] = stats[key]
    m["dynamics.sigmoid.elems"] = work.get("dynamics.sigmoid", {}).get("elems", 0)
    step_us = g["dynamics.step"]["durations"] * 1e6
    m["dynamics.step.us_p50"] = percentile(step_us, 50.0) if step_us.size else 0.0
    tail = tail_percentile(step_us.size)
    m["dynamics.step.us_tail"] = percentile(step_us, tail) if tail else 0.0
    m["dynamics.step.tail_percentile"] = tail
    nbytes = 0
    for op in ("matmul", "outer_mean"):
        w = work.get(f"linalg.{op}", {})
        m[f"linalg.{op}.flop"] = w.get("flop", 0)
        secs = m[f"linalg.{op}.s"]
        m[f"linalg.{op}.flop_per_s"] = m[f"linalg.{op}.flop"] / secs if secs > 0 else 0.0
        nbytes += w.get("bytes", 0)
    m["linalg.bytes_computed"] = nbytes
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(v for k, v in errors.items() if k.startswith(layer + "."))
    return m
