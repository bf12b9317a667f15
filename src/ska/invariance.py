"""Characteristic-time invariance: run one system at several step sizes and
measure how far the trajectories drift apart on a shared time grid.

The product T = eta * K fixes the physical time window. Runs in a family
share the seed, the initial weights and the design matrix, so each one is
an explicit-Euler discretization of the same continuous gradient flow and
their traces should collapse onto each other as eta shrinks. The per-step
entropy scales linearly with eta and is divided by eta before comparison;
cosine, z_norm and cumulative net need no normalization.

Deviations are measured against the smallest-eta run in the family and are
reported relative to that reference trace's per-layer range. The pass
tolerance for a coarser run scales with (eta - eta_ref): first-order Euler
error grows linearly in the step, so a 20x coarser run is allowed
proportionally more drift. With the default 0.02 the finest pair is held to
2 percent while eta = 0.02 against an eta = 0.001 reference gets 9.5 percent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .dynamics import NetworkConfig, bounded_steps, init_network, run
from .metrics import TrajectoryTrace

# Metrics compared across a family: trace columns, the per-step entropy divided by dt.
COMPARE_METRICS = ("entropy_step_normalized", "cosine", "z_norm", "net_cum")


@dataclass(frozen=True)
class InvarianceSpec:
    """A family of runs sharing everything except the step size."""

    total_time: float
    eta_list: tuple
    layer_sizes: tuple
    seed: int
    dataset: Dataset
    init_std_scale: float = 1.0
    tolerance: float = 0.02

    def __post_init__(self):
        object.__setattr__(self, "eta_list", tuple(float(e) for e in self.eta_list))
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if not (self.total_time > 0.0 and np.isfinite(self.total_time)):
            raise ValueError("total_time must be positive and finite")
        if len(self.eta_list) < 2:
            raise ValueError("need at least two step sizes to compare")
        if not all(e > 0.0 and np.isfinite(e) for e in self.eta_list):
            raise ValueError("step sizes must be positive and finite")
        if len(set(self.eta_list)) != len(self.eta_list):
            raise ValueError("step sizes must be distinct")
        if not (self.tolerance > 0.0 and np.isfinite(self.tolerance)):
            raise ValueError("tolerance must be positive and finite")


@dataclass
class FamilyRun:
    """One run of a family; its step count is trace.n_steps."""

    label: str
    eta: float
    trace: TrajectoryTrace


def steps_for(total_time: float, eta: float) -> int:
    """Rounded step count for the window; the realized eta*K may differ
    slightly from total_time (the mismatch is logged, never hidden)."""
    k = bounded_steps(total_time / eta, f"eta {eta} over T = {total_time}")
    if k < 2:
        raise ValueError(f"eta {eta} gives only {k} steps over T = {total_time}; "
                         "need at least 2")
    return k


def run_family(spec: InvarianceSpec) -> list:
    """Run every eta with shared seed, init and design matrix."""
    runs = []
    for i, eta in enumerate(spec.eta_list):
        cfg = NetworkConfig(layer_sizes=spec.layer_sizes, dt=eta,
                            steps=steps_for(spec.total_time, eta),
                            init_std_scale=spec.init_std_scale, seed=spec.seed)
        runs.append(FamilyRun(f"run{i}:eta={eta:g}", eta, run(init_network(cfg), spec.dataset)))
    return runs


@dataclass
class AlignedFamily:
    """Family metrics linearly resampled onto the coarsest run's time grid."""

    grid: np.ndarray
    runs: list
    reference: int  # index in runs of the smallest-eta run
    data: np.ndarray  # (run, metric in COMPARE_METRICS order, grid time, layer)


def _interp_column(grid, times, values):
    """Linear interpolation with endpoint clamping; NaN samples are dropped
    from the source so isolated gaps do not poison the whole column."""
    good = ~np.isnan(values)
    if not good.any():
        return np.full(len(grid), np.nan)
    return np.interp(grid, times[good], values[good])


def resample_common_grid(runs: list) -> AlignedFamily:
    """Resample every run's COMPARE_METRICS onto the coarsest run's time grid.

    Endpoints are clamped, never extrapolated. Errors out when the time
    ranges do not overlap at all. Resampling a run onto its own grid is the
    identity.
    """
    if len(runs) < 2:
        raise ValueError("need at least two runs to align")
    start = max(r.trace.times[0] for r in runs)
    end = min(r.trace.times[-1] for r in runs)
    if start > end:
        raise ValueError("trace time ranges do not overlap")
    if len({r.trace.n_layers for r in runs}) > 1:
        raise ValueError("runs of a family must have the same number of layers")
    grid = max(runs, key=lambda r: r.eta).trace.times.copy()
    data = np.empty((len(runs), len(COMPARE_METRICS), len(grid), runs[0].trace.n_layers))
    for i, r in enumerate(runs):
        for m, metric in enumerate(COMPARE_METRICS):
            column = (r.trace.column("entropy_step") / r.trace.dt
                      if metric == "entropy_step_normalized" else r.trace.column(metric))
            for l in range(column.shape[1]):
                data[i, m, :, l] = _interp_column(grid, r.trace.times, column[:, l])
    reference = min(range(len(runs)), key=lambda i: runs[i].eta)
    return AlignedFamily(grid, runs, reference, data)


def compare(aligned: AlignedFamily, tolerance: float = 0.02) -> dict:
    """Sup-norm deviations from the smallest-eta reference on the shared
    grid, as the invariance_report.json payload.

    Per layer: dev = max_t |trace - reference|, rel = dev / (reference range
    over the grid). A reference layer whose range is zero, or whose values
    are all NaN, is incomparable: its rel is NaN and it never counts as
    pass or fail. A row passes when its worst layer's rel is within the
    eta-scaled tolerance, and is None when no layer is comparable.
    """
    runs, ref = aligned.runs, aligned.reference
    ref_eta = runs[ref].eta
    others = [(i, r) for i, r in enumerate(runs) if i != ref]
    finest_gap = min((r.eta - ref_eta for _, r in others if r.eta > ref_eta), default=0.0)
    # fmax and fmin skip NaN, and give NaN for an all-NaN column without a warning
    base = aligned.data[ref]
    ranges = np.fmax.reduce(base, axis=1) - np.fmin.reduce(base, axis=1)
    ranges[np.isnan(ranges)] = 0.0

    def one_row(m, metric, i, r):
        dev = np.fmax.reduce(np.abs(aligned.data[i, m] - base[m]), axis=0)
        rng = ranges[m]
        comparable = (rng != 0.0) & ~np.isnan(dev)
        rel = np.full(len(dev), np.nan)
        rel[comparable] = dev[comparable] / rng[comparable]
        if finest_gap > 0.0:
            scaled_tol = tolerance * max(1.0, (r.eta - ref_eta) / finest_gap)
        else:
            scaled_tol = tolerance
        rel_dev = float(np.fmax.reduce(rel))
        return {
            "metric": metric,
            "run": r.label,
            "eta": r.eta,
            "reference_eta": ref_eta,
            "sup_dev": float(np.fmax.reduce(np.where(comparable, dev, np.nan))),
            "rel_dev": rel_dev,
            "tolerance": scaled_tol,
            "passed": rel_dev <= scaled_tol if comparable.any() else None,
            "per_layer": {str(l): {"dev": d, "rel": q, "range": g} for l, (d, q, g)
                          in enumerate(zip(dev.tolist(), rel.tolist(), rng.tolist()))},
        }

    rows = [one_row(m, metric, i, r)
            for m, metric in enumerate(COMPARE_METRICS) for i, r in others]
    return {
        "reference": runs[ref].label,
        "reference_eta": ref_eta,
        "tolerance_base": tolerance,
        "all_pass": all(row["passed"] is not False for row in rows),
        "rows": rows,
    }
