"""Characteristic-time invariance: run one system at several step sizes and
measure how far the trajectories drift apart on a shared time grid.

The product T = eta * K fixes the physical time window. Runs in a family
share the seed, the initial weights and the design matrix, so each one is
an explicit-Euler discretization of the same continuous gradient flow and
their traces should collapse onto each other as eta shrinks. The per-step
entropy scales linearly with eta and is divided by eta before comparison;
cosine, z_norm and cumulative net need no normalization.

Deviations are measured against the smallest-eta run in the family and are
reported relative to that reference trace's per-layer range. The finest
pair passes within the fixed TOLERANCE, 2 percent; a coarser run's tolerance
scales with (eta - eta_ref), as first-order Euler error grows linearly in the
step, so eta = 0.02 against an eta = 0.001 reference gets 9.5 percent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .dynamics import NetworkConfig, bounded_steps, init_network, run

# Metrics compared across a family: trace columns, the per-step entropy divided by dt.
COMPARE_METRICS = ("entropy_step_normalized", "cosine", "z_norm", "net_cum")
# Largest relative deviation the finest pair of a family passes with.
TOLERANCE = 0.02


def steps_for(total_time: float, eta: float) -> int:
    """Rounded step count for the window; the realized eta*K may differ
    slightly from total_time (the manifest's resolved.runs logs it)."""
    k = bounded_steps(total_time / eta, f"eta {eta} over T = {total_time}")
    if k < 2:
        raise ValueError(f"eta {eta} gives only {k} steps over T = {total_time}; "
                         "need at least 2")
    return k


def run_family(dataset: Dataset, layer_sizes, init_std_scale: float, seed: int,
               total_time: float, eta_list) -> list:
    """One trace per eta of eta_list, in its order: the seed's network run
    on dataset over total_time at that step size. A trace's eta is its dt."""
    if not (total_time > 0.0 and np.isfinite(total_time)):
        raise ValueError("total_time must be positive and finite")
    etas = [float(e) for e in eta_list]
    if len(etas) < 2:
        raise ValueError("need at least two step sizes to compare")
    if not all(e > 0.0 and np.isfinite(e) for e in etas):
        raise ValueError("step sizes must be positive and finite")
    if len(set(etas)) != len(etas):
        raise ValueError("step sizes must be distinct")
    configs = [NetworkConfig(layer_sizes=layer_sizes, dt=eta, steps=steps_for(total_time, eta),
                             init_std_scale=init_std_scale, seed=seed) for eta in etas]
    return [run(init_network(cfg), dataset) for cfg in configs]


@dataclass
class AlignedFamily:
    """Family metrics linearly resampled onto the coarsest trace's time grid."""

    grid: np.ndarray
    traces: list
    reference: int  # index in traces of the smallest-eta trace
    data: np.ndarray  # (trace, metric in COMPARE_METRICS order, grid time, layer)

    @property
    def labels(self) -> list:
        """Each trace's name in the report rows and aligned.csv; trace i is resolved.runs[i]."""
        return [f"run{i}:eta={trace.dt:g}" for i, trace in enumerate(self.traces)]


def _interp_column(grid, times, values):
    """Linear interpolation with endpoint clamping; NaN samples are dropped
    from the source so isolated gaps do not poison the whole column."""
    good = ~np.isnan(values)
    if not good.any():
        return np.full(len(grid), np.nan)
    return np.interp(grid, times[good], values[good])


def resample_common_grid(traces: list) -> AlignedFamily:
    """Resample every trace's COMPARE_METRICS onto the coarsest trace's time grid.

    Endpoints are clamped, never extrapolated. Errors out when the time
    ranges do not overlap at all. Resampling a run onto its own grid is the
    identity.
    """
    if len(traces) < 2:
        raise ValueError("need at least two runs to align")
    start = max(t.times[0] for t in traces)
    end = min(t.times[-1] for t in traces)
    if start > end:
        raise ValueError("trace time ranges do not overlap")
    if len({t.n_layers for t in traces}) > 1:
        raise ValueError("runs of a family must have the same number of layers")
    grid = max(traces, key=lambda t: t.dt).times.copy()
    data = np.empty((len(traces), len(COMPARE_METRICS), len(grid), traces[0].n_layers))
    for i, t in enumerate(traces):
        for m, metric in enumerate(COMPARE_METRICS):
            column = (t.column("entropy_step") / t.dt
                      if metric == "entropy_step_normalized" else t.column(metric))
            for l in range(column.shape[1]):
                data[i, m, :, l] = _interp_column(grid, t.times, column[:, l])
    reference = min(range(len(traces)), key=lambda i: traces[i].dt)
    return AlignedFamily(grid, traces, reference, data)


def row_passed(rel_dev, tolerance):
    """A row's verdict, rel_dev <= tolerance, or None (incomparable) for a NaN or null rel_dev."""
    if rel_dev is None or rel_dev != rel_dev:
        return None
    return rel_dev <= tolerance


def family_passed(rows) -> bool:
    """A family's verdict: some row is comparable and no row fails. An
    incomparable row never fails it, but a family of only those checked nothing."""
    verdicts = [row["passed"] for row in rows]
    return True in verdicts and False not in verdicts


def compare(aligned: AlignedFamily) -> dict:
    """Sup-norm deviations from the smallest-eta reference on the shared
    grid, as the invariance_report.json payload.

    Per layer: dev = max_t |trace - reference|, rel = dev / (reference range
    over the grid). A reference layer whose range is zero, or whose values
    are all NaN, is incomparable: its rel is NaN and it never counts as
    pass or fail. A row's verdict is row_passed of its worst layer's rel
    and TOLERANCE scaled by its step gap, None when no layer is comparable.
    """
    traces, ref, labels = aligned.traces, aligned.reference, aligned.labels
    ref_eta = traces[ref].dt
    others = [(i, t) for i, t in enumerate(traces) if i != ref]
    finest_gap = min((t.dt - ref_eta for _, t in others if t.dt > ref_eta), default=0.0)
    # fmax and fmin skip NaN, and give NaN for an all-NaN column without a warning
    base = aligned.data[ref]
    ranges = np.fmax.reduce(base, axis=1) - np.fmin.reduce(base, axis=1)
    ranges[np.isnan(ranges)] = 0.0

    def one_row(m, metric, i, t):
        dev = np.fmax.reduce(np.abs(aligned.data[i, m] - base[m]), axis=0)
        rng = ranges[m]
        comparable = (rng != 0.0) & ~np.isnan(dev)
        rel = np.full(len(dev), np.nan)
        rel[comparable] = dev[comparable] / rng[comparable]
        scaled_tol = (TOLERANCE * max(1.0, (t.dt - ref_eta) / finest_gap) if finest_gap > 0.0
                      else TOLERANCE)
        rel_dev = float(np.fmax.reduce(rel))
        return {
            "metric": metric,
            "run": labels[i],
            "eta": t.dt,
            "reference_eta": ref_eta,
            "sup_dev": float(np.fmax.reduce(np.where(comparable, dev, np.nan))),
            "rel_dev": rel_dev,
            "tolerance": scaled_tol,
            "passed": row_passed(rel_dev, scaled_tol),
            "per_layer": {str(l): {"dev": d, "rel": q, "range": g} for l, (d, q, g)
                          in enumerate(zip(dev.tolist(), rel.tolist(), rng.tolist()))},
        }

    rows = [one_row(m, metric, i, t)
            for m, metric in enumerate(COMPARE_METRICS) for i, t in others]
    return {
        "reference": labels[ref],
        "reference_eta": ref_eta,
        "tolerance_base": TOLERANCE,
        "all_pass": family_passed(rows),
        "rows": rows,
    }
