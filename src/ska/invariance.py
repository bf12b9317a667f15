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

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .dynamics import NetworkConfig, bounded_steps, init_network, run
from .metrics import TrajectoryTrace

COMPARE_METRICS = ("entropy_step_normalized", "cosine", "z_norm", "net_cum")

# Metric key -> (trace column, divide by eta first)
_METRIC_SOURCES = {
    "entropy_step_normalized": ("entropy_step", True),
    "cosine": ("cosine", False),
    "z_norm": ("z_norm", False),
    "net_cum": ("net_cum", False),
}


class InvarianceError(ValueError):
    pass


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
        if self.total_time <= 0.0:
            raise InvarianceError("total_time must be positive")
        if len(self.eta_list) < 2:
            raise InvarianceError("need at least two step sizes to compare")
        if any(e <= 0.0 for e in self.eta_list):
            raise InvarianceError("step sizes must be positive")
        if len(set(self.eta_list)) != len(self.eta_list):
            raise InvarianceError("step sizes must be distinct")
        if not self.tolerance > 0.0:
            raise InvarianceError("tolerance must be positive")


@dataclass
class FamilyRun:
    label: str
    eta: float
    steps: int
    realized_product: float
    trace: TrajectoryTrace


def steps_for(total_time: float, eta: float) -> int:
    """Rounded step count for the window; the realized eta*K may differ
    slightly from total_time (the mismatch is logged, never hidden)."""
    k = bounded_steps(total_time / eta, f"eta {eta} over T = {total_time}")
    if k < 2:
        raise InvarianceError(
            f"eta {eta} gives only {k} steps over T = {total_time}; need at least 2"
        )
    return k


def run_family(spec: InvarianceSpec) -> list:
    """Run every eta with shared seed, init and design matrix."""
    runs = []
    for i, eta in enumerate(spec.eta_list):
        k = steps_for(spec.total_time, eta)
        cfg = NetworkConfig(
            layer_sizes=spec.layer_sizes,
            dt=eta,
            steps=k,
            init_std_scale=spec.init_std_scale,
            seed=spec.seed,
        )
        net = init_network(cfg)
        trace = run(net, spec.dataset)
        runs.append(
            FamilyRun(
                label=f"run{i}:eta={eta:g}",
                eta=eta,
                steps=k,
                realized_product=eta * k,
                trace=trace,
            )
        )
    return runs


@dataclass
class AlignedFamily:
    """Family metrics linearly resampled onto the coarsest run's time grid."""

    grid: np.ndarray
    labels: list
    etas: list
    data: dict  # (label, metric) -> array (len(grid), n_layers)
    reference_label: str

    def values(self, label: str, metric: str) -> np.ndarray:
        return self.data[(label, metric)]


def _metric_matrix(run_: FamilyRun, metric: str) -> np.ndarray:
    column, divide = _METRIC_SOURCES[metric]
    m = run_.trace.column(column)
    return m / run_.eta if divide else m


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
        raise InvarianceError("need at least two runs to align")
    start = max(r.trace.times[0] for r in runs)
    end = min(r.trace.times[-1] for r in runs)
    if start > end:
        raise InvarianceError("trace time ranges do not overlap")
    coarsest = max(runs, key=lambda r: r.eta)
    reference = min(runs, key=lambda r: r.eta)
    grid = coarsest.trace.times.copy()
    data = {}
    for r in runs:
        for metric in COMPARE_METRICS:
            m = _metric_matrix(r, metric)
            cols = [
                _interp_column(grid, r.trace.times, m[:, l])
                for l in range(r.trace.n_layers)
            ]
            data[(r.label, metric)] = np.column_stack(cols)
    return AlignedFamily(
        grid=grid,
        labels=[r.label for r in runs],
        etas=[r.eta for r in runs],
        data=data,
        reference_label=reference.label,
    )


@dataclass
class ReportRow:
    metric: str
    label: str
    eta: float
    reference_eta: float
    sup_dev: float
    rel_dev: float
    tolerance: float
    passed: bool | None  # None when every layer was incomparable
    per_layer: dict = field(default_factory=dict)  # layer -> (dev, rel, range)


@dataclass
class InvarianceReport:
    reference_label: str
    reference_eta: float
    tolerance_base: float
    rows: list

    @property
    def all_pass(self) -> bool:
        return all(r.passed is not False for r in self.rows)


def compare(aligned: AlignedFamily, tolerance: float = 0.02) -> InvarianceReport:
    """Sup-norm deviations from the smallest-eta reference on the shared grid.

    Per layer: dev = max_t |trace - reference|, rel = dev / (reference range
    over the grid). A zero-range reference layer is incomparable and never
    counts as pass or fail. A row passes when its worst layer's rel is
    within the eta-scaled tolerance.
    """
    ref_label = aligned.reference_label
    ref_eta = aligned.etas[aligned.labels.index(ref_label)]
    others = [
        (lab, eta)
        for lab, eta in zip(aligned.labels, aligned.etas)
        if lab != ref_label
    ]
    finest_gap = min((eta - ref_eta for _, eta in others if eta > ref_eta), default=0.0)

    def one_row(metric, lab, eta):
        mine = aligned.values(lab, metric)
        base = aligned.values(ref_label, metric)
        per_layer = {}
        worst_rel = 0.0
        worst_dev = 0.0
        any_comparable = False
        for l in range(mine.shape[1]):
            diff = np.abs(mine[:, l] - base[:, l])
            dev = float(np.nanmax(diff)) if not np.all(np.isnan(diff)) else float("nan")
            col = base[:, l]
            rng = float(np.nanmax(col) - np.nanmin(col)) if not np.all(np.isnan(col)) else 0.0
            if rng == 0.0 or np.isnan(dev):
                per_layer[l] = (dev, float("nan"), rng)
                continue
            rel = dev / rng
            per_layer[l] = (dev, rel, rng)
            any_comparable = True
            worst_rel = max(worst_rel, rel)
            worst_dev = max(worst_dev, dev)
        if finest_gap > 0.0:
            scaled_tol = tolerance * max(1.0, (eta - ref_eta) / finest_gap)
        else:
            scaled_tol = tolerance
        passed = (worst_rel <= scaled_tol) if any_comparable else None
        return ReportRow(
            metric=metric,
            label=lab,
            eta=eta,
            reference_eta=ref_eta,
            sup_dev=worst_dev if any_comparable else float("nan"),
            rel_dev=worst_rel if any_comparable else float("nan"),
            tolerance=scaled_tol,
            passed=passed,
            per_layer=per_layer,
        )

    return InvarianceReport(
        reference_label=ref_label,
        reference_eta=ref_eta,
        tolerance_base=tolerance,
        rows=[one_row(metric, lab, eta) for metric in COMPARE_METRICS for lab, eta in others],
    )
