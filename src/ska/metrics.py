"""Per-step trajectory metrics and their derived markers.

Entropy and net are batch means and cosine is scale-free, so duplicating
every sample leaves those three unchanged; the norm columns are plain
Frobenius norms and grow with batch size. Entropy pairs the current
pre-activations with the decision increment; the tensor net pairs decisions
minus the entropy gradient with the knowledge increment. Cosine alignment
is undefined when either operand has zero norm and is stored as NaN (a gap,
never 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import TYPE_CHECKING

import numpy as np

from . import linalg

if TYPE_CHECKING:
    from .dynamics import NetworkConfig

LN2 = float(np.log(2.0))


def entropy_step(Z: np.ndarray, dD: np.ndarray) -> float:
    """Single-step layer entropy -(1/ln 2) * mean_samples sum_units Z * dD."""
    if Z.shape != dD.shape:
        raise linalg.ShapeMismatchError("entropy_step", Z.shape, dD.shape)
    return float(-linalg.inner(Z, dD) / (LN2 * Z.shape[0]))


def net_step(D: np.ndarray, G: np.ndarray, dZ: np.ndarray,
             out: np.ndarray | None = None) -> float:
    """Single-step tensor net mean_samples sum_units (D - G) * dZ.

    D - G compares what a unit decided against how hard its entropy pushes
    it; weighting by the knowledge increment makes the running sum a
    discrete line integral along the trajectory. out, when given, receives
    D - G instead of a fresh array; it may be G itself, which then no
    longer holds the gradient. The Euler step passes G once the weight
    update has read it.
    """
    if not (D.shape == G.shape == dZ.shape):
        raise linalg.ShapeMismatchError("net_step", D.shape, dZ.shape)
    if D.size == 1:  # Python floats, without numpy's per-call dispatch
        diff = np.empty_like(D) if out is None else out
        diff.flat[0] = D.item() - G.item()
    else:
        diff = np.subtract(D, G, out=out)
    return float(linalg.inner(diff, dZ) / D.shape[0])


# The metric columns of a trace, in the order trace.csv writes them.
COLUMNS = (
    "entropy_step",
    "entropy_cum",
    "cosine",
    "z_norm",
    "flow_norm",
    "net_step",
    "net_cum",
)


@dataclass
class TrajectoryTrace:
    """One run's metrics as values, a float64 array shaped (K, n_layers,
    len(COLUMNS)) with its last axis in COLUMNS order.

    steps holds 1..K and times holds exactly steps * dt. cosine uses NaN
    for gaps. unit_paths maps (layer, unit, sample) selections to length-K
    arrays of recorded pre-activations (steps 0..K-1), when recording was
    requested. blas_threads is the BLAS thread count the run used, None
    when unknown.
    """

    dt: float
    steps: np.ndarray
    times: np.ndarray
    values: np.ndarray
    unit_paths: dict = field(default_factory=dict)
    blas_threads: int | None = None

    @property
    def n_layers(self) -> int:
        return self.values.shape[1]

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def column(self, name: str) -> np.ndarray:
        """The (K, n_layers) view of values holding metric name."""
        if name not in COLUMNS:
            raise KeyError(f"unknown trace column {name!r}")
        return self.values[:, :, COLUMNS.index(name)]


class TraceAccumulator:
    """Consumes the records of steps k = 1..K and fills the trace's values.

    A record holds one (entropy_step, cosine, z_norm, flow_norm, net_step)
    tuple of floats per layer; add() stores it as the next row, so the n-th
    record added is step n. A record past step K, or a non-finite entropy,
    norm, flow or net, raises ValueError naming the step (and the layer); a
    cosine that is undefined or not finite stays a NaN gap.
    """

    def __init__(self, config: NetworkConfig):
        self.config = config
        self.values = np.full((config.steps, config.n_layers, len(COLUMNS)), np.nan)
        self._seen = 0

    def add(self, record: list | None) -> None:
        if record is None:
            raise ValueError("record has no increments; seeding step is not accumulated")
        row = self._seen
        if row == self.config.steps:
            raise ValueError(f"step {row + 1} is past the run's {row} steps")
        # a record fills COLUMNS 0 and 2 to 5; finish() sums 0 into 1 and 5 into 6
        v = self.values
        for l, (es, cos, zn, fn, ns) in enumerate(record):
            if not (isfinite(es) and isfinite(zn) and isfinite(fn) and isfinite(ns)):
                _raise_not_finite(row + 1, l, entropy_step=es, z_norm=zn, flow_norm=fn,
                                  net_step=ns)
            v[row, l, 0] = es
            v[row, l, 2] = cos
            v[row, l, 3] = zn
            v[row, l, 4] = fn
            v[row, l, 5] = ns
        self._seen += 1

    def finish(self) -> TrajectoryTrace:
        """The trace over this accumulator's values, with the two running
        sums filled in; the array is handed over, not copied."""
        if self._seen != self.config.steps:
            raise ValueError(f"accumulated {self._seen} of {self.config.steps} steps")
        v = self.values
        np.cumsum(v[:, :, 0], axis=0, out=v[:, :, 1])
        np.cumsum(v[:, :, 5], axis=0, out=v[:, :, 6])
        steps = np.arange(1, self.config.steps + 1, dtype=np.int64)
        return TrajectoryTrace(dt=self.config.dt, steps=steps, times=steps * self.config.dt,
                               values=v)


def _raise_not_finite(k: int, layer: int, **values) -> None:
    name = next(n for n, v in values.items() if not isfinite(v))
    raise ValueError(f"step {k}, layer {layer}: {name} is {values[name]}, not finite")


def crossing_positions(values: np.ndarray) -> list:
    """Zero crossings of a sequence, in fractional 0-based positions.

    A crossing is a change of sign, exact zeros skipped. One between two
    nonzero neighbors i, i+1 is reported at the linear interpolation
    i + |v[i]| / (|v[i]| + |v[i+1]|); one across a run of zeros at the
    index of its first zero. A run of zeros between values of one sign
    (a touch), or at either end, is no crossing.
    """
    v = np.asarray(values, dtype=np.float64)
    nz = np.flatnonzero(v)
    flips = np.flatnonzero((v[nz[:-1]] > 0.0) != (v[nz[1:]] > 0.0))
    i, j = nz[flips], nz[flips + 1]
    a, b = np.abs(v[i]), np.abs(v[j])
    return np.where(j == i + 1, i + a / (a + b), i + 1.0).tolist()


def find_zero_crossings(trace: TrajectoryTrace, layer: int) -> list:
    """Crossings of the cumulative net, in fractional step coordinates."""
    _check_layer(trace, layer)
    return [1.0 + p for p in crossing_positions(trace.column("net_cum")[:, layer])]


def find_entropy_minimum(trace: TrajectoryTrace, layer: int) -> int:
    """Step with the smallest per-step entropy; ties go to the earliest."""
    _check_layer(trace, layer)
    return int(trace.steps[np.argmin(trace.column("entropy_step")[:, layer])])


def find_flow_peak(trace: TrajectoryTrace, layer: int) -> int:
    """Step with the largest flow norm; ties go to the earliest."""
    _check_layer(trace, layer)
    return int(trace.steps[np.argmax(trace.column("flow_norm")[:, layer])])


def _check_layer(trace: TrajectoryTrace, layer: int) -> None:
    if not 0 <= layer < trace.n_layers:
        raise IndexError(f"layer {layer} out of range 0..{trace.n_layers - 1}")
