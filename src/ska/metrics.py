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
    from .dynamics import NetworkConfig, StepRecord

LN2 = float(np.log(2.0))


def entropy_step(Z: np.ndarray, dD: np.ndarray, out: np.ndarray | None = None) -> float:
    """Single-step layer entropy -(1/ln 2) * mean_samples sum_units Z * dD.

    out, when given, receives the product Z * dD instead of a fresh array;
    it may be dD itself, which then no longer holds the increment. The
    Euler step passes dD, and then writes the entropy gradient over it.
    """
    if Z.shape != dD.shape:
        raise linalg.ShapeMismatchError("entropy_step", Z.shape, dD.shape)
    return float(-np.multiply(Z, dD, out=out).sum() / (LN2 * Z.shape[0]))


def net_step(D: np.ndarray, G: np.ndarray, dZ: np.ndarray,
             out: np.ndarray | None = None) -> float:
    """Single-step tensor net mean_samples sum_units (D - G) * dZ.

    D - G compares what a unit decided against how hard its entropy pushes
    it; weighting by the knowledge increment makes the running sum a
    discrete line integral along the trajectory. out, when given, receives
    (D - G) * dZ instead of a fresh array; it may be G itself, which then no
    longer holds the gradient. The Euler step passes G once the weight
    update has read it.
    """
    if not (D.shape == G.shape == dZ.shape):
        raise linalg.ShapeMismatchError("net_step", D.shape, dZ.shape)
    prod = np.subtract(D, G, out=out)
    prod *= dZ
    return float(prod.sum() / D.shape[0])


@dataclass
class TrajectoryTrace:
    """Column-wise record of one run: arrays shaped (K, n_layers).

    steps holds 1..K and times holds exactly steps * dt. cosine uses NaN
    for gaps. unit_paths maps (layer, unit, sample) selections to length-K
    arrays of recorded pre-activations (steps 0..K-1), when recording was
    requested. blas_threads is the BLAS thread count the run used, None
    when unknown.
    """

    layer_sizes: tuple
    dt: float
    seed: int
    steps: np.ndarray
    times: np.ndarray
    entropy_step: np.ndarray
    entropy_cum: np.ndarray
    cosine: np.ndarray
    z_norm: np.ndarray
    flow_norm: np.ndarray
    net_step: np.ndarray
    net_cum: np.ndarray
    unit_paths: dict = field(default_factory=dict)
    blas_threads: int | None = None

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def column(self, name: str) -> np.ndarray:
        if name not in COLUMNS:
            raise KeyError(f"unknown trace column {name!r}")
        return getattr(self, name)


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


class TraceAccumulator:
    """Consumes StepRecords k = 1..K and assembles the trace arrays.

    add() stores the record's metric values in row k - 1. A non-finite
    entropy, norm, flow or net raises ValueError naming the step and the
    layer; a cosine that is undefined or not finite stays a NaN gap.
    """

    def __init__(self, config: NetworkConfig):
        self.config = config
        K, L = config.steps, config.n_layers
        self._es = np.full((K, L), np.nan)
        self._cos = np.full((K, L), np.nan)
        self._zn = np.full((K, L), np.nan)
        self._fn = np.full((K, L), np.nan)
        self._ns = np.full((K, L), np.nan)
        self._seen = 0

    def add(self, rec: StepRecord) -> None:
        if rec.entropy_step is None:
            raise ValueError("record has no increments; seeding step is not accumulated")
        if not 1 <= rec.k <= self.config.steps:
            raise ValueError(f"step index {rec.k} outside 1..{self.config.steps}")
        row = rec.k - 1
        values = zip(rec.entropy_step, rec.cosine, rec.z_norm, rec.flow_norm, rec.net_step)
        for l, (es, cos, zn, fn, ns) in enumerate(values):
            if not (isfinite(es) and isfinite(zn) and isfinite(fn) and isfinite(ns)):
                _raise_not_finite(rec.k, l, entropy_step=es, z_norm=zn, flow_norm=fn,
                                  net_step=ns)
            self._es[row, l] = es
            self._cos[row, l] = cos
            self._zn[row, l] = zn
            self._fn[row, l] = fn
            self._ns[row, l] = ns
        self._seen += 1

    def finish(self) -> TrajectoryTrace:
        if self._seen != self.config.steps:
            raise ValueError(f"accumulated {self._seen} of {self.config.steps} steps")
        K = self.config.steps
        steps = np.arange(1, K + 1, dtype=np.int64)
        return TrajectoryTrace(
            layer_sizes=self.config.layer_sizes,
            dt=self.config.dt,
            seed=self.config.seed,
            steps=steps,
            times=steps * self.config.dt,
            entropy_step=self._es,
            entropy_cum=np.cumsum(self._es, axis=0),
            cosine=self._cos,
            z_norm=self._zn,
            flow_norm=self._fn,
            net_step=self._ns,
            net_cum=np.cumsum(self._ns, axis=0),
        )


def _raise_not_finite(k: int, layer: int, **values) -> None:
    name = next(n for n, v in values.items() if not isfinite(v))
    raise ValueError(f"step {k}, layer {layer}: {name} is {values[name]}, not finite")


def crossing_positions(values: np.ndarray) -> list:
    """Zero crossings of a sequence, in fractional 0-based positions.

    An exact zero at position i is reported as float(i). A sign change
    between two nonzero neighbors i-1, i is reported at the linear
    interpolation i-1 + |v[i-1]| / (|v[i-1]| + |v[i]|).
    """
    v = np.asarray(values, dtype=np.float64)
    out = []
    for i in range(len(v)):
        if v[i] == 0.0:
            out.append(float(i))
        elif i > 0 and v[i - 1] != 0.0 and np.sign(v[i]) != np.sign(v[i - 1]):
            a, b = abs(v[i - 1]), abs(v[i])
            out.append(i - 1 + a / (a + b))
    return out


def find_zero_crossings(trace: TrajectoryTrace, layer: int) -> list:
    """Crossings of the cumulative net, in fractional step coordinates."""
    _check_layer(trace, layer)
    first = float(trace.steps[0])
    return [first + p for p in crossing_positions(trace.net_cum[:, layer])]


def find_entropy_minimum(trace: TrajectoryTrace, layer: int) -> int:
    """Step with the smallest per-step entropy; ties go to the earliest."""
    _check_layer(trace, layer)
    return int(trace.steps[np.argmin(trace.entropy_step[:, layer])])


def find_flow_peak(trace: TrajectoryTrace, layer: int) -> int:
    """Step with the largest flow norm; ties go to the earliest."""
    _check_layer(trace, layer)
    return int(trace.steps[np.argmax(trace.flow_norm[:, layer])])


def _check_layer(trace: TrajectoryTrace, layer: int) -> None:
    if not 0 <= layer < trace.n_layers:
        raise IndexError(f"layer {layer} out of range 0..{trace.n_layers - 1}")
