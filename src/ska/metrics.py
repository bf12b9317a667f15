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

import numpy as np

from . import linalg
from .dynamics import LN2, NetworkConfig, StepRecord


def entropy_step(Z: np.ndarray, dD: np.ndarray, scratch: np.ndarray | None = None) -> float:
    """Single-step layer entropy -(1/ln 2) * mean_samples sum_units Z * dD.

    scratch, when given, receives the product Z * dD instead of a fresh array.
    """
    if Z.shape != dD.shape:
        raise linalg.ShapeMismatchError("entropy_step", Z.shape, dD.shape)
    return float(-np.multiply(Z, dD, out=scratch).sum() / (LN2 * Z.shape[0]))


def net_step(D: np.ndarray, G: np.ndarray, dZ: np.ndarray,
             scratch: np.ndarray | None = None) -> float:
    """Single-step tensor net mean_samples sum_units (D - G) * dZ.

    D - G compares what a unit decided against how hard its entropy pushes
    it; weighting by the knowledge increment makes the running sum a
    discrete line integral along the trajectory. scratch, when given,
    receives (D - G) * dZ instead of a fresh array.
    """
    if not (D.shape == G.shape == dZ.shape):
        raise linalg.ShapeMismatchError("net_step", D.shape, dZ.shape)
    prod = np.subtract(D, G, out=scratch)
    prod *= dZ
    return float(prod.sum() / D.shape[0])


def cosine_alignment(Z: np.ndarray, dD: np.ndarray, norm_z: float | None = None) -> float:
    """Cosine between flattened Z and dD, NaN when undefined. norm_z, when
    given, is frobenius_norm(Z), already computed by the caller."""
    try:
        return linalg.cosine_flat(Z, dD, norm_a=norm_z)
    except linalg.UndefinedCosineError:
        return float("nan")


@dataclass
class TrajectoryTrace:
    """Column-wise record of one run: arrays shaped (K, n_layers).

    steps holds 1..K and times holds exactly steps * dt. cosine uses NaN
    for gaps. unit_paths maps (layer, unit, sample) selections to length-K
    arrays of recorded pre-activations (steps 0..K-1), when recording was
    requested.
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

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def total_time(self) -> float:
        return self.dt * self.n_steps

    def column(self, name: str) -> np.ndarray:
        if name not in _COLUMNS:
            raise KeyError(f"unknown trace column {name!r}")
        return getattr(self, name)


_COLUMNS = (
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

    add() must see each record before the next step() overwrites it, and it
    visits the layers one at a time, so their scratch views may share one
    block.
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
        if rec.dZ is None or rec.dD is None:
            raise ValueError("record has no increments; seeding step is not accumulated")
        if not 1 <= rec.k <= self.config.steps:
            raise ValueError(f"step index {rec.k} outside 1..{self.config.steps}")
        row = rec.k - 1
        scratch = rec.scratch or [None] * self.config.n_layers
        for l in range(self.config.n_layers):
            Z, D, G = rec.Z[l], rec.D[l], rec.G[l]
            dZ, dD, S = rec.dZ[l], rec.dD[l], scratch[l]
            zn = linalg.frobenius_norm(Z)
            self._es[row, l] = entropy_step(Z, dD, S)
            self._cos[row, l] = cosine_alignment(Z, dD, zn)
            self._zn[row, l] = zn
            self._fn[row, l] = linalg.frobenius_norm(dZ) / self.config.dt
            self._ns[row, l] = net_step(D, G, dZ, S)
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
