"""Entropy-driven forward-only weight dynamics.

A network here is a stack of dense sigmoid layers with no biases. There is
no error signal and nothing propagates backward. Each layer carries a local
entropy built from its own pre-activations Z (the layer's knowledge) and
decisions D = sigmoid(Z),

    H = -(1/ln 2) * mean over samples of sum_k z_k * (D_k - D_k_prev),

and learning integrates the gradient flow of that local quantity with an
explicit Euler step:

    W(l)  <-  W(l) - dt * outer_mean(G(l), input(l))

where G = dH/dZ = -(1/ln 2) * Z * D * (1 - D), input(1) is the data batch
and input(l) is the previous layer's current decisions. All layers update
simultaneously from the same forward snapshot, so within one step no layer
sees another layer's update.

Step indexing: a run performs one unrecorded seeding step (index 0) so that
every recorded step k = 1..K has a previous forward snapshot and therefore
well-defined increments dZ and dD. Recorded rows carry time t = k * dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import Dataset, take_batch

LN2 = float(np.log(2.0))

# Most steps one run may take. The trace keeps seven float64 columns of
# (steps, layers), 56 MB per layer at this bound.
MAX_STEPS = 1_000_000


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic map, exact in both tails, without branches.

    With e = exp(-|z|) the exponential argument is never positive, and the
    map is 1 / (1 + e) for z >= 0 and e / (1 + e) below zero. Since
    0 <= e <= 1, the numerator is max(z >= 0, e), so one pass over the
    array serves both signs and equals the sign-split form bit for bit. For
    |z| < 36 the result stays strictly inside (0, 1) in float64.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.abs(z, out=np.empty_like(z))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(z >= 0.0, e, out=np.empty_like(z))
    e += 1.0
    return np.divide(out, e, out=out)


def entropy_gradient(
    z: np.ndarray, d: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of the layer entropy with respect to pre-activations.

    Closed form -(1/ln 2) * z * sigmoid'(z) with sigmoid'(z) = d * (1 - d),
    evaluated as ((z * d) * (1 - d)) / -ln 2. When given, out receives the
    result and scratch holds 1 - d; both must have the shape of z.
    """
    out = np.multiply(z, d, out=out)
    out *= np.subtract(1.0, d, out=scratch)
    out /= -LN2
    return out


def entropy_primitive(z) -> np.ndarray:
    """Antiderivative h(z) of the scalar entropy gradient, h(0) = 0.

    h(z) = -(1/ln 2) * (z * sigmoid(z) - ln(1 + e^z) + ln 2). Its derivative
    is entropy_gradient restricted to a scalar, which gives an independent
    finite-difference check on the gradient's closed form. The softplus term
    is evaluated as logaddexp(0, z) so large |z| cannot overflow.
    """
    z = np.asarray(z, dtype=np.float64)
    return -(z * sigmoid(z) - np.logaddexp(0.0, z) + LN2) / LN2


def bounded_steps(k, what: str) -> int:
    """k rounded to a step count, or ValueError naming what when k is not
    finite or exceeds MAX_STEPS. A window too long to trace then stops here
    instead of in int() or while the trace is allocated."""
    if not k <= MAX_STEPS:
        raise ValueError(f"{what}: {k} steps exceed the limit of {MAX_STEPS}")
    return int(round(k))


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture plus integration parameters.

    layer_sizes starts with the input dimension: [784, 256, 128, 64, 10]
    describes four weight layers. steps counts recorded integration steps K;
    the run covers total time T = dt * K.
    """

    layer_sizes: tuple
    dt: float
    steps: int
    init_std_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs an input dim and at least one layer")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        if not (self.dt > 0.0) or not np.isfinite(self.dt):
            raise ValueError("dt must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if not (self.init_std_scale >= 0.0) or not np.isfinite(self.init_std_scale):
            raise ValueError("init_std_scale must be non-negative and finite")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def total_time(self) -> float:
        return self.dt * self.steps


@dataclass
class LayerState:
    """Weights and the step buffers of one layer, each buffer shaped like Z.

    Z and D are the current forward snapshot. forward() rotates the previous
    one into prev_Z and prev_D, and step() then writes the increments
    Z - prev_Z and D - prev_D over them, so after a step prev_Z and prev_D
    hold dZ and dD. G holds the entropy gradient and scratch is this layer's
    view of the network's shared scratch block; both are allocated on the
    first step, which also fixes the batch shape every later step must keep.
    """

    W: np.ndarray
    Z: np.ndarray | None = None
    D: np.ndarray | None = None
    prev_Z: np.ndarray | None = None
    prev_D: np.ndarray | None = None
    G: np.ndarray | None = None
    scratch: np.ndarray | None = None


@dataclass
class Network:
    """Config, layers and the count of steps taken.

    scratch is one block sized to the largest layer's Z, allocated on the
    first step; every layer's scratch is a view of it. One block serves
    them all because step() and TraceAccumulator.add visit the layers one
    at a time. A StepRecord stays valid until the next step(), whose
    increments overwrite its Z and D.
    """

    config: NetworkConfig
    layers: list
    step_index: int = 0
    scratch: np.ndarray | None = None


@dataclass
class StepRecord:
    """Everything one step produced, per layer, for the metrics stage.

    dZ and dD are None at the seeding step (k = 0), where no previous
    forward snapshot exists yet. Every array aliases a buffer of the
    network, and the record is valid until the next step(): that step
    writes its increments over this record's Z and D (the next record's dZ
    and dD are this record's Z and D objects) and its gradient pass over G
    and scratch. scratch is free for the consumer to overwrite. Holding a
    record past the next step() keeps its dZ and dD alive alongside the
    next forward snapshot, which is why run() drops each record first.
    """

    k: int
    Z: list
    D: list
    G: list
    dZ: list | None
    dD: list | None
    scratch: list | None = None


def init_network(config: NetworkConfig) -> Network:
    """Gaussian weights with per-layer std init_std_scale / sqrt(fan_in).

    A single seeded generator draws layer after layer, so the full weight
    state is a pure function of (layer_sizes, init_std_scale, seed). With
    init_std_scale = 0 every weight is exactly zero.
    """
    rng = np.random.default_rng(config.seed)
    layers = []
    sizes = config.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        std = config.init_std_scale / np.sqrt(fan_in)
        layers.append(LayerState(W=rng.standard_normal((fan_out, fan_in)) * std))
    return Network(config=config, layers=layers)


def forward(net: Network, X: np.ndarray) -> list:
    """One forward pass; returns the per-layer (Z, D) list.

    Each layer's previous snapshot is rotated out before being overwritten,
    so after this call prev_Z/prev_D hold the values of the preceding pass.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.config.layer_sizes[0]:
        raise linalg.ShapeMismatchError(
            "forward", X.shape, (X.shape[0] if X.ndim else 0, net.config.layer_sizes[0])
        )
    inp = X
    out = []
    for layer in net.layers:
        layer.prev_Z = layer.Z
        layer.prev_D = layer.D
        layer.Z = linalg.matmul(inp, layer.W.T)
        layer.D = sigmoid(layer.Z)
        out.append((layer.Z, layer.D))
        inp = layer.D
    return out


def step(net: Network, X: np.ndarray, dt: float | None = None) -> StepRecord:
    """Forward pass, entropy gradients, simultaneous Euler weight update.

    Every layer's gradient and input come from the snapshot the forward pass
    just produced, and neither depends on any weight, so updating each layer
    in place as soon as its gradient is known leaves the step simultaneous:
    shallower layers are never contaminated by deeper ones. The gradient is
    written into G, the increments over the retired snapshot, and the update
    is subtracted in place, so a step allocates only the new snapshot (Z, D)
    and the update block. With dt = 0 the weights are left untouched.
    """
    if dt is None:
        dt = net.config.dt
    had_prev = net.step_index >= 1
    forward(net, X)
    inp = np.ascontiguousarray(X, dtype=np.float64)
    layers = net.layers
    if net.scratch is None:
        net.scratch = np.empty(max(l.Z.size for l in layers))
        for layer in layers:
            layer.G = np.empty_like(layer.Z)
            layer.scratch = net.scratch[:layer.Z.size].reshape(layer.Z.shape)
    for layer in layers:
        entropy_gradient(layer.Z, layer.D, out=layer.G, scratch=layer.scratch)
        if dt != 0.0:
            upd = linalg.outer_mean(layer.G, inp)
            upd *= dt
            layer.W -= upd
        if had_prev:
            np.subtract(layer.Z, layer.prev_Z, out=layer.prev_Z)
            np.subtract(layer.D, layer.prev_D, out=layer.prev_D)
        inp = layer.D
    rec = StepRecord(
        k=net.step_index,
        Z=[l.Z for l in layers],
        D=[l.D for l in layers],
        G=[l.G for l in layers],
        dZ=[l.prev_Z for l in layers] if had_prev else None,
        dD=[l.prev_D for l in layers] if had_prev else None,
        scratch=[l.scratch for l in layers],
    )
    net.step_index += 1
    return rec


def run(
    net: Network,
    dataset: Dataset,
    batch_size: int | None = None,
    batch_mode: str = "full",
    record_units: list | None = None,
):
    """Integrate for K recorded steps and build the trajectory trace.

    Performs the seeding step, then K = config.steps recorded steps whose
    metrics are accumulated row by row; the returned trace carries times
    t_k = k * dt for k = 1..K. record_units takes (layer, unit, sample)
    triples; each selected scalar pre-activation is sampled at steps
    0..K-1 (K values, constant dt spacing) and stored on the trace.
    """
    from .metrics import TraceAccumulator

    cfg = net.config
    if net.step_index != 0:
        raise ValueError("run() expects a freshly initialized network")
    selections = [tuple(int(v) for v in sel) for sel in (record_units or [])]
    probe = take_batch(dataset, batch_size, batch_mode, 0)
    for layer_i, unit_i, sample_i in selections:
        if not 0 <= layer_i < cfg.n_layers:
            raise ValueError(f"selection layer {layer_i} out of range")
        if not 0 <= unit_i < cfg.layer_sizes[layer_i + 1]:
            raise ValueError(f"selection unit {unit_i} out of range for layer {layer_i}")
        if not 0 <= sample_i < probe.shape[0]:
            raise ValueError(f"selection sample {sample_i} out of batch range")
    paths = {sel: np.empty(cfg.steps) for sel in selections}
    acc = TraceAccumulator(cfg)
    for k in range(cfg.steps + 1):
        X = take_batch(dataset, batch_size, batch_mode, k)
        rec = step(net, X, cfg.dt)
        if k < cfg.steps:
            for sel in selections:
                layer_i, unit_i, sample_i = sel
                paths[sel][k] = rec.Z[layer_i][sample_i, unit_i]
        if k >= 1:
            acc.add(rec)
        # A record still held at the next step would keep its increments
        # alive through that forward pass, beside the snapshot it allocates.
        del rec
    trace = acc.finish()
    trace.unit_paths = paths
    return trace
