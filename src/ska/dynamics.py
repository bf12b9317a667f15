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

# Elements per block of the blocked sigmoid and gradient passes: one float64
# block is 128 KiB, so a block's temporaries stay in cache, and neither pass
# allocates a temporary the size of its input.
SIGMOID_BLOCK = 1 << 14


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic map, exact in both tails, without branches.

    With e = exp(-|z|) the exponential argument is never positive, and the
    map is 1 / (1 + e) for z >= 0 and e / (1 + e) below zero. Since
    0 <= e <= 1, the numerator is max(z >= 0, e), so one pass over the
    array serves both signs and equals the sign-split form bit for bit. For
    |z| < 36 the result stays strictly inside (0, 1) in float64.

    An array larger than SIGMOID_BLOCK is walked flat in blocks of that
    many elements, so the pass allocates the output plus one block-sized
    float temporary and one bool mask (and a flat copy of z when z is
    neither C- nor F-contiguous).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.size <= SIGMOID_BLOCK:
        return _logistic(z, np.empty_like(z), np.empty_like(z), None)
    order = _order(z)
    out = np.empty(z.shape, order=order)
    e = np.empty(SIGMOID_BLOCK)
    mask = np.empty(SIGMOID_BLOCK, dtype=bool)
    zf, of = z.ravel(order), out.ravel(order)
    for blk in _blocks(zf.size):
        o = of[blk]
        _logistic(zf[blk], o, e[:o.size], mask[:o.size])
    return out


def _logistic(z, out, e, mask):
    # The branch-free chain of sigmoid() over one block; e and mask are
    # temporaries shaped like z (mask None allocates one).
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(np.greater_equal(z, 0.0, mask), e, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def _order(a: np.ndarray) -> str:
    """The order, C or F, in which a flattens to a view if it is contiguous."""
    return "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"


def _blocks(n: int):
    """Slices covering 0..n in runs of SIGMOID_BLOCK elements."""
    return (slice(i, i + SIGMOID_BLOCK) for i in range(0, n, SIGMOID_BLOCK))


def entropy_gradient(z: np.ndarray, d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the layer entropy with respect to pre-activations.

    Closed form -(1/ln 2) * z * sigmoid'(z) with sigmoid'(z) = d * (1 - d),
    evaluated as ((z * d) * (1 - d)) / -ln 2. When given, out receives the
    result. Above SIGMOID_BLOCK elements z, d and out must share one shape,
    out must be contiguous, and 1 - d is formed one block at a time, so the
    only temporary is block-sized (z and d are copied flat only when laid
    out unlike out).
    """
    # Python scalars have no size and take the whole-array form, as arrays
    # of one block or less do.
    if getattr(z, "size", 0) <= SIGMOID_BLOCK:
        return _gradient(z, d, out, None)
    if out is None:
        out = np.empty(z.shape, order=_order(z))
    for other in (d, out):
        if other.shape != z.shape:
            raise linalg.ShapeMismatchError("entropy_gradient", z.shape, other.shape)
    if not (out.flags.c_contiguous or out.flags.f_contiguous):
        raise ValueError("entropy_gradient: out must be contiguous")
    order = _order(out)
    zf, df, of = z.ravel(order), d.ravel(order), out.ravel(order)
    t = np.empty(SIGMOID_BLOCK)
    for blk in _blocks(of.size):
        o = of[blk]
        _gradient(zf[blk], df[blk], o, t[:o.size])
    return out


def _gradient(z, d, out, t):
    # The chain of entropy_gradient() over one block; t is a temporary
    # shaped like z for 1 - d (None allocates one), out may be None.
    out = np.multiply(z, d, out=out)
    out *= np.subtract(1.0, d, out=t)
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
    hold dZ and dD. G holds the entropy gradient; it is allocated on the
    first step, which also fixes the batch shape every later step must keep.
    These five are the step's only buffers the size of Z.
    """

    W: np.ndarray
    Z: np.ndarray | None = None
    D: np.ndarray | None = None
    prev_Z: np.ndarray | None = None
    prev_D: np.ndarray | None = None
    G: np.ndarray | None = None


@dataclass
class Network:
    """Config, layers and the count of steps taken.

    A StepRecord stays valid until the next step(), whose increments
    overwrite its Z and D, and TraceAccumulator.add spends its dD and G.
    """

    config: NetworkConfig
    layers: list
    step_index: int = 0


@dataclass
class StepRecord:
    """Everything one step produced, per layer, for the metrics stage.

    dZ and dD are None at the seeding step (k = 0), where no previous
    forward snapshot exists yet. Every array aliases a buffer of the
    network, and the record is valid until the next step(): that step
    writes its increments over this record's Z and D (the next record's dZ
    and dD are this record's Z and D objects) and its gradient pass over G.
    TraceAccumulator.add spends the record: it writes its metric products
    over dD and G, so read those two before add(). Holding a record past
    the next step() keeps its dZ and dD alive alongside the next forward
    snapshot, which is why run() drops each record first.
    """

    k: int
    Z: list
    D: list
    G: list
    dZ: list | None
    dD: list | None


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
    is subtracted in place, so a step allocates only the new snapshot (Z, D),
    the update block and the block-sized temporaries of the sigmoid and
    gradient passes. With dt = 0 the weights are left untouched.
    """
    if dt is None:
        dt = net.config.dt
    had_prev = net.step_index >= 1
    forward(net, X)
    inp = np.ascontiguousarray(X, dtype=np.float64)
    layers = net.layers
    if layers[0].G is None:
        for layer in layers:
            layer.G = np.empty_like(layer.Z)
    for layer in layers:
        entropy_gradient(layer.Z, layer.D, out=layer.G)
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
