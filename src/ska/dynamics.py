"""Entropy-driven forward-only weight dynamics.

A network here is a stack of dense sigmoid layers with no biases. There is
no error signal and nothing propagates backward. Each layer carries a local
entropy built from its own pre-activations Z (the layer's knowledge) and
decisions D = sigmoid(Z),

    H = -(1/ln 2) * mean over samples of sum_k z_k * (D_k - D_k_prev),

and learning integrates the gradient flow of that local quantity with an
explicit Euler step:

    W(l)  <-  W(l) - dt * outer_mean(G(l), input(l))

where G = dH/dZ = -(1/ln 2) * Z * D * (1 - D), input(1) is the design matrix
and input(l) is the previous layer's current decisions. All layers update
simultaneously from the same forward snapshot, so within one step no layer
sees another layer's update.

Step indexing: a run performs one unrecorded seeding step (index 0) so that
every recorded step k = 1..K has a previous forward snapshot and therefore
well-defined increments dZ and dD. Recorded rows carry time t = k * dt.
Each recorded step measures its own metrics (see ska.metrics) while the
increments and the gradient are at hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import Dataset, take_batch
from .metrics import LN2, TraceAccumulator, entropy_step, net_step

# Most steps one run may take. The trace keeps seven float64 columns of
# (steps, layers), 56 MB per layer at this bound.
MAX_STEPS = 1_000_000

# Elements per block of the blocked sigmoid and gradient passes: one float64
# block is 128 KiB, so a block's temporaries stay in cache, and neither pass
# allocates a temporary the size of its input.
SIGMOID_BLOCK = 1 << 14

# Multiply-adds of a run's largest per-step product (samples x fan_in x
# fan_out) below which the run holds BLAS to one thread: there a second
# thread's wake-up and handoff cost more than it saves, and one thread makes
# the run's sums, and so its trace, the same at any thread setting.
SMALL_PRODUCT = 1 << 24


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


@dataclass
class LayerState:
    """Weights and the step buffers of one layer, each buffer shaped like Z.

    Z and D are the current forward snapshot. forward() rotates the previous
    one into prev_Z and prev_D, which a recorded step() reuses: prev_Z takes
    dZ, and prev_D takes dD, then the metric products and G in turn. These
    four are the step's only buffers the size of Z, and the first recorded
    step fixes the input shape every later step must keep.
    """

    W: np.ndarray
    Z: np.ndarray | None = None
    D: np.ndarray | None = None
    prev_Z: np.ndarray | None = None
    prev_D: np.ndarray | None = None


@dataclass
class Network:
    """Config, layers and the count of steps taken."""

    config: NetworkConfig
    layers: list
    step_index: int = 0


@dataclass
class StepRecord:
    """The metrics one step measured, one float per layer in each list.

    The five lists are None at the seeding step (k = 0), which has no
    previous forward snapshot to take increments against. cosine is NaN
    where it is undefined.
    """

    k: int
    entropy_step: list | None = None
    cosine: list | None = None
    z_norm: list | None = None
    flow_norm: list | None = None
    net_step: list | None = None


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


def step(net: Network, X: np.ndarray) -> StepRecord:
    """Forward pass, step metrics, entropy gradients, simultaneous Euler update.

    Every layer's gradient and input come from the snapshot the forward pass
    just produced, and neither depends on any weight, so updating each layer
    in place as soon as its gradient is known leaves the step simultaneous:
    shallower layers are never contaminated by deeper ones.

    A recorded step (k >= 1) works per layer over the retired snapshot:
    it writes the increments dZ and dD over it, takes ||Z||, the cosine of
    Z and dD, and ||dZ|| / dt, writes Z * dD over dD for the entropy, the
    gradient G over that spent block, applies the update, and writes
    (D - G) * dZ over the same block for the net. So a step allocates only
    the new snapshot (Z, D), the update block and the block-sized
    temporaries of the sigmoid and gradient passes. The seeding step (k = 0)
    has no increments and takes its gradient in a transient array.
    """
    dt = net.config.dt
    k = net.step_index
    forward(net, X)
    inp = np.ascontiguousarray(X, dtype=np.float64)
    rec = StepRecord(k) if k == 0 else StepRecord(k, [], [], [], [], [])
    for layer in net.layers:
        Z, D = layer.Z, layer.D
        if k == 0:
            G = entropy_gradient(Z, D)
        else:
            dZ = np.subtract(Z, layer.prev_Z, out=layer.prev_Z)
            dD = np.subtract(D, layer.prev_D, out=layer.prev_D)
            zn = linalg.frobenius_norm(Z)
            rec.z_norm.append(zn)
            rec.cosine.append(linalg.cosine_flat(Z, dD, norm_a=zn))
            rec.flow_norm.append(linalg.frobenius_norm(dZ) / dt)
            rec.entropy_step.append(entropy_step(Z, dD, out=dD))
            G = entropy_gradient(Z, D, out=dD)
        upd = linalg.outer_mean(G, inp)
        upd *= dt
        layer.W -= upd
        if k != 0:
            rec.net_step.append(net_step(D, G, dZ, out=G))
        inp = D
    net.step_index += 1
    return rec


def run(
    net: Network,
    dataset: Dataset,
    record_units: list | None = None,
):
    """Integrate for K recorded steps and build the trajectory trace.

    Every step forwards the whole design matrix, so the flow is autonomous.
    Performs the seeding step, then K = config.steps recorded steps whose
    metrics are accumulated row by row; the returned trace carries times
    t_k = k * dt for k = 1..K. record_units takes (layer, unit, sample)
    triples; each selected scalar pre-activation is sampled at steps
    0..K-1 (K values, constant dt spacing) and stored on the trace.

    A run whose largest product is below SMALL_PRODUCT multiply-adds runs
    on one BLAS thread, any other on the caller's count; the trace records
    the count used (None when no OpenBLAS thread switch is found).
    """
    cfg = net.config
    if net.step_index != 0:
        raise ValueError("run() expects a freshly initialized network")
    selections = [tuple(int(v) for v in sel) for sel in (record_units or [])]
    probe = take_batch(dataset)
    for layer_i, unit_i, sample_i in selections:
        if not 0 <= layer_i < cfg.n_layers:
            raise ValueError(f"selection layer {layer_i} out of range")
        if not 0 <= unit_i < cfg.layer_sizes[layer_i + 1]:
            raise ValueError(f"selection unit {unit_i} out of range for layer {layer_i}")
        if not 0 <= sample_i < probe.shape[0]:
            raise ValueError(f"selection sample {sample_i} out of dataset range")
    paths = {sel: np.empty(cfg.steps) for sel in selections}
    acc = TraceAccumulator(cfg)
    sizes = cfg.layer_sizes
    largest = probe.shape[0] * max(a * b for a, b in zip(sizes, sizes[1:]))
    with linalg.blas_threads(1 if largest < SMALL_PRODUCT else None) as threads:
        for k in range(cfg.steps + 1):
            X = take_batch(dataset)
            rec = step(net, X)
            if k < cfg.steps:
                for sel in selections:
                    layer_i, unit_i, sample_i = sel
                    paths[sel][k] = net.layers[layer_i].Z[sample_i, unit_i]
            if k >= 1:
                acc.add(rec)
    trace = acc.finish()
    trace.unit_paths = paths
    trace.blas_threads = threads
    return trace
