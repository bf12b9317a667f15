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
and input(l) is the previous layer's current decisions. A step integrates
each layer as soon as the forward pass has produced it, yet all layers
update simultaneously from the same forward snapshot: layer l + 1's forward
reads D(l), never W(l), and the update never writes a snapshot, so within
one step no layer sees another layer's update.

Step indexing: a run performs one unrecorded seeding step (index 0) so that
every recorded step k = 1..K has a previous forward snapshot and therefore
well-defined increments dZ and dD. Recorded rows carry time t = k * dt.
Each recorded step measures its own metrics (see ska.metrics) while the
increments and the gradient are at hand.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import Dataset, take_batch
from .metrics import LN2, TraceAccumulator, entropy_step, net_step

# Most steps one run may take. The trace keeps seven float64 columns of
# (steps, layers), 56 MB per layer at this bound.
MAX_STEPS = 1_000_000

# Elements per block of the elementwise passes: 128 KiB of float64, so a block stays in cache.
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

    z is read as C-ordered float64; the result is a new C-contiguous array.
    """
    z = np.asarray(z, dtype=np.float64, order="C")
    out = np.empty_like(z)
    if z.size == 1:
        out.flat[0] = _logistic1(z.item())
        return out
    return _elementwise(_logistic, out, z)


def entropy_gradient(z: np.ndarray, d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the layer entropy with respect to pre-activations.

    Closed form -(1/ln 2) * z * sigmoid'(z) with sigmoid'(z) = d * (1 - d),
    evaluated as ((z * d) * (1 - d)) / -ln 2 into out, or a new C-contiguous
    array. z and d are read as C-ordered float64. z, d and out must share one
    shape, or ShapeMismatchError is raised (nothing broadcasts), and an out
    that is not C-contiguous raises ValueError.
    """
    z = np.asarray(z, dtype=np.float64, order="C")
    d = np.asarray(d, dtype=np.float64, order="C")
    for other in (d, out):
        if other is not None and other.shape != z.shape:
            raise linalg.ShapeMismatchError("entropy_gradient", z.shape, other.shape)
    if out is None:
        out = np.empty_like(z)
    elif not out.flags.c_contiguous:
        raise ValueError("entropy_gradient: out must be C-contiguous")
    if z.size == 1:
        out.flat[0] = _gradient1(z.item(), d.item())
        return out
    return _elementwise(_gradient, out, z, d)


def _elementwise(chain, out, *operands):
    """Fill out with chain(*operands, out, t) and return it; the arrays are
    C-contiguous and of one shape. At or below SIGMOID_BLOCK elements the
    chain runs once on the whole arrays with t None, for it to allocate;
    above, on each block of their flat views in turn with one block-sized t,
    so no temporary is the size of the input."""
    if out.size <= SIGMOID_BLOCK:
        return chain(*operands, out, None)
    t = np.empty(SIGMOID_BLOCK)
    flat = [a.ravel() for a in (*operands, out)]
    for i in range(0, out.size, SIGMOID_BLOCK):
        *blocks, o = [a[i:i + SIGMOID_BLOCK] for a in flat]
        chain(*blocks, o, t[:o.size])
    return out


def _logistic(z, out, t):
    # sigmoid()'s chain: out holds e = exp(-|z|) until the numerator replaces it; t = 1 + e.
    np.abs(z, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    t = np.add(out, 1.0, out=t)
    np.maximum(np.greater_equal(z, 0.0), out, out=out)
    return np.divide(out, t, out=out)


def _logistic1(z):
    # max(z >= 0, e) is 1 or e; np.exp, since math.exp rounds some z differently
    e = float(np.exp(-abs(z)))
    return (1.0 if z >= 0.0 else e) / (e + 1.0)


def _gradient(z, d, out, t):
    np.multiply(z, d, out=out)
    out *= np.subtract(1.0, d, out=t)
    out /= -LN2
    return out


def _gradient1(z, d):
    return z * d * (1.0 - d) / -LN2


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
    describes four weight layers. steps counts recorded integration steps K,
    at most MAX_STEPS; the run covers total time T = dt * K.
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
        if not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        bounded_steps(self.steps, "run window")
        if not (self.init_std_scale >= 0.0) or not np.isfinite(self.init_std_scale):
            raise ValueError("init_std_scale must be non-negative and finite")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1


@dataclass
class LayerState:
    """Weights and the current forward snapshot of one layer.

    Z and D are the snapshot the last forward pass produced, the layer's
    only blocks the size of Z between steps. The first recorded step fixes
    the input shape every later step must keep.
    """

    W: np.ndarray
    Z: np.ndarray | None = None
    D: np.ndarray | None = None


@dataclass
class Network:
    """Config, layers and the count of steps taken."""

    config: NetworkConfig
    layers: list
    step_index: int = 0


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


def forward(net: Network, X: np.ndarray):
    """A lazy forward pass: checks X now and returns an iterator over layers.

    Each item computes one layer's new snapshot Z = input @ W.T and
    D = sigmoid(Z), stores it on the layer and yields (layer, input,
    (Z_prev, D_prev)): the input is X, converted to C-contiguous float64,
    for layer 0 and the previous layer's D after it, and the pair is the one
    it replaced, (None, None) before the first pass. The next layer is
    computed only when the caller asks for it, from this layer's D, so a
    caller may update this layer's W in between, and the iterator keeps no
    reference to a pair it has yielded once asked for the next layer.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.config.layer_sizes[0]:
        raise linalg.ShapeMismatchError(
            "forward", X.shape, (X.shape[0] if X.ndim else 0, net.config.layer_sizes[0])
        )
    return _forward(net.layers, X)


def _forward(layers, inp):
    for layer in layers:
        retired = layer.Z, layer.D
        layer.Z = linalg.matmul(inp, layer.W.T)
        layer.D = sigmoid(layer.Z)
        yield layer, inp, retired
        inp = layer.D


def step(net: Network, X: np.ndarray) -> list | None:
    """Forward pass, step metrics, entropy gradients, simultaneous Euler update,
    one layer at a time as the forward pass reaches it.

    A layer's gradient and input come from the snapshot the forward pass
    just produced, and the next layer's forward reads only this layer's D,
    so updating each layer in place before forwarding the next leaves the
    step simultaneous: no layer's update sees another layer's.

    A recorded step (k >= 1) works over the pair the layer's forward
    retired: it writes the increments dZ and dD over it, takes ||Z||, the
    cosine of Z and dD, ||dZ|| / dt and the entropy, each one reduction
    that writes nothing, writes the gradient G over the spent dD, applies
    the update, and writes D - G over G for the net. It then releases the
    pair before the next layer is forwarded, so between steps each layer
    holds two blocks the size of Z, and only the layer in flight holds four.
    A step allocates only the new snapshot (Z, D), the update block and the
    block-sized temporaries of the sigmoid and gradient passes, plus, when X
    is not C-contiguous float64, the forward pass's one copy of it, which
    layer 0's update reads too. The seeding step (k = 0) has no increments and
    no retired pair, so its gradient takes a fresh array.

    Returns the step's record: None at the seeding step, else one
    (entropy_step, cosine, z_norm, flow_norm, net_step) tuple of floats per
    layer, with cosine NaN where it is undefined.
    """
    dt = net.config.dt
    k = net.step_index
    record = None if k == 0 else []
    for layer, inp, (dZ, dD) in forward(net, X):
        Z, D = layer.Z, layer.D
        if k != 0:
            # the retired pair turns into (dZ, dD) in place, in Python floats on one element
            if Z.size == 1:
                dZ.flat[0], dD.flat[0] = Z.item() - dZ.item(), D.item() - dD.item()
            else:
                np.subtract(Z, dZ, out=dZ)
                np.subtract(D, dD, out=dD)
            zn = linalg.frobenius_norm(Z)
            cos = linalg.cosine_flat(Z, dD, norm_a=zn)
            fn = linalg.frobenius_norm(dZ) / dt
            es = entropy_step(Z, dD)
        G = entropy_gradient(Z, D, out=dD)
        upd = linalg.outer_mean(G, inp)
        if upd.size == 1:
            layer.W.flat[0] = layer.W.item() - upd.item() * dt
        else:
            upd *= dt
            layer.W -= upd
        if k != 0:
            record.append((es, cos, zn, fn, net_step(D, G, dZ, out=G)))
        del inp, dZ, dD, G, upd
    net.step_index += 1
    return record


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
            record = step(net, X)
            if k < cfg.steps:
                for sel in selections:
                    layer_i, unit_i, sample_i = sel
                    paths[sel][k] = net.layers[layer_i].Z[sample_i, unit_i]
            if k >= 1:
                acc.add(record)
    trace = acc.finish()
    trace.unit_paths = paths
    trace.blas_threads = threads
    return trace
