"""Network dynamics: stable sigmoid, gradient oracle, Euler step semantics.

Frozen constants below were computed once with 40-digit arithmetic:
sigmoid(1)  = 0.7310585786300049
sigmoid'(1) = 0.19661193324148185
gradient(1) = -(1 * sigmoid'(1)) / ln 2 = -0.2836510610670778
h(1)        = -0.16005846201683078
"""

import math
import tracemalloc

import numpy as np
import pytest

import ska
from ska.dynamics import LN2, SIGMOID_BLOCK, SMALL_PRODUCT, NetworkConfig
from ska.linalg import blas_threads, cosine_flat, frobenius_norm

SIG1 = 0.7310585786300049
GRAD1 = -0.2836510610670778
H1 = -0.16005846201683078


# ----------------------------------------------------------- sigmoid ---


def test_sigmoid_known_values():
    assert ska.sigmoid(np.array(0.0)) == 0.5
    assert abs(float(ska.sigmoid(np.array(1.0))) - SIG1) < 1e-16
    # symmetry sigma(-z) = 1 - sigma(z)
    z = np.linspace(-8, 8, 33)
    np.testing.assert_allclose(ska.sigmoid(-z), 1.0 - ska.sigmoid(z), atol=1e-15)


def test_sigmoid_extreme_arguments_no_overflow():
    with np.errstate(over="raise", invalid="raise"):
        big = ska.sigmoid(np.array([800.0, -800.0, 30.0, -30.0]))
    assert big[0] == 1.0
    assert big[1] == 0.0
    assert 0.0 < big[3] < big[2] < 1.0
    assert np.all(np.isfinite(big))


def test_sigmoid_monotone_on_grid():
    z = np.linspace(-30, 30, 601)
    s = ska.sigmoid(z)
    assert np.all(np.diff(s) >= 0.0)
    assert np.all((s >= 0.0) & (s <= 1.0))


def sigmoid_sign_split(z):
    """The masked two-branch logistic map, kept as the reference form."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_sign_split_form_bitwise():
    rng = np.random.default_rng(31)
    special = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 36.0, -36.0]
    for z in [rng.standard_normal((64, 33)) * s for s in (0.5, 5.0, 50.0, 900.0)] + [
        np.array(special)
    ]:
        assert ska.sigmoid(z).tobytes() == sigmoid_sign_split(z).tobytes()
    assert np.isnan(ska.sigmoid(np.array([np.nan, -np.nan]))).all()


def test_entropy_gradient_out_matches_fresh_bitwise():
    rng = np.random.default_rng(32)
    z = rng.standard_normal((17, 9)) * 4.0
    d = ska.sigmoid(z)
    fresh = ska.entropy_gradient(z, d)
    out = np.empty_like(z)
    got = ska.entropy_gradient(z, d, out=out)
    assert got is out
    assert got.tobytes() == fresh.tobytes()
    assert fresh.tobytes() == (-(z * d * (1.0 - d)) / LN2).tobytes()


def sigmoid_whole_array(z):
    """The branch-free chain of sigmoid() over the whole array at once, with
    its two full-size temporaries: the unblocked reference form."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.maximum(z >= 0.0, e) / (e + 1.0)


def _blocking_inputs():
    """Inputs around the block size: 1-d at SIGMOID_BLOCK - 1, + 0, + 1 and
    3 * SIGMOID_BLOCK + 5 elements with special values spread through them
    (block edges included), their transposed 2-d forms, a strided view, and
    0-d arrays."""
    B = SIGMOID_BLOCK
    rng = np.random.default_rng(34)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0,
                        36.0, -36.0, 5e-324, -5e-324, 1e300, -1e300])
    shapes = {B - 1: (129, 127), B: (128, 128), B + 1: (113, 145), 3 * B + 5: None}
    out = []
    for n, shape in shapes.items():
        z = rng.standard_normal(n) * 30.0
        z[np.linspace(0, n - 1, special.size).astype(int)] = special
        z[[i for i in (B - 1, B) if i < n]] = -np.inf
        out.append(z)
        if shape is not None:
            out.append(z.reshape(shape).T)
    out.append(out[-1][::2])
    out.append(out[-1].reshape(-1, 1).T)
    out += [np.array(v) for v in special]
    return out


def _same_bits(a, b):
    """Bitwise equality; on 0-d values numpy's scalar and array arithmetic
    may give a NaN opposite signs, so there any two NaNs match."""
    a, b = np.asarray(a), np.asarray(b)
    return a.tobytes() == b.tobytes() or (a.ndim == 0 and np.isnan(a) and np.isnan(b))


@np.errstate(invalid="ignore")
def test_blocked_passes_match_whole_array_forms_bitwise():
    for z in _blocking_inputs():
        s = ska.sigmoid(z)
        assert s.shape == z.shape
        assert s.tobytes() == sigmoid_whole_array(z).tobytes(), z.shape
        if z.ndim == 2 and z.flags.f_contiguous:
            assert s.flags.f_contiguous
        d = sigmoid_whole_array(z)
        # divided by -ln 2 rather than negated, so NaN signs match too
        want = (z * d) * (1.0 - d) / -LN2
        assert _same_bits(ska.entropy_gradient(z, d), want), z.shape
        out = np.empty_like(z)
        assert ska.entropy_gradient(z, d, out=out) is out
        assert _same_bits(out, want), z.shape
    big = np.zeros(SIGMOID_BLOCK + 1)
    with pytest.raises(ska.linalg.ShapeMismatchError):
        ska.entropy_gradient(big, big, out=np.empty(SIGMOID_BLOCK + 2))
    with pytest.raises(ValueError, match="contiguous"):
        ska.entropy_gradient(big, big, out=np.empty(2 * big.size)[::2])


# ---------------------------------------------------------- gradient ---


def test_entropy_gradient_frozen_value():
    z = np.array([[1.0]])
    g = ska.entropy_gradient(z, ska.sigmoid(z))
    assert abs(float(g[0, 0]) - GRAD1) < 1e-16


def test_entropy_gradient_odd_and_zero():
    z = np.linspace(-6, 6, 25).reshape(5, 5)
    g = ska.entropy_gradient(z, ska.sigmoid(z))
    g_neg = ska.entropy_gradient(-z, ska.sigmoid(-z))
    # z is odd and sigmoid'(z) even, so the gradient is odd
    np.testing.assert_allclose(g_neg, -g, atol=1e-15)
    assert float(ska.entropy_gradient(np.array(0.0), np.array(0.5))) == 0.0


def test_entropy_primitive_frozen_value_and_origin():
    assert float(ska.entropy_primitive(0.0)) == 0.0
    assert abs(float(ska.entropy_primitive(1.0)) - H1) < 1e-15


def test_gradient_is_derivative_of_primitive():
    # central differences of h against the closed form, away from z = 0
    zs = np.concatenate([np.arange(-10, 0, 0.5), np.arange(0.5, 10.5, 0.5)])
    # step balances truncation against cancellation in h ~ O(1)
    e = 1e-4
    fd = (ska.entropy_primitive(zs + e) - ska.entropy_primitive(zs - e)) / (2 * e)
    g = ska.entropy_gradient(zs, ska.sigmoid(zs))
    rel = np.abs(fd - g) / np.abs(g)
    assert rel.max() < 1e-6


def test_primitive_matches_series_quadrature():
    # composite Simpson on -(1/ln2) * u * sigmoid'(u) over [0, z]
    for z_end in (0.5, 1.0, -2.0, 4.0):
        n = 2000
        u = np.linspace(0.0, z_end, 2 * n + 1)
        s = ska.sigmoid(u)
        f = -(u * s * (1 - s)) / math.log(2)
        h = (z_end - 0.0) / (2 * n)
        integral = (h / 3) * (f[0] + f[-1] + 4 * f[1::2].sum() + 2 * f[2:-1:2].sum())
        assert abs(float(ska.entropy_primitive(z_end)) - integral) < 1e-9


# ------------------------------------------------------------ config ---


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(layer_sizes=(4,), dt=0.1, steps=1)
    with pytest.raises(ValueError):
        NetworkConfig(layer_sizes=(4, 0), dt=0.1, steps=1)
    with pytest.raises(ValueError):
        NetworkConfig(layer_sizes=(4, 2), dt=0.0, steps=1)
    with pytest.raises(ValueError):
        NetworkConfig(layer_sizes=(4, 2), dt=0.1, steps=0)
    with pytest.raises(ValueError):
        NetworkConfig(layer_sizes=(4, 2), dt=0.1, steps=1, init_std_scale=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="init_std_scale"):
            NetworkConfig(layer_sizes=(4, 2), dt=0.1, steps=1, init_std_scale=bad)
    cfg = NetworkConfig(layer_sizes=[4, 2], dt=0.25, steps=8)
    assert cfg.n_layers == 1


def test_init_network_statistics_and_determinism():
    cfg = NetworkConfig(layer_sizes=(100, 100), dt=0.1, steps=1, init_std_scale=1.5, seed=4)
    net = ska.init_network(cfg)
    w = net.layers[0].W
    assert w.shape == (100, 100)
    # 10^4 samples: empirical std within 5% of scale / sqrt(fan_in)
    assert abs(w.std() - 1.5 / 10.0) / (1.5 / 10.0) < 0.05
    again = ska.init_network(cfg)
    np.testing.assert_array_equal(w, again.layers[0].W)
    other = ska.init_network(NetworkConfig(layer_sizes=(100, 100), dt=0.1, steps=1,
                                           init_std_scale=1.5, seed=5))
    assert not np.array_equal(w, other.layers[0].W)


def test_init_zero_scale_is_all_zero():
    cfg = NetworkConfig(layer_sizes=(3, 2, 2), dt=0.1, steps=1, init_std_scale=0.0)
    net = ska.init_network(cfg)
    for layer in net.layers:
        np.testing.assert_array_equal(layer.W, 0.0)


# ----------------------------------------------------------- forward ---


def scalar_net(w0: float, dt: float, steps: int = 1):
    cfg = NetworkConfig(layer_sizes=(1, 1), dt=dt, steps=steps)
    net = ska.init_network(cfg)
    net.layers[0].W = np.array([[w0]])
    return net


def test_forward_computes_z_and_d():
    net = scalar_net(1.0, 0.1)
    out = ska.forward(net, np.array([[1.0]]))
    assert len(out) == 1
    assert float(out[0][0][0, 0]) == 1.0
    assert abs(float(out[0][1][0, 0]) - SIG1) < 1e-16


def test_forward_rotates_previous_snapshot():
    net = scalar_net(2.0, 0.1)
    ska.forward(net, np.array([[0.5]]))
    z_first = net.layers[0].Z.copy()
    ska.forward(net, np.array([[0.25]]))
    np.testing.assert_array_equal(net.layers[0].prev_Z, z_first)


def test_forward_rejects_wrong_input_width():
    net = scalar_net(1.0, 0.1)
    with pytest.raises(ska.linalg.ShapeMismatchError):
        ska.forward(net, np.ones((1, 3)))


# -------------------------------------------------------------- step ---


def test_one_step_weight_update_frozen():
    # W = 1, x = 1, dt = 0.1: W' = W - dt * gradient(1) = 1.0283651061067078
    net = scalar_net(1.0, 0.1)
    ska.step(net, np.array([[1.0]]))
    assert float(net.layers[0].Z[0, 0]) == 1.0
    assert abs(float(net.layers[0].W[0, 0]) - 1.0283651061067078) < 1e-15


def test_one_step_matches_manual_euler_bitwise():
    # dyadic dt keeps dt * g exact, so the update is one rounded subtraction
    net = scalar_net(1.0, 0.25)
    ska.step(net, np.array([[1.0]]))
    z = np.array([[1.0]])
    g = ska.entropy_gradient(z, ska.sigmoid(z))
    expect = 1.0 - 0.25 * float(g[0, 0])
    assert float(net.layers[0].W[0, 0]) == expect


def test_step_record_shapes_and_seed_semantics():
    cfg = NetworkConfig(layer_sizes=(4, 3, 2), dt=0.05, steps=2, seed=1)
    net = ska.init_network(cfg)
    X = np.random.default_rng(2).uniform(0, 1, (5, 4))
    rec0 = ska.step(net, X)
    assert rec0.k == 0
    # the seeding step has no increments, so it measures nothing
    metrics = ("entropy_step", "cosine", "z_norm", "flow_norm", "net_step")
    assert all(getattr(rec0, m) is None for m in metrics)
    z0 = net.layers[0].Z.copy()
    rec1 = ska.step(net, X)
    assert rec1.k == 1
    for m in metrics:
        values = getattr(rec1, m)
        assert len(values) == 2 and all(type(v) is float for v in values), m
    # the retired snapshot now holds dZ, the difference of consecutive
    # pre-activations
    np.testing.assert_array_equal(net.layers[0].prev_Z, net.layers[0].Z - z0)


@pytest.mark.parametrize("sizes", [(4, 3, 5, 2), (6, 900, 3)])
def test_step_metrics_match_their_formulas_bitwise(sizes):
    """Each metric a recorded step measures equals its metric function on
    copies of the two snapshots, the weights move by the gradient the metric
    pass wrote over the spent dD, and the retired pair ends holding dZ and
    (D - G) * dZ. The 900-unit layer's Z (20 x 900) spans two blocks, so
    the gradient written over the spent dD takes the blocked path."""
    cfg = NetworkConfig(layer_sizes=sizes, dt=0.1, steps=1, init_std_scale=2.0, seed=8)
    net = ska.init_network(cfg)
    X = np.random.default_rng(9).uniform(0, 1, (20, sizes[0]))
    ska.step(net, X)
    prev = [(l.Z.copy(), l.D.copy(), l.W.copy()) for l in net.layers]
    rec = ska.step(net, X)
    inp = X
    for l, (layer, (Zp, Dp, W)) in enumerate(zip(net.layers, prev)):
        Z, D = layer.Z.copy(), layer.D.copy()
        dZ, dD = Z - Zp, D - Dp
        G = ska.entropy_gradient(Z, D)
        assert rec.entropy_step[l] == ska.entropy_step(Z, dD)
        assert rec.cosine[l] == cosine_flat(Z, dD)
        assert rec.z_norm[l] == frobenius_norm(Z)
        assert rec.flow_norm[l] == frobenius_norm(dZ) / cfg.dt
        assert rec.net_step[l] == ska.net_step(D, G, dZ)
        assert layer.W.tobytes() == (W - ska.linalg.outer_mean(G, inp) * cfg.dt).tobytes()
        assert layer.prev_Z.tobytes() == dZ.tobytes()
        assert layer.prev_D.tobytes() == ((D - G) * dZ).tobytes()
        inp = D


def test_step_reuses_workspace_and_updates_weights_in_place():
    cfg = NetworkConfig(layer_sizes=(4, 3, 2), dt=0.1, steps=1, seed=8)
    net = ska.init_network(cfg)
    X = np.random.default_rng(9).uniform(0, 1, (6, 4))
    weights = [l.W for l in net.layers]
    ska.step(net, X)
    for _ in range(3):
        snapshot = [(l.Z, l.D) for l in net.layers]
        ska.step(net, X)
        # the increments and the metric products are written over the
        # snapshot the step retired, and the weights are updated in place
        assert all(l.prev_Z is z and l.prev_D is d for l, (z, d) in zip(net.layers, snapshot))
        assert all(l.W is w for l, w in zip(net.layers, weights))
    # increments need one batch shape throughout
    with pytest.raises(ValueError):
        ska.step(net, X[:2])


def test_step_working_set_is_four_blocks_per_layer():
    """Peak memory a run allocates: the weights, four Z-sized blocks per
    layer (Z, D and the retired snapshot pair, which holds dZ and a spent
    block that carries G), and the transients of one layer at a time: the
    update block and the sigmoid's block-sized temporaries (a float block
    and a bool mask; the gradient's one float block is no larger). The
    first two layers' Z span four and three sigmoid blocks, so a pass that
    allocated a Z-sized temporary there would exceed the bound."""
    sizes = (64, 128, 96, 32)
    n = 512
    cfg = NetworkConfig(layer_sizes=sizes, dt=0.05, steps=6, seed=3)
    ds = ska.synthetic_blobs(n, sizes[0], 4, seed=1)
    ska.run(ska.init_network(cfg), ds)  # lazy imports and caches, outside the count
    tracemalloc.start()
    try:
        ska.run(ska.init_network(cfg), ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = [8 * n * s for s in sizes[1:]]
    weights = [8 * a * b for a, b in zip(sizes[:-1], sizes[1:])]
    slack = 64 * 1024  # Python objects and the (steps, layers) trace
    bound = sum(weights) + 4 * sum(blocks) + max(weights) + 9 * SIGMOID_BLOCK
    assert peak <= bound + slack


def test_update_uses_simultaneous_snapshot():
    """Layer 0's update must not see layer 1's new weights, and vice versa."""
    cfg = NetworkConfig(layer_sizes=(3, 2, 2), dt=0.2, steps=1, seed=3)
    a = ska.init_network(cfg)
    b = ska.init_network(cfg)
    # same first layer, different second layer
    b.layers[1].W = b.layers[1].W + 0.5
    X = np.random.default_rng(4).uniform(0, 1, (4, 3))
    ska.step(a, X)
    ska.step(b, X)
    np.testing.assert_array_equal(a.layers[0].W, b.layers[0].W)


def test_update_is_local_to_each_layer():
    """Each layer's update is outer_mean(G, input) with its own G and input."""
    cfg = NetworkConfig(layer_sizes=(3, 2, 2), dt=0.2, steps=1, seed=5)
    net = ska.init_network(cfg)
    w_before = [l.W.copy() for l in net.layers]
    X = np.random.default_rng(6).uniform(0, 1, (4, 3))
    ska.step(net, X)
    inputs = [X, net.layers[0].D]
    for l, layer in enumerate(net.layers):
        upd = (ska.entropy_gradient(layer.Z, layer.D).T @ inputs[l]) / X.shape[0]
        np.testing.assert_allclose(layer.W, w_before[l] - 0.2 * upd,
                                   rtol=0, atol=1e-15)


def test_zero_weights_are_a_fixed_point():
    cfg = NetworkConfig(layer_sizes=(3, 2), dt=0.5, steps=1, init_std_scale=0.0)
    net = ska.init_network(cfg)
    X = np.random.default_rng(7).uniform(0, 1, (5, 3))
    for _ in range(3):
        ska.step(net, X)
    np.testing.assert_array_equal(net.layers[0].W, 0.0)


# --------------------------------------------------------------- run ---


def test_run_trace_shape_and_times():
    cfg = NetworkConfig(layer_sizes=(4, 3, 2), dt=0.05, steps=7, seed=9)
    ds = ska.synthetic_blobs(12, 4, 2, seed=1)
    trace = ska.run(ska.init_network(cfg), ds)
    assert trace.n_steps == 7
    assert trace.n_layers == 2
    np.testing.assert_array_equal(trace.steps, np.arange(1, 8))
    np.testing.assert_allclose(trace.times, 0.05 * np.arange(1, 8), rtol=1e-15)
    assert trace.entropy_step.shape == (7, 2)


def test_run_single_step_has_one_row():
    cfg = NetworkConfig(layer_sizes=(4, 2), dt=0.1, steps=1, seed=9)
    ds = ska.synthetic_blobs(6, 4, 2, seed=1)
    trace = ska.run(ska.init_network(cfg), ds)
    assert trace.n_steps == 1
    assert trace.steps.tolist() == [1]


def test_run_requires_fresh_network():
    cfg = NetworkConfig(layer_sizes=(4, 2), dt=0.1, steps=2, seed=9)
    net = ska.init_network(cfg)
    ds = ska.synthetic_blobs(6, 4, 2, seed=1)
    ska.run(net, ds)
    with pytest.raises(ValueError, match="fresh"):
        ska.run(net, ds)


def test_run_matches_manual_step_loop():
    """run() = one unrecorded seeding step, then K recorded rows."""
    cfg = NetworkConfig(layer_sizes=(4, 3, 2), dt=0.05, steps=4, seed=11)
    ds = ska.synthetic_blobs(10, 4, 2, seed=2)
    trace = ska.run(ska.init_network(cfg), ds)

    net = ska.init_network(cfg)
    X = ds.inputs
    ln2 = math.log(2)
    ska.step(net, X)  # seeding step, never recorded
    for i in range(4):
        prev_D = [l.D.copy() for l in net.layers]
        rec = ska.step(net, X)
        assert rec.k == i + 1
        for l, layer in enumerate(net.layers):
            h = -float(np.sum(layer.Z * (layer.D - prev_D[l]))) / (ln2 * X.shape[0])
            assert abs(h - trace.entropy_step[i, l]) < 1e-14
            assert rec.entropy_step[l] == trace.entropy_step[i, l]
            zn = float(np.linalg.norm(layer.Z))
            assert abs(zn - trace.z_norm[i, l]) < 1e-12


def test_run_is_deterministic():
    cfg = NetworkConfig(layer_sizes=(5, 3), dt=0.02, steps=6, seed=21)
    ds = ska.synthetic_blobs(8, 5, 2, seed=3)
    t1 = ska.run(ska.init_network(cfg), ds)
    t2 = ska.run(ska.init_network(cfg), ds)
    np.testing.assert_array_equal(t1.entropy_step, t2.entropy_step)
    np.testing.assert_array_equal(t1.net_cum, t2.net_cum)


def test_run_flow_is_a_rate_at_any_dt():
    """Every step forwards the same design matrix, so dZ is an increment of
    learning, O(dt), and the flow ||dZ|| / dt stays put as dt shrinks 10^4
    fold. A step that forwarded a new block of samples would make it scale
    as 1/dt, since dZ would then compare two blocks."""
    ds = ska.synthetic_blobs(64, 8, 4, seed=1)
    flows = [ska.run(ska.init_network(NetworkConfig((8, 6, 3), dt=dt, steps=3, seed=2)),
                     ds).flow_norm for dt in (1e-2, 1e-6)]
    np.testing.assert_allclose(flows[0], flows[1], rtol=0.02)


def test_run_record_units_validation():
    cfg = NetworkConfig(layer_sizes=(4, 2), dt=0.1, steps=2, seed=9)
    ds = ska.synthetic_blobs(6, 4, 2, seed=1)
    with pytest.raises(ValueError, match="layer"):
        ska.run(ska.init_network(cfg), ds, record_units=[(5, 0, 0)])
    with pytest.raises(ValueError, match="unit"):
        ska.run(ska.init_network(cfg), ds, record_units=[(0, 9, 0)])
    with pytest.raises(ValueError, match="sample"):
        ska.run(ska.init_network(cfg), ds, record_units=[(0, 0, 50)])


def test_run_recorded_unit_starts_at_initial_network():
    """Unit paths sample steps 0..K-1, so entry 0 is the pre-update network."""
    cfg = NetworkConfig(layer_sizes=(1, 1), dt=0.1, steps=3, seed=2)
    ds = ska.constant_dataset(1, 1, 1.0)
    net = ska.init_network(cfg)
    w0 = float(net.layers[0].W[0, 0])
    trace = ska.run(net, ds, record_units=[(0, 0, 0)])
    path = trace.unit_paths[(0, 0, 0)]
    assert len(path) == 3
    assert path[0] == w0  # z = w * 1 before any update


def test_run_matches_reference_loop_bitwise():
    """Every trace column equals an allocation-heavy loop over the formulas.
    The 900-unit layer's Z (20 x 900) spans two sigmoid blocks, so the
    blocked sigmoid and gradient and the metric pass that writes over dD
    and G run against the reference too. Both nets are below SMALL_PRODUCT,
    so run holds BLAS to one thread, and the reference loop runs under the
    same setting: the 20 x 900 layer's dot products are long enough for a
    threaded BLAS to split them."""
    ds = ska.synthetic_blobs(20, 6, 3, seed=4)
    assert 20 * 900 > SIGMOID_BLOCK
    assert 20 * 6 * 900 < SMALL_PRODUCT
    for sizes in ((6, 5, 4, 3), (6, 900, 4, 3)):
        cfg = NetworkConfig(layer_sizes=sizes, dt=0.05, steps=8, init_std_scale=2.0, seed=12)
        trace = ska.run(ska.init_network(cfg), ds)
        with blas_threads(1):
            columns = reference_columns(cfg, ds.inputs)
        for name, want in columns.items():
            assert np.array_equal(trace.column(name), want, equal_nan=True), (sizes, name)


def test_run_picks_blas_threads_by_its_largest_product(two_blas_threads):
    """Below SMALL_PRODUCT multiply-adds a run holds BLAS to one thread; at
    or above it the run keeps the caller's count. Either way the caller's
    count is back after the run."""
    small = NetworkConfig(layer_sizes=(64, 32, 16, 4), dt=0.01, steps=2, seed=1)
    ds = ska.synthetic_blobs(512, 64, 8, seed=2)
    assert 512 * 64 * 32 < SMALL_PRODUCT
    assert ska.run(ska.init_network(small), ds).blas_threads == 1
    assert two_blas_threads() == 2
    big = NetworkConfig(layer_sizes=(256, 256), dt=0.01, steps=1, seed=1)
    assert 256 * 256 * 256 == SMALL_PRODUCT
    trace = ska.run(ska.init_network(big), ska.synthetic_blobs(256, 256, 2, seed=2))
    assert trace.blas_threads == 2 == two_blas_threads()


def test_run_restores_blas_threads_after_a_non_finite_stop(two_blas_threads):
    cfg = NetworkConfig(layer_sizes=(8, 4, 2), dt=1e300, steps=6, seed=3)
    ds = ska.synthetic_blobs(24, 8, 3, seed=1)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
        ska.run(ska.init_network(cfg), ds)
    assert two_blas_threads() == 2


def test_run_without_openblas_keeps_its_trace(monkeypatch):
    """A BLAS with no thread switch found leaves the run as it is: same
    columns, thread count unknown."""
    cfg = NetworkConfig(layer_sizes=(6, 5, 4, 3), dt=0.05, steps=8, init_std_scale=2.0, seed=12)
    ds = ska.synthetic_blobs(20, 6, 3, seed=4)
    want = ska.run(ska.init_network(cfg), ds)
    monkeypatch.setattr(ska.linalg, "_openblas", lambda: None)
    got = ska.run(ska.init_network(cfg), ds)
    assert got.blas_threads is None
    for name in ("entropy_step", "cosine", "z_norm", "flow_norm", "net_step", "net_cum"):
        assert np.array_equal(got.column(name), want.column(name), equal_nan=True), name


def reference_columns(cfg, X):
    """The trace columns of a run on X, by a loop that allocates fresh arrays
    for every formula."""
    n, L, K = X.shape[0], cfg.n_layers, cfg.steps
    Ws = [l.W.copy() for l in ska.init_network(cfg).layers]
    cols = {c: np.full((K, L), np.nan) for c in
            ("entropy_step", "cosine", "z_norm", "flow_norm", "net_step")}
    prev = None
    for k in range(K + 1):
        inp, snap = X, []
        for W in Ws:
            Z = inp @ W.T
            D = sigmoid_sign_split(Z)
            G = -(Z * D * (1.0 - D)) / LN2
            snap.append((Z, D, G, inp))
            inp = D
        Ws = [W - cfg.dt * ((G.T @ x) / n) for W, (_, _, G, x) in zip(Ws, snap)]
        if prev is not None:
            for l, ((Z, D, G, _), (Zp, Dp, _, _)) in enumerate(zip(snap, prev)):
                dZ, dD = Z - Zp, D - Dp
                nz, nd = np.linalg.norm(Z), np.linalg.norm(dD)
                cols["entropy_step"][k - 1, l] = -np.sum(Z * dD) / (LN2 * n)
                if nz > 0 and nd > 0:
                    c = float(np.dot(Z.ravel(), dD.ravel()) / (nz * nd))
                    cols["cosine"][k - 1, l] = min(1.0, max(-1.0, c))
                cols["z_norm"][k - 1, l] = np.linalg.norm(Z)
                cols["flow_norm"][k - 1, l] = np.linalg.norm(dZ) / cfg.dt
                cols["net_step"][k - 1, l] = np.sum((D - G) * dZ) / n
        prev = snap
    cols["entropy_cum"] = np.cumsum(cols["entropy_step"], axis=0)
    cols["net_cum"] = np.cumsum(cols["net_step"], axis=0)
    return cols
