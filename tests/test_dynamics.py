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
from ska.dynamics import LN2, LayerState, NetworkConfig, StepRecord

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
    out, scratch = np.empty_like(z), np.empty_like(z)
    got = ska.entropy_gradient(z, d, out=out, scratch=scratch)
    assert got is out
    assert got.tobytes() == fresh.tobytes()
    assert fresh.tobytes() == (-(z * d * (1.0 - d)) / LN2).tobytes()


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
    assert cfg.total_time == 2.0


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
    rec = ska.step(net, np.array([[1.0]]))
    assert float(rec.Z[0][0, 0]) == 1.0
    assert abs(float(net.layers[0].W[0, 0]) - 1.0283651061067078) < 1e-15


def test_one_step_matches_manual_euler_bitwise():
    # dyadic dt keeps dt * g exact, so the update is one rounded subtraction
    net = scalar_net(1.0, 0.25)
    ska.step(net, np.array([[1.0]]))
    z = np.array([[1.0]])
    g = ska.entropy_gradient(z, ska.sigmoid(z))
    expect = 1.0 - 0.25 * float(g[0, 0])
    assert float(net.layers[0].W[0, 0]) == expect


def test_step_dt_zero_keeps_weights_bitwise():
    cfg = NetworkConfig(layer_sizes=(4, 3, 2), dt=0.1, steps=1, seed=8)
    net = ska.init_network(cfg)
    before = [l.W.copy() for l in net.layers]
    rng = np.random.default_rng(0)
    ska.step(net, rng.uniform(0, 1, (6, 4)), dt=0.0)
    for w0, layer in zip(before, net.layers):
        np.testing.assert_array_equal(w0, layer.W)


def test_step_record_shapes_and_seed_semantics():
    cfg = NetworkConfig(layer_sizes=(4, 3, 2), dt=0.05, steps=2, seed=1)
    net = ska.init_network(cfg)
    X = np.random.default_rng(2).uniform(0, 1, (5, 4))
    rec0 = ska.step(net, X)
    assert rec0.k == 0
    assert rec0.dZ is None and rec0.dD is None
    # a record is valid until the next step, which writes dZ over its Z
    z0 = rec0.Z[0].copy()
    rec1 = ska.step(net, X)
    assert rec1.k == 1
    assert rec1.dZ[0].shape == (5, 3) and rec1.dD[1].shape == (5, 2)
    # dZ really is the difference of consecutive pre-activations
    np.testing.assert_array_equal(rec1.dZ[0], rec1.Z[0] - z0)


def test_step_reuses_workspace_and_updates_weights_in_place():
    cfg = NetworkConfig(layer_sizes=(4, 3, 2), dt=0.1, steps=1, seed=8)
    net = ska.init_network(cfg)
    X = np.random.default_rng(9).uniform(0, 1, (6, 4))
    weights = [l.W for l in net.layers]
    prev = ska.step(net, X)
    buffers = [(id(l.G), id(l.scratch)) for l in net.layers]
    for _ in range(3):
        rec = ska.step(net, X)
        assert [(id(g), id(s)) for g, s in zip(rec.G, rec.scratch)] == buffers
        assert [(id(l.G), id(l.scratch)) for l in net.layers] == buffers
        # the increments are written over the snapshot the step retired
        assert all(dz is z for dz, z in zip(rec.dZ, prev.Z))
        assert all(dd is d for dd, d in zip(rec.dD, prev.D))
        assert all(l.W is w for l, w in zip(net.layers, weights))
        prev = rec
    # once the buffers exist, dt = 0 still leaves every weight bit-identical
    before = [w.copy() for w in weights]
    ska.step(net, X, dt=0.0)
    for w0, layer in zip(before, net.layers):
        assert w0.tobytes() == layer.W.tobytes()
    # increments need one batch shape throughout
    with pytest.raises(ValueError):
        ska.step(net, X[:2])


def test_layers_share_one_scratch_block():
    cfg = NetworkConfig(layer_sizes=(4, 3, 5, 2), dt=0.1, steps=1, seed=8)
    net = ska.init_network(cfg)
    rec = ska.step(net, np.random.default_rng(9).uniform(0, 1, (6, 4)))
    assert net.scratch.size == 6 * 5
    for layer, view in zip(net.layers, rec.scratch):
        assert layer.scratch is view
        assert view.shape == layer.Z.shape
        assert np.shares_memory(view, net.scratch)
        assert not np.shares_memory(view, layer.G)


def test_step_working_set_is_five_blocks_per_layer():
    """Peak memory a run allocates: the weights, five Z-sized blocks per
    layer (Z, D, G and the retired snapshot pair that takes the
    increments), the shared scratch block, and the transients of one layer
    at a time: the new snapshot's sigmoid temporaries (a float block and a
    bool mask) and the update block. The layout with separate increment
    buffers and per-layer scratch peaks about 2.5 block-sets higher."""
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
    largest = max(blocks)
    slack = 64 * 1024  # Python objects and the (steps, layers) trace
    bound = sum(weights) + 5 * sum(blocks) + largest + (largest + largest // 8) + max(weights)
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
    rec = ska.step(net, X)
    inputs = [X, rec.D[0]]
    for l in range(2):
        upd = (rec.G[l].T @ inputs[l]) / X.shape[0]
        np.testing.assert_allclose(net.layers[l].W, w_before[l] - 0.2 * upd,
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
        rec = ska.step(net, X)
        for l in range(2):
            h = -float(np.sum(rec.Z[l] * rec.dD[l])) / (ln2 * X.shape[0])
            assert abs(h - trace.entropy_step[i, l]) < 1e-14
            zn = float(np.linalg.norm(rec.Z[l]))
            assert abs(zn - trace.z_norm[i, l]) < 1e-12


def test_run_is_deterministic():
    cfg = NetworkConfig(layer_sizes=(5, 3), dt=0.02, steps=6, seed=21)
    ds = ska.synthetic_blobs(8, 5, 2, seed=3)
    t1 = ska.run(ska.init_network(cfg), ds)
    t2 = ska.run(ska.init_network(cfg), ds)
    np.testing.assert_array_equal(t1.entropy_step, t2.entropy_step)
    np.testing.assert_array_equal(t1.net_cum, t2.net_cum)


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
    """Every trace column equals an allocation-heavy loop over the formulas."""
    cfg = NetworkConfig(layer_sizes=(6, 5, 4, 3), dt=0.05, steps=8, init_std_scale=2.0,
                        seed=12)
    ds = ska.synthetic_blobs(20, 6, 3, seed=4)
    trace = ska.run(ska.init_network(cfg), ds)

    X = ds.inputs
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
    for name, want in cols.items():
        assert np.array_equal(trace.column(name), want, equal_nan=True), name
