"""Step metrics, trace assembly, and trajectory markers.

Frozen example: a single sample with Z = [1.0] and dD = [0.1] has
entropy_step = -0.1 / ln 2 = -0.14426950408889634.
"""

import math

import numpy as np
import pytest

import ska
from ska.dynamics import NetworkConfig, StepRecord
from ska.linalg import ShapeMismatchError
from ska.metrics import (
    TraceAccumulator,
    TrajectoryTrace,
    cosine_alignment,
    crossing_positions,
)

ENTROPY_EXAMPLE = -0.14426950408889634


# ------------------------------------------------------ step metrics ---


def test_entropy_step_frozen_example():
    Z = np.array([[1.0]])
    dD = np.array([[0.1]])
    assert abs(ska.entropy_step(Z, dD) - ENTROPY_EXAMPLE) < 1e-16


def test_entropy_step_matches_loop_oracle():
    rng = np.random.default_rng(5)
    Z = rng.normal(size=(7, 4))
    dD = rng.normal(size=(7, 4)) * 0.01
    total = 0.0
    for i in range(7):
        for j in range(4):
            total += Z[i, j] * dD[i, j]
    want = -total / (7 * math.log(2))
    assert abs(ska.entropy_step(Z, dD) - want) < 1e-15


def test_entropy_step_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        ska.entropy_step(np.zeros((2, 3)), np.zeros((3, 2)))


def test_net_step_frozen_example():
    # (0.7 - 0.2) * 0.2 = 0.1, one sample
    D = np.array([[0.7]])
    G = np.array([[0.2]])
    dZ = np.array([[0.2]])
    assert ska.net_step(D, G, dZ) == (0.7 - 0.2) * 0.2


def test_net_step_matches_loop_oracle():
    rng = np.random.default_rng(6)
    D = rng.uniform(0, 1, size=(5, 3))
    G = rng.normal(size=(5, 3)) * 0.1
    dZ = rng.normal(size=(5, 3)) * 0.05
    total = 0.0
    for i in range(5):
        for j in range(3):
            total += (D[i, j] - G[i, j]) * dZ[i, j]
    assert abs(ska.net_step(D, G, dZ) - total / 5) < 1e-15


def test_net_step_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        ska.net_step(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3)))


def test_cosine_alignment_gap_is_nan():
    Z = np.ones((2, 2))
    assert math.isnan(cosine_alignment(Z, np.zeros((2, 2))))
    assert math.isnan(cosine_alignment(np.zeros((2, 2)), Z))
    assert math.isnan(cosine_alignment(np.array([[np.nan, 1.0]]), np.ones((1, 2))))
    assert cosine_alignment(Z, 2.5 * Z) == 1.0


def test_batch_duplication_leaves_mean_metrics_unchanged():
    rng = np.random.default_rng(8)
    Z = rng.normal(size=(6, 4))
    dD = rng.normal(size=(6, 4)) * 0.01
    D = rng.uniform(0, 1, size=(6, 4))
    G = rng.normal(size=(6, 4)) * 0.1
    Z2, dD2 = np.vstack([Z, Z]), np.vstack([dD, dD])
    D2, G2 = np.vstack([D, D]), np.vstack([G, G])
    assert abs(ska.entropy_step(Z2, dD2) - ska.entropy_step(Z, dD)) < 1e-12
    assert abs(ska.net_step(D2, G2, dD2) - ska.net_step(D, G, dD)) < 1e-12
    assert abs(cosine_alignment(Z2, dD2) - cosine_alignment(Z, dD)) < 1e-12


def test_batch_duplication_run_trace():
    """Duplicating every sample reproduces the mean-metric columns."""
    rng = np.random.default_rng(9)
    X = rng.uniform(0, 1, size=(8, 3))
    cfg = NetworkConfig(layer_sizes=(3, 4, 2), dt=0.05, steps=6, seed=3)
    one = ska.run(ska.init_network(cfg), ska.Dataset(X))
    two = ska.run(ska.init_network(cfg), ska.Dataset(np.vstack([X, X])))
    for name in ("entropy_step", "net_step", "cosine"):
        np.testing.assert_allclose(two.column(name), one.column(name), rtol=0, atol=1e-12)
    # norm columns are not means; they grow by sqrt(2)
    np.testing.assert_allclose(two.z_norm, math.sqrt(2) * one.z_norm, rtol=1e-12)


# -------------------------------------------------------------- trace ---


def _toy_trace(net_cum_col):
    K = len(net_cum_col)
    steps = np.arange(1, K + 1, dtype=np.int64)
    zeros = np.zeros((K, 1))
    col = np.asarray(net_cum_col, dtype=np.float64).reshape(K, 1)
    return TrajectoryTrace(
        layer_sizes=(1, 1),
        dt=0.1,
        seed=0,
        steps=steps,
        times=steps * 0.1,
        entropy_step=zeros.copy(),
        entropy_cum=zeros.copy(),
        cosine=zeros.copy(),
        z_norm=zeros.copy(),
        flow_norm=zeros.copy(),
        net_step=zeros.copy(),
        net_cum=col,
    )


def test_trace_column_lookup():
    trace = _toy_trace([1.0, 2.0])
    np.testing.assert_array_equal(trace.column("net_cum"), [[1.0], [2.0]])
    with pytest.raises(KeyError, match="unknown trace column"):
        trace.column("steps")


def test_trace_accumulator_assembles_cumulative_sums():
    rng = np.random.default_rng(10)
    X = rng.uniform(0, 1, size=(16, 5))
    cfg = NetworkConfig(layer_sizes=(5, 4, 3), dt=0.02, steps=9, seed=4)
    trace = ska.run(ska.init_network(cfg), ska.Dataset(X))
    np.testing.assert_array_equal(trace.entropy_cum, np.cumsum(trace.entropy_step, axis=0))
    np.testing.assert_array_equal(trace.net_cum, np.cumsum(trace.net_step, axis=0))
    np.testing.assert_array_equal(trace.steps, np.arange(1, 10))
    np.testing.assert_array_equal(trace.times, trace.steps * 0.02)
    assert np.all(trace.z_norm >= 0) and np.all(trace.flow_norm >= 0)


def test_trace_accumulator_rejects_seeding_record():
    cfg = NetworkConfig(layer_sizes=(2, 2), dt=0.1, steps=2, seed=0)
    acc = TraceAccumulator(cfg)
    Z = [np.zeros((1, 2))]
    seed_rec = StepRecord(k=0, Z=Z, D=Z, G=Z, dZ=None, dD=None)
    with pytest.raises(ValueError, match="seeding"):
        acc.add(seed_rec)


def test_trace_accumulator_rejects_out_of_range_step():
    cfg = NetworkConfig(layer_sizes=(2, 2), dt=0.1, steps=2, seed=0)
    acc = TraceAccumulator(cfg)
    Z = [np.zeros((1, 2))]
    rec = StepRecord(k=3, Z=Z, D=Z, G=Z, dZ=Z, dD=Z)
    with pytest.raises(ValueError, match="outside 1..2"):
        acc.add(rec)


def test_trace_accumulator_finish_requires_all_steps():
    cfg = NetworkConfig(layer_sizes=(2, 2), dt=0.1, steps=3, seed=0)
    acc = TraceAccumulator(cfg)
    with pytest.raises(ValueError, match="0 of 3"):
        acc.finish()


def test_add_spends_dD_and_G_and_matches_the_formulas():
    """add() takes the norms and the cosine before it writes Z * dD over dD
    and (D - G) * dZ over G, so every column equals the metric functions on
    copies taken before the call, and the spent buffers hold the products."""
    cfg = NetworkConfig(layer_sizes=(4, 3, 5, 2), dt=0.1, steps=1, seed=8)
    net = ska.init_network(cfg)
    X = np.random.default_rng(9).uniform(0, 1, (6, 4))
    ska.step(net, X)
    rec = ska.step(net, X)
    Z, D, G, dZ, dD = ([a.copy() for a in arrays]
                       for arrays in (rec.Z, rec.D, rec.G, rec.dZ, rec.dD))
    acc = TraceAccumulator(cfg)
    acc.add(rec)
    trace = acc.finish()
    for l in range(cfg.n_layers):
        assert trace.entropy_step[0, l] == ska.entropy_step(Z[l], dD[l])
        assert trace.cosine[0, l] == cosine_alignment(Z[l], dD[l])
        assert trace.z_norm[0, l] == ska.linalg.frobenius_norm(Z[l])
        assert trace.flow_norm[0, l] == ska.linalg.frobenius_norm(dZ[l]) / cfg.dt
        assert trace.net_step[0, l] == ska.net_step(D[l], G[l], dZ[l])
        np.testing.assert_array_equal(rec.dD[l], Z[l] * dD[l])
        np.testing.assert_array_equal(rec.G[l], (D[l] - G[l]) * dZ[l])


# One layer's record where exactly the named metric overflows; D - G = 0 by
# default, so the net stays finite while dZ grows.
NON_FINITE = {
    "entropy_step": {"Z": [[1e10, 0.0]], "dD": [[1e300, 0.0]]},
    "z_norm": {"Z": [[1e200, 0.0]], "dD": [[0.0, 0.0]]},
    "flow_norm": {"dZ": [[1e200, 0.0]]},
    "net_step": {"D": [[1e300, 0.0]], "G": [[-1e300, 0.0]], "dZ": [[1e10, 0.0]]},
}


@pytest.mark.parametrize("metric", sorted(NON_FINITE))
@np.errstate(over="ignore", invalid="ignore")
def test_add_stops_on_a_non_finite_metric(metric):
    cfg = NetworkConfig(layer_sizes=(2, 2, 2), dt=0.1, steps=2, seed=0)
    fine = {k: np.ones((1, 2)) for k in ("Z", "D", "G", "dZ", "dD")}
    bad = dict(fine, **{k: np.array(v) for k, v in NON_FINITE[metric].items()})
    rec = StepRecord(k=2, **{k: [fine[k].copy(), bad[k]] for k in fine})
    with pytest.raises(ValueError, match=f"step 2, layer 1: {metric} is -?inf, not finite"):
        TraceAccumulator(cfg).add(rec)


def test_add_leaves_an_undefined_cosine_as_a_gap():
    acc = TraceAccumulator(NetworkConfig(layer_sizes=(2, 2), dt=0.1, steps=1, seed=0))
    zero = [np.zeros((1, 2))]
    acc.add(StepRecord(k=1, Z=zero, D=zero, G=zero, dZ=zero, dD=zero))
    assert np.isnan(acc.finish().cosine).all()


# ------------------------------------------------------------ markers ---


def test_crossing_positions_interpolates_sign_changes():
    # |0.5| / (|0.5| + |-0.2|) past index 1
    pos = crossing_positions(np.array([2.0, 0.5, -0.2]))
    assert len(pos) == 1
    assert abs(pos[0] - (1 + 0.5 / 0.7)) < 1e-15
    assert crossing_positions(np.array([-1.0, 1.0])) == [0.5]
    assert crossing_positions(np.array([1.0, 2.0, 3.0])) == []


def test_crossing_positions_exact_zeros():
    # an exact zero is one crossing, not an extra interpolated pair
    assert crossing_positions(np.array([1.0, 0.0, -1.0])) == [1.0]
    assert crossing_positions(np.array([0.0, 2.0])) == [0.0]
    assert crossing_positions(np.array([0.0, 0.0])) == [0.0, 1.0]


def test_find_zero_crossings_reports_step_coordinates():
    trace = _toy_trace([2.0, 0.5, -0.2])
    got = ska.find_zero_crossings(trace, 0)
    assert len(got) == 1
    # steps start at 1, so the fractional position shifts by one
    assert abs(got[0] - (2 + 0.5 / 0.7)) < 1e-15
    with pytest.raises(IndexError, match="layer 1"):
        ska.find_zero_crossings(trace, 1)


def test_marker_ties_go_to_earliest_step():
    trace = _toy_trace([0.0, 0.0, 0.0])
    trace.entropy_step = np.array([[0.5], [-1.0], [-1.0]])
    trace.flow_norm = np.array([[3.0], [3.0], [1.0]])
    assert ska.find_entropy_minimum(trace, 0) == 2
    assert ska.find_flow_peak(trace, 0) == 1
    assert isinstance(ska.find_entropy_minimum(trace, 0), int)
