"""Step metrics, trace assembly, and trajectory markers.

Frozen example: a single sample with Z = [1.0] and dD = [0.1] has
entropy_step = -0.1 / ln 2 = -0.14426950408889634.
"""

import math

import numpy as np
import pytest

import ska
from ska.dynamics import NetworkConfig
from ska.linalg import ShapeMismatchError, cosine_flat
from ska.metrics import COLUMNS, TraceAccumulator, TrajectoryTrace, crossing_positions

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
    with pytest.raises(ShapeMismatchError,
                       match=r"^entropy_step: incompatible shapes \(2, 3\) x \(3, 2\)$"):
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
    with pytest.raises(ShapeMismatchError,
                       match=r"^net_step: incompatible shapes \(2, 2\) x \(2, 3\)$"):
        ska.net_step(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3)))


def test_cosine_alignment_gap_is_nan():
    Z = np.ones((2, 2))
    assert math.isnan(cosine_flat(Z, np.zeros((2, 2))))
    assert math.isnan(cosine_flat(np.zeros((2, 2)), Z))
    assert math.isnan(cosine_flat(np.array([[np.nan, 1.0]]), np.ones((1, 2))))
    assert cosine_flat(Z, 2.5 * Z) == 1.0


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
    assert abs(cosine_flat(Z2, dD2) - cosine_flat(Z, dD)) < 1e-12


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
    np.testing.assert_allclose(two.column("z_norm"), math.sqrt(2) * one.column("z_norm"),
                               rtol=1e-12)


# -------------------------------------------------------------- trace ---


def _toy_trace(net_cum_col):
    K = len(net_cum_col)
    steps = np.arange(1, K + 1, dtype=np.int64)
    values = np.zeros((K, 1, len(COLUMNS)))
    values[:, 0, COLUMNS.index("net_cum")] = net_cum_col
    return TrajectoryTrace(dt=0.1, steps=steps, times=steps * 0.1, values=values)


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
    col = trace.column
    np.testing.assert_array_equal(col("entropy_cum"), np.cumsum(col("entropy_step"), axis=0))
    np.testing.assert_array_equal(col("net_cum"), np.cumsum(col("net_step"), axis=0))
    np.testing.assert_array_equal(trace.steps, np.arange(1, 10))
    np.testing.assert_array_equal(trace.times, trace.steps * 0.02)
    assert np.all(col("z_norm") >= 0) and np.all(col("flow_norm") >= 0)


def test_trace_accumulator_rejects_seeding_record():
    cfg = NetworkConfig(layer_sizes=(2, 2), dt=0.1, steps=2, seed=0)
    acc = TraceAccumulator(cfg)
    with pytest.raises(ValueError, match="seeding"):
        acc.add(None)
    seed_rec = ska.step(ska.init_network(cfg), np.ones((1, 2)))
    with pytest.raises(ValueError, match="seeding"):
        acc.add(seed_rec)


STEP_METRICS = ("entropy_step", "cosine", "z_norm", "flow_norm", "net_step")


def _record(n_layers, **values):
    """A step record with every metric 1.0 in every layer, except values,
    which map a metric to its per-layer list."""
    return list(zip(*(values.get(m, [1.0] * n_layers) for m in STEP_METRICS)))


def test_trace_accumulator_takes_steps_in_order():
    """Each record fills the next row, and a record past step K raises
    instead of writing past the trace."""
    cfg = NetworkConfig(layer_sizes=(2, 2), dt=0.1, steps=3, seed=0)
    acc = TraceAccumulator(cfg)
    acc.add(_record(1))
    with pytest.raises(ValueError, match="1 of 3"):
        acc.finish()
    acc.add(_record(1))
    acc.add(_record(1))
    with pytest.raises(ValueError, match="^step 4 is past the run's 3 steps$"):
        acc.add(_record(1))
    assert not np.isnan(acc.finish().values).any()


def test_trace_accumulator_finish_requires_all_steps():
    cfg = NetworkConfig(layer_sizes=(2, 2), dt=0.1, steps=3, seed=0)
    acc = TraceAccumulator(cfg)
    with pytest.raises(ValueError, match="0 of 3"):
        acc.finish()


def test_add_stores_each_metric_in_its_row():
    """add() files the k-th record's values under row k - 1, and finish()
    sums entropy and net along the steps."""
    cfg = NetworkConfig(layer_sizes=(4, 3, 2), dt=0.1, steps=3, seed=0)
    acc = TraceAccumulator(cfg)
    want = {m: np.arange(6.0).reshape(3, 2) + 10 * i for i, m in enumerate(STEP_METRICS)}
    for k in (1, 2, 3):
        acc.add(_record(2, **{m: want[m][k - 1].tolist() for m in STEP_METRICS}))
    trace = acc.finish()
    for m in STEP_METRICS:
        assert trace.column(m).tobytes() == want[m].tobytes(), m
    np.testing.assert_array_equal(trace.column("entropy_cum"),
                                  np.cumsum(want["entropy_step"], axis=0))
    np.testing.assert_array_equal(trace.column("net_cum"), np.cumsum(want["net_step"], axis=0))


# The non-finite value each case puts into layer 1 of an otherwise finite
# record.
NON_FINITE = {"entropy_step": -math.inf, "z_norm": math.inf, "flow_norm": math.inf,
              "net_step": math.nan}


@pytest.mark.parametrize("metric", sorted(NON_FINITE))
def test_add_stops_on_a_non_finite_metric(metric):
    cfg = NetworkConfig(layer_sizes=(2, 2, 2), dt=0.1, steps=2, seed=0)
    bad = NON_FINITE[metric]
    rec = _record(2, **{metric: [1.0, bad]})
    acc = TraceAccumulator(cfg)
    acc.add(_record(2))
    with pytest.raises(ValueError, match=f"^step 2, layer 1: {metric} is {bad}, not finite$"):
        acc.add(rec)


def test_add_leaves_an_undefined_cosine_as_a_gap():
    """Zero weights give Z = 0, where the cosine is undefined: the step
    measures NaN and the trace keeps it as a gap beside finite metrics."""
    cfg = NetworkConfig(layer_sizes=(2, 2), dt=0.1, steps=1, init_std_scale=0.0, seed=0)
    net = ska.init_network(cfg)
    X = np.ones((3, 2))
    ska.step(net, X)
    rec = ska.step(net, X)
    assert math.isnan(rec[0][STEP_METRICS.index("cosine")])
    acc = TraceAccumulator(cfg)
    acc.add(rec)
    trace = acc.finish()
    assert np.isnan(trace.column("cosine")).all()
    assert np.isfinite(trace.column("entropy_step")).all()
    assert np.isfinite(trace.column("net_step")).all()


# ------------------------------------------------------------ markers ---


def test_crossing_positions_interpolates_sign_changes():
    # |0.5| / (|0.5| + |-0.2|) past index 1
    pos = crossing_positions(np.array([2.0, 0.5, -0.2]))
    assert len(pos) == 1
    assert abs(pos[0] - (1 + 0.5 / 0.7)) < 1e-15
    assert crossing_positions(np.array([-1.0, 1.0])) == [0.5]
    assert crossing_positions(np.array([1.0, 2.0, 3.0])) == []


def test_crossing_positions_exact_zeros():
    # a sign change across zeros is one crossing, at the first zero
    assert crossing_positions(np.array([1.0, 0.0, -1.0])) == [1.0]
    assert crossing_positions(np.array([2.0, 0.0, 0.0, -1.0, 0.0, 3.0])) == [1.0, 4.0]
    # a touch, a run of zeros at either end and an all-zero run cross nothing
    assert crossing_positions(np.array([1.0, 0.0, 0.0, 2.0])) == []
    assert crossing_positions(np.array([0.0, 2.0, 0.0])) == []
    assert crossing_positions(np.array([0.0, 0.0])) == []
    assert crossing_positions(np.array([])) == []


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
    trace.column("entropy_step")[:] = [[0.5], [-1.0], [-1.0]]
    trace.column("flow_norm")[:] = [[3.0], [3.0], [1.0]]
    assert ska.find_entropy_minimum(trace, 0) == 2
    assert ska.find_flow_peak(trace, 0) == 1
    assert isinstance(ska.find_entropy_minimum(trace, 0), int)
