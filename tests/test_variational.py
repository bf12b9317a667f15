"""Single-unit functionals: Lagrangian, action entropy, EL residual,
net-action identity.

Frozen values, computed once with 40-digit arithmetic:
L(1, 2)  = -2 * sigmoid'(1) = -0.3932238664829637
h(1)     = -0.16005846201683078   (entropy primitive at 1, h(0) = 0)
"""

import math

import numpy as np
import pytest

import ska
from ska.dynamics import LN2, NetworkConfig, sigmoid
from ska.metrics import crossing_positions
from ska.variational import EL_ORDER_FLOOR, UnitTrajectory, unit_passed, unit_reports

L12 = -0.3932238664829637
H1 = -0.16005846201683078


# -------------------------------------------------------- trajectories ---


def sample_path(f, t1: float, dt: float) -> UnitTrajectory:
    """f sampled on the uniform grid from 0 (t1 included when it lands on
    the grid)."""
    n = int(round(t1 / dt))
    return UnitTrajectory([f(x) for x in dt * np.arange(n + 1)], dt)


def entropy_primitive(z) -> np.ndarray:
    """Antiderivative h(z) of the scalar entropy gradient, h(0) = 0.

    h(z) = -(1/ln 2) * (z * sigmoid(z) - ln(1 + e^z) + ln 2). Its derivative
    is entropy_gradient restricted to a scalar, which gives an independent
    finite-difference check on the gradient's closed form. The softplus term
    is evaluated as logaddexp(0, z) so large |z| cannot overflow.
    """
    z = np.asarray(z, dtype=np.float64)
    return -(z * sigmoid(z) - np.logaddexp(0.0, z) + LN2) / LN2


def test_sample_path_includes_both_endpoints():
    tr = sample_path(lambda t: t**2, 1.0, 0.25)
    np.testing.assert_array_equal(tr.t, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(tr.z, tr.t**2)
    assert tr.dt == 0.25 and len(tr.t) == 5


def test_unit_trajectory_validation():
    with pytest.raises(ValueError, match="at least two"):
        UnitTrajectory(np.array([1.0]), 0.1)
    with pytest.raises(ValueError, match="dt"):
        UnitTrajectory(np.zeros(2), 0.0)


def test_truncated_keeps_prefix():
    tr = sample_path(lambda t: t, 1.0, 0.1)
    head = tr.truncated(0.55)
    assert len(head.t) == 6 and head.t[-1] == 0.5 and head.dt == 0.1
    with pytest.raises(ValueError, match="fewer than two"):
        tr.truncated(0.05)


# ------------------------------------------------------------- action ---


def test_lagrangian_frozen_value():
    assert abs(float(ska.lagrangian(1.0, 2.0)) - L12) < 1e-16
    # linear in zdot and odd in z through z * sigmoid'(z)
    assert float(ska.lagrangian(1.0, 4.0)) == 2.0 * float(ska.lagrangian(1.0, 2.0))
    np.testing.assert_allclose(ska.lagrangian(-1.0, 2.0), -L12, atol=1e-16)


def test_action_entropy_converges_to_primitive():
    # along z(t) = t the action telescopes to h(1) - h(0) as dt -> 0
    errs = {}
    for dt in (0.01, 0.005, 0.001):
        errs[dt] = abs(ska.action_entropy(sample_path(lambda t: t, 1.0, dt)) - H1)
    assert errs[0.001] < 2e-4
    # backward differences make this a rectangle rule: first order
    assert 1.8 < errs[0.01] / errs[0.005] < 2.2


def test_entropy_by_definition_agrees_to_first_order():
    gaps = {}
    for dt in (0.01, 0.005):
        tr = sample_path(lambda t: t, 1.0, dt)
        gaps[dt] = abs(ska.action_entropy(tr) - ska.entropy_by_definition(tr))
    assert gaps[0.01] < 3e-4
    assert 1.8 < gaps[0.01] / gaps[0.005] < 2.2


def test_action_entropy_of_constant_path_is_zero():
    tr = sample_path(lambda t: 0.7, 1.0, 0.1)
    assert ska.action_entropy(tr) == 0.0
    assert ska.entropy_by_definition(tr) == 0.0


# -------------------------------------------------------- EL residual ---


def test_el_residual_is_second_order_on_smooth_paths():
    for f in (math.sin, math.tanh):
        r1 = np.abs(ska.el_residual(sample_path(f, 3.0, 0.01))).max()
        r2 = np.abs(ska.el_residual(sample_path(f, 3.0, 0.005))).max()
        order = math.log2(r1 / r2)
        assert order > 1.8


def test_el_residual_vanishes_on_constant_path():
    tr = sample_path(lambda t: 1.3, 1.0, 0.05)
    res = ska.el_residual(tr)
    assert res.shape == (len(tr.t) - 2,)
    np.testing.assert_array_equal(res, 0.0)


def test_el_residual_small_on_linear_path():
    # zdot constant: momentum FD still carries curvature of z sigmoid'(z)
    res = np.abs(ska.el_residual(sample_path(lambda t: t - 1.0, 2.0, 0.01)))
    assert res.max() < 1e-4


# ------------------------------------------------- net-action identity ---


def _descending_net_prefix(dt):
    """Backward-difference cumulative net along z(t) = -0.5 - t."""
    tr = sample_path(lambda t: -0.5 - t, 4.0, dt)
    z = tr.z
    s = sigmoid(z[1:])
    g = -(z[1:] * s * (1 - s)) / LN2
    increments = (s - g) * np.diff(z)
    return tr, np.cumsum(increments), np.abs(increments).max()


def test_net_action_identity_bounded_by_step_increment():
    for dt in (0.02, 0.01, 0.005):
        tr, prefix, step = _descending_net_prefix(dt)
        pos = crossing_positions(prefix)
        assert pos, "descending path must recross zero net"
        ct = (1 + pos[0]) * dt
        # the crossing sits near t = 1; the identity leftover is whatever
        # accumulated past the exact zero, at most one step's increment
        assert 0.9 < ct < 1.1
        assert ska.net_action_identity(tr, ct) <= step * (1 + 1e-9)


def test_net_action_identity_rejects_out_of_range_time():
    tr = sample_path(lambda t: t, 1.0, 0.1)
    with pytest.raises(ValueError, match="outside trajectory range"):
        ska.net_action_identity(tr, 1.5)


# ----------------------------------------------------------- recording ---


def test_extract_unit_trajectories_from_run():
    rng = np.random.default_rng(12)
    X = rng.uniform(0, 1, size=(8, 3))
    cfg = NetworkConfig(layer_sizes=(3, 4, 2), dt=0.05, steps=7, seed=2)
    trace = ska.run(ska.init_network(cfg), ska.Dataset(X),
                    record_units=[(0, 1, 0), (1, 0, 3)])
    trajs = ska.extract_unit_trajectories(trace, [(0, 1, 0), (1, 0, 3)])
    for tr in trajs:
        assert len(tr.t) == 7
        assert tr.t[0] == 0.0 and tr.dt == 0.05
        np.testing.assert_allclose(np.diff(tr.t), 0.05)
    with pytest.raises(KeyError, match="not recorded"):
        ska.extract_unit_trajectories(trace, [(1, 1, 1)])


# ------------------------------------------------------------- verdict ---


def _unit(order=None, *crossings):
    """A variational_report.json unit entry with order (None when not
    measured) and one crossing per (residual, bound) pair."""
    crossings = [{"time": 1.0, "residual": r, "bound": b} for r, b in crossings]
    return {"el_order": order, "net_identity_crossings": crossings}


@pytest.mark.parametrize("unit,passed", [
    (_unit(1.99), True),  # no crossing in the window: judged on its order alone
    (_unit(EL_ORDER_FLOOR), True),
    (_unit(None, (0.01, 0.1)), True),
    (_unit(1.99, (0.01, 0.1), (0.0, 0.0)), True),
    (_unit(1.2, (0.01, 0.1)), False),
    (_unit(1.99, (0.5, 0.1)), False),
    (_unit(1.99, (0.01, 0.0)), False),  # a residual over a zero bound still fails
    (_unit(), False),  # neither an order nor a crossing: nothing checked
    (_unit(None, (0.0, 0.0), (0.0, 0.0)), False),  # only zero bounds: nothing checked
], ids=["order-only", "order-at-floor", "crossing-only", "zero-bound-beside-checks",
        "low-order", "residual-over-bound", "residual-over-zero-bound", "nothing",
        "zero-bounds-only"])
def test_unit_passed_needs_something_checked_and_nothing_failed(unit, passed):
    assert unit_passed(unit) is passed


def test_a_still_path_checks_nothing():
    """A zero weight never moves its unit: both EL residuals are 0, so no
    order is measured, and its identically zero net never changes sign, so
    it has no crossing. unit_reports records that, and unit_passed fails it."""
    traces = []
    for dt, steps in ((0.05, 20), (0.025, 40)):
        cfg = NetworkConfig(layer_sizes=(1, 1), dt=dt, steps=steps, seed=4, init_std_scale=0.0)
        traces.append(ska.run(ska.init_network(cfg), ska.constant_dataset(1, 1, 1.0),
                              record_units=[(0, 0, 0)]))
    (unit,) = unit_reports([[0, 0, 0]], *traces)
    assert unit["el_residual_max"] == unit["el_residual_max_half"] == 0
    assert unit["el_order"] is None
    assert unit["net_identity_crossings"] == []
    assert unit_passed(unit) is False


def test_unit_reports_holds_each_crossing_to_its_bound():
    """The net-action bound is 10 * dt * max|zdot| over the recorded path,
    and a crossing's residual is net_action_identity at its time."""
    cfg = NetworkConfig(layer_sizes=(1, 1), dt=0.05, steps=120, seed=4)
    trace = ska.run(ska.init_network(cfg), ska.constant_dataset(1, 1, 1.0),
                    record_units=[(0, 0, 0)])
    (unit,) = unit_reports([[0, 0, 0]], trace)
    (traj,) = ska.extract_unit_trajectories(trace, [(0, 0, 0)])
    assert unit["el_residual_max_half"] is None and unit["el_order"] is None
    (crossing,) = unit["net_identity_crossings"]
    assert crossing["bound"] == 10.0 * 0.05 * (float(np.abs(np.diff(traj.z)).max()) / 0.05)
    assert crossing["residual"] == ska.net_action_identity(traj, crossing["time"])
    assert crossing["residual"] < crossing["bound"] and unit_passed(unit)
