"""Characteristic-time invariance harness: alignment, normalization, compare.

The synthetic family below integrates dz/dt = -z with explicit Euler at
several step sizes, so the iterates are (1 - eta)^k and the drift from a
finer reference is first order in the step gap. That gives a closed-form
oracle for the deviation scaling the harness is supposed to measure.
"""

import math

import numpy as np
import pytest

import ska
from ska.dynamics import NetworkConfig
from ska.invariance import (
    COMPARE_METRICS,
    FamilyRun,
    InvarianceError,
    InvarianceSpec,
    _interp_column,
    compare,
    resample_common_grid,
    run_family,
    steps_for,
)
from ska.metrics import TrajectoryTrace


def _toy_dataset(n=8, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return ska.Dataset(rng.uniform(0, 1, size=(n, d)))


def _trace(eta, K, columns=None, n_layers=1):
    steps = np.arange(1, K + 1, dtype=np.int64)
    base = {name: np.zeros((K, n_layers)) for name in (
        "entropy_step", "entropy_cum", "cosine", "z_norm",
        "flow_norm", "net_step", "net_cum")}
    if columns:
        for name, arr in columns.items():
            base[name] = np.asarray(arr, dtype=np.float64).reshape(K, n_layers)
    return TrajectoryTrace(
        layer_sizes=tuple([2] * (n_layers + 1)),
        dt=eta,
        seed=0,
        steps=steps,
        times=steps * eta,
        **base,
    )


def _euler_run(label, eta, total_time=1.0):
    K = int(round(total_time / eta))
    z = (1.0 - eta) ** np.arange(1, K + 1, dtype=np.float64)
    trace = _trace(eta, K, {"z_norm": z})
    return FamilyRun(label=label, eta=eta, steps=K,
                     realized_product=eta * K, trace=trace)


# -------------------------------------------------------- spec checks ---


def test_steps_for_rounds_the_window():
    assert steps_for(0.5, 0.01) == 50
    assert steps_for(0.5, 0.003) == 167
    with pytest.raises(InvarianceError, match="at least 2"):
        steps_for(0.1, 0.09)
    with pytest.raises(ValueError, match="limit"):
        steps_for(1.0, 1e-310)


def test_spec_rejects_bad_inputs():
    ds = _toy_dataset()
    good = dict(total_time=0.5, eta_list=(0.02, 0.01),
                layer_sizes=(3, 2), seed=0, dataset=ds)
    InvarianceSpec(**good)
    with pytest.raises(InvarianceError, match="two step sizes"):
        InvarianceSpec(**{**good, "eta_list": (0.02,)})
    with pytest.raises(InvarianceError, match="positive"):
        InvarianceSpec(**{**good, "eta_list": (0.02, -0.01)})
    with pytest.raises(InvarianceError, match="total_time"):
        InvarianceSpec(**{**good, "total_time": 0.0})
    # a tolerance of zero or below fails every comparable row, so the family
    # would run only to report FAIL
    for tolerance in (0.0, -1.0, math.nan):
        with pytest.raises(InvarianceError, match="^tolerance must be positive$"):
            InvarianceSpec(**{**good, "tolerance": tolerance})


# -------------------------------------------------------- interpolation ---


def test_interp_column_is_linear_and_clamped():
    times = np.linspace(0.0, 1.0, 101)
    values = times**2
    mid = np.linspace(0.005, 0.995, 100)
    err = np.abs(_interp_column(mid, times, values) - mid**2)
    # linear interp errs by at most max|f''| h^2 / 8 = 2 h^2 / 8
    assert 0 < err.max() <= 2 * 0.01**2 / 8 + 1e-12
    # outside the source range the end values are held, never extrapolated
    out = _interp_column(np.array([-1.0, 2.0]), times, values)
    np.testing.assert_array_equal(out, [0.0, 1.0])


def test_interp_column_skips_nan_samples():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    values = np.array([0.0, np.nan, 2.0, 3.0])
    got = _interp_column(np.array([1.0]), times, values)
    assert got[0] == 1.0
    all_gap = _interp_column(np.array([1.0]), times, np.full(4, np.nan))
    assert np.isnan(all_gap).all()


# ------------------------------------------------------------ families ---


def test_run_family_shares_seed_and_counts_steps():
    ds = _toy_dataset(n=16, d=4, seed=2)
    spec = InvarianceSpec(total_time=0.5, eta_list=(0.1, 0.05),
                          layer_sizes=(4, 3), seed=11, dataset=ds)
    runs = run_family(spec)
    assert [r.steps for r in runs] == [5, 10]
    assert [r.label for r in runs] == ["run0:eta=0.1", "run1:eta=0.05"]
    assert all(r.trace.seed == 11 for r in runs)
    assert abs(runs[0].realized_product - 0.5) < 1e-12


def test_repeated_step_sizes_are_rejected():
    # a repeated eta would compare a run with its own rerun and always pass
    ds = _toy_dataset(n=16, d=4, seed=3)
    with pytest.raises(InvarianceError, match="distinct"):
        InvarianceSpec(total_time=0.3, eta_list=(0.05, 0.025, 0.05),
                       layer_sizes=(4, 2), seed=5, dataset=ds)


# -------------------------------------------------------------- compare ---


def test_compare_euler_family_first_order_drift():
    etas = (0.05, 0.025, 0.0125, 0.00625)
    runs = [_euler_run(f"run{i}", e) for i, e in enumerate(etas)]
    report = compare(resample_common_grid(runs), tolerance=0.02)
    assert report.reference_eta == 0.00625
    assert report.all_pass
    rows = {r.eta: r for r in report.rows if r.metric == "z_norm"}
    # drift away from the reference is proportional to (eta - eta_ref)
    slopes = [rows[e].sup_dev / (e - 0.00625) for e in (0.05, 0.025, 0.0125)]
    assert max(slopes) / min(slopes) < 1.05
    assert rows[0.0125].rel_dev < 0.01


def test_compare_scales_tolerance_with_step_gap():
    # linear-in-time columns make interpolation exact, so the injected
    # offsets are recovered as the sup deviations
    def biased(label, eta, K, offset):
        t = np.arange(1, K + 1) * eta
        return FamilyRun(label=label, eta=eta, steps=K,
                         realized_product=eta * K,
                         trace=_trace(eta, K, {"z_norm": t + offset}))

    runs = [
        biased("ref", 0.001, 100, 0.0),
        biased("mid", 0.005, 20, 0.001),
        biased("coarse", 0.02, 5, 0.01),
    ]
    report = compare(resample_common_grid(runs), tolerance=0.02)
    rows = {r.label: r for r in report.rows if r.metric == "z_norm"}
    assert abs(rows["mid"].sup_dev - 0.001) < 1e-12
    assert abs(rows["coarse"].sup_dev - 0.01) < 1e-12
    # finest gap is 0.005 - 0.001; the coarse run gets (0.019 / 0.004) times
    # the base tolerance while the finest pair keeps the base
    assert abs(rows["mid"].tolerance - 0.02) < 1e-12
    assert abs(rows["coarse"].tolerance - 0.02 * (0.019 / 0.004)) < 1e-12
    # grid range is 0.08, so rel devs are 0.0125 and 0.125
    assert rows["mid"].passed is True
    assert rows["coarse"].passed is False
    assert not report.all_pass


def test_compare_flags_zero_range_layers_incomparable():
    runs = [
        _euler_run("a", 0.05),
        _euler_run("b", 0.025),
    ]
    for r in runs:
        r.trace.cosine = np.full_like(r.trace.cosine, 0.25)
    report = compare(resample_common_grid(runs))
    (row,) = [r for r in report.rows if r.metric == "cosine"]
    assert row.passed is None
    assert math.isnan(row.rel_dev)
    assert report.all_pass  # incomparable never fails a family


def test_resample_rejects_disjoint_windows():
    a = FamilyRun("a", 0.1, 2, 0.2, _trace(0.1, 2))
    b = FamilyRun("b", 0.1, 2, 0.2, _trace(0.1, 2))
    b.trace.times = b.trace.times + 10.0
    with pytest.raises(InvarianceError, match="overlap"):
        resample_common_grid([a, b])
    with pytest.raises(InvarianceError, match="at least two"):
        resample_common_grid([a])


def test_normalized_entropy_collapses_on_real_runs():
    """Per-step entropy divided by eta approaches an eta-free rate."""
    ds = _toy_dataset(n=32, d=4, seed=4)
    spec = InvarianceSpec(total_time=0.2, eta_list=(0.02, 0.01, 0.005),
                          layer_sizes=(4, 3, 2), seed=7, dataset=ds)
    aligned = resample_common_grid(run_family(spec))
    assert set(aligned.data) == {(lab, m) for lab in aligned.labels for m in COMPARE_METRICS}
    report = compare(aligned, tolerance=0.25)
    assert len(report.rows) == 2 * len(COMPARE_METRICS)
    assert report.all_pass
