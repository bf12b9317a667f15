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
    _interp_column,
    compare,
    family_passed,
    resample_common_grid,
    run_family,
    steps_for,
)
from ska.metrics import COLUMNS, TrajectoryTrace


def _toy_dataset(n=8, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return ska.Dataset(rng.uniform(0, 1, size=(n, d)))


def _trace(eta, K, columns=None, n_layers=1):
    steps = np.arange(1, K + 1, dtype=np.int64)
    values = np.zeros((K, n_layers, len(COLUMNS)))
    for name, arr in (columns or {}).items():
        values[:, :, COLUMNS.index(name)] = np.reshape(arr, (K, n_layers))
    return TrajectoryTrace(dt=eta, steps=steps, times=steps * eta, values=values)


def _euler_run(eta, total_time=1.0):
    K = int(round(total_time / eta))
    z = (1.0 - eta) ** np.arange(1, K + 1, dtype=np.float64)
    return _trace(eta, K, {"z_norm": z})


# -------------------------------------------------------- input checks ---


def test_steps_for_rounds_the_window():
    assert steps_for(0.5, 0.01) == 50
    assert steps_for(0.5, 0.003) == 167
    with pytest.raises(ValueError, match=r"^eta 0\.09 gives only 1 steps over T = 0\.1; need at least 2$"):
        steps_for(0.1, 0.09)
    with pytest.raises(ValueError, match="limit"):
        steps_for(1.0, 1e-310)


def test_run_family_rejects_bad_inputs():
    good = dict(dataset=_toy_dataset(), layer_sizes=(3, 2), init_std_scale=1.0, seed=0,
                total_time=0.5, eta_list=(0.02, 0.01))
    with pytest.raises(ValueError, match="^need at least two step sizes to compare$"):
        run_family(**{**good, "eta_list": (0.02,)})
    with pytest.raises(ValueError, match="^step sizes must be positive and finite$"):
        run_family(**{**good, "eta_list": (0.02, -0.01)})
    with pytest.raises(ValueError, match="^total_time must be positive and finite$"):
        run_family(**{**good, "total_time": 0.0})
    # a non-finite window or step would fail later, in the step count, under
    # a message naming neither
    for total_time in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^total_time must be positive and finite$"):
            run_family(**{**good, "total_time": total_time})
    for eta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^step sizes must be positive and finite$"):
            run_family(**{**good, "eta_list": (0.02, eta)})


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
    traces = run_family(ds, (4, 3), 1.0, 11, 0.5, (0.1, 0.05))
    assert [t.dt for t in traces] == [0.1, 0.05]
    assert [t.n_steps for t in traces] == [5, 10]
    assert resample_common_grid(traces).labels == ["run0:eta=0.1", "run1:eta=0.05"]
    # every run is the seed-11 network at its own step size
    for t in traces:
        cfg = NetworkConfig((4, 3), dt=t.dt, steps=t.n_steps, seed=11)
        assert np.array_equal(t.values, ska.run(ska.init_network(cfg), ds).values)
    assert abs(traces[0].dt * traces[0].n_steps - 0.5) < 1e-12


def test_repeated_step_sizes_are_rejected():
    # a repeated eta would compare a run with its own rerun and always pass
    ds = _toy_dataset(n=16, d=4, seed=3)
    with pytest.raises(ValueError, match="^step sizes must be distinct$"):
        run_family(ds, (4, 2), 1.0, 5, 0.3, (0.05, 0.025, 0.05))


# -------------------------------------------------------------- compare ---


def test_compare_euler_family_first_order_drift():
    etas = (0.05, 0.025, 0.0125, 0.00625)
    report = compare(resample_common_grid([_euler_run(e) for e in etas]))
    assert report["reference_eta"] == 0.00625
    assert report["all_pass"]
    rows = {r["eta"]: r for r in report["rows"] if r["metric"] == "z_norm"}
    # drift away from the reference is proportional to (eta - eta_ref)
    slopes = [rows[e]["sup_dev"] / (e - 0.00625) for e in (0.05, 0.025, 0.0125)]
    assert max(slopes) / min(slopes) < 1.05
    assert rows[0.0125]["rel_dev"] < 0.01


def test_compare_scales_tolerance_with_step_gap():
    # linear-in-time columns make interpolation exact, so the injected
    # offsets are recovered as the sup deviations
    def biased(eta, K, offset):
        t = np.arange(1, K + 1) * eta
        return _trace(eta, K, {"z_norm": t + offset})

    traces = [biased(0.001, 100, 0.0), biased(0.005, 20, 0.001), biased(0.02, 5, 0.01)]
    report = compare(resample_common_grid(traces))
    assert report["reference"] == "run0:eta=0.001"
    rows = {r["run"]: r for r in report["rows"] if r["metric"] == "z_norm"}
    mid, coarse = rows["run1:eta=0.005"], rows["run2:eta=0.02"]
    assert abs(mid["sup_dev"] - 0.001) < 1e-12
    assert abs(coarse["sup_dev"] - 0.01) < 1e-12
    # finest gap is 0.005 - 0.001; the coarse run gets (0.019 / 0.004) times
    # the base tolerance while the finest pair keeps the base
    assert abs(mid["tolerance"] - 0.02) < 1e-12
    assert abs(coarse["tolerance"] - 0.02 * (0.019 / 0.004)) < 1e-12
    # grid range is 0.08, so rel devs are 0.0125 and 0.125
    assert mid["passed"] is True
    assert coarse["passed"] is False
    assert not report["all_pass"]


def test_compare_flags_zero_range_layers_incomparable():
    traces = [_euler_run(0.05), _euler_run(0.025)]
    for t in traces:
        t.column("cosine")[:] = 0.25
    report = compare(resample_common_grid(traces))
    (row,) = [r for r in report["rows"] if r["metric"] == "cosine"]
    assert row["passed"] is None
    assert math.isnan(row["rel_dev"])
    assert report["all_pass"]  # incomparable never fails a family


@pytest.mark.parametrize("verdicts,passed", [
    ([True, None], True),
    ([True, True], True),
    ([True, False, None], False),
    ([None, None], False),
    ([], False),
], ids=["one-incomparable", "all-pass", "one-fails", "none-comparable", "no-rows"])
def test_family_passed_needs_a_comparable_row(verdicts, passed):
    """An incomparable row never fails a family, but a family with no
    comparable row checked nothing, and fails."""
    assert family_passed([{"passed": v} for v in verdicts]) is passed


def test_a_still_family_compares_no_row():
    """Zero weights never move, so every compared metric is constant across
    the reference run: each row is incomparable and the family fails."""
    ds = _toy_dataset(n=8, d=4, seed=1)
    report = compare(resample_common_grid(run_family(ds, (4, 3), 0.0, 0, 1.0, (0.1, 0.05))))
    assert [r["passed"] for r in report["rows"]] == [None] * len(COMPARE_METRICS)
    assert report["all_pass"] is False


def test_resample_rejects_disjoint_windows():
    a = _trace(0.1, 2)
    b = _trace(0.1, 2)
    b.times = b.times + 10.0
    with pytest.raises(ValueError, match="^trace time ranges do not overlap$"):
        resample_common_grid([a, b])
    with pytest.raises(ValueError, match="^need at least two runs to align$"):
        resample_common_grid([a])


def test_resample_rejects_runs_of_different_depth():
    # the family's array has one layer axis, so a shallower run would leave
    # the deeper layers unset
    deep = _trace(0.1, 2, n_layers=2)
    with pytest.raises(ValueError, match="^runs of a family must have the same number of layers$"):
        resample_common_grid([deep, _trace(0.05, 4)])


def test_normalized_entropy_collapses_on_real_runs():
    """Per-step entropy divided by eta approaches an eta-free rate."""
    ds = _toy_dataset(n=32, d=4, seed=4)
    aligned = resample_common_grid(run_family(ds, (4, 3, 2), 1.0, 7, 0.2, (0.02, 0.01, 0.005)))
    assert aligned.data.shape == (3, len(COMPARE_METRICS), len(aligned.grid), 2)
    report = compare(aligned)
    assert len(report["rows"]) == 2 * len(COMPARE_METRICS)
    assert report["all_pass"]
