"""Acceptance gate: one test per criterion, one verdict line per criterion.

Each test collects its failures, emits exactly one line of the form

    ACCEPTANCE <n> <name>: PASS|FAIL (<elapsed>s)

(also echoed in the terminal summary), then asserts. Scenario constants
below are frozen and the documented values were measured once. Runs whose
largest product is below dynamics.SMALL_PRODUCT (the family, the scalar
unit) use one BLAS thread, so their values are the same bits at any thread
setting; the glyph run of criterion 6 is bit-stable at a fixed thread count.
"""

import json
import math
import struct
import time

import numpy as np
import pytest
import scipy.integrate

import ska
from ska import data as ska_data
from ska.cli import main as cli_main
from ska.dynamics import NetworkConfig
from ska.invariance import InvarianceSpec, compare, resample_common_grid, run_family

from conftest import ACCEPTANCE_LINES
from test_variational import sample_path

# criterion 2/3 family, frozen
FAMILY_DATA = dict(n=512, d=64, classes=8, seed=13, center_spacing=0.35, std=0.1)
FAMILY_NET = dict(layer_sizes=(64, 32, 16, 4), seed=19, init_std_scale=2.0)
FAMILY_ETAS = (0.02, 0.01, 0.005, 0.001)
FAMILY_T = 0.5

# criterion 6 run, frozen
GLYPH_N, GLYPH_SEED = 4096, 7
FIG_NET = dict(layer_sizes=(784, 256, 128, 64, 10), dt=0.01, steps=50,
               seed=10, init_std_scale=0.15)


class Criterion:
    """Failure collector that prints a single verdict line."""

    def __init__(self, number, name):
        self.number = number
        self.name = name
        self.failures = []
        self.t0 = time.perf_counter()

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if not self.failures else "FAIL"
        line = f"ACCEPTANCE {self.number} {self.name}: {status} ({elapsed:.2f}s)"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert not self.failures, "; ".join(self.failures)


# ------------------------------------------------- 1: gradient oracle ---


def test_acceptance_1_gradient_oracle():
    c = Criterion(1, "gradient and primitive oracles")
    zs = np.arange(-10.0, 10.5, 0.5)
    e = 1e-4
    fd = (ska.entropy_primitive(zs + e) - ska.entropy_primitive(zs - e)) / (2 * e)
    g = ska.entropy_gradient(zs, ska.sigmoid(zs))
    for z, f_hat, g_exact in zip(zs, fd, g):
        if g_exact == 0.0:
            c.check(abs(f_hat) < 1e-9, f"z={z}: fd {f_hat} not ~0")
        else:
            rel = abs(f_hat - g_exact) / abs(g_exact)
            c.check(rel < 1e-6, f"z={z}: rel err {rel:.3e}")
    ln2 = math.log(2.0)
    for z in (-8.0, -5.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0, 8.0):
        quad, _ = scipy.integrate.quad(
            lambda u: u * float(ska.sigmoid(np.array(u))) * (1 - float(ska.sigmoid(np.array(u)))),
            0.0, z)
        h_quad = -quad / ln2
        diff = abs(float(ska.entropy_primitive(np.array(z))) - h_quad)
        c.check(diff < 1e-9, f"z={z}: primitive vs quadrature {diff:.3e}")
    c.check(time.perf_counter() - c.t0 < 1.0, "runtime >= 1 s")
    c.finish()


# -------------------------------- 2 and 3: characteristic-time family ---


@pytest.fixture(scope="module")
def family():
    t0 = time.perf_counter()
    ds = ska.synthetic_blobs(**FAMILY_DATA)
    spec = InvarianceSpec(
        total_time=FAMILY_T,
        eta_list=FAMILY_ETAS,
        layer_sizes=FAMILY_NET["layer_sizes"],
        seed=FAMILY_NET["seed"],
        init_std_scale=FAMILY_NET["init_std_scale"],
        dataset=ds,
    )
    return run_family(spec), time.perf_counter() - t0


def test_acceptance_2_time_invariance(family):
    runs, build_time = family
    c = Criterion(2, "characteristic-time invariance")
    c.t0 -= build_time  # the shared family build counts against this budget
    aligned = resample_common_grid(runs)
    np.testing.assert_array_equal(aligned.grid, runs[0].trace.times)
    report = compare(aligned, tolerance=0.02)
    rows = {(r.metric, r.eta): r for r in report.rows}
    for metric in ("entropy_step_normalized", "cosine"):
        finest = rows[(metric, 0.005)]
        c.check(finest.passed is True,
                f"{metric}: eta=0.005 rel dev {finest.rel_dev:.4f} > 2%")
        for layer, (_, rel, rng) in finest.per_layer.items():
            c.check(rel <= 0.02,
                    f"{metric} layer {layer}: rel dev {rel:.4f} over range {rng:.3g}")
        for big, small in ((0.02, 0.01), (0.01, 0.005)):
            ratio = rows[(metric, big)].sup_dev / rows[(metric, small)].sup_dev
            c.check(1.6 <= ratio <= 2.4,
                    f"{metric}: dev({big})/dev({small}) = {ratio:.3f}")
    c.check(time.perf_counter() - c.t0 < 120.0, "runtime >= 2 min")
    c.finish()


def test_acceptance_3_entropy_scales_with_eta(family):
    runs, _ = family
    c = Criterion(3, "raw entropy proportional to eta")
    coarse = runs[1].trace  # eta = 0.01
    fine = runs[2].trace    # eta = 0.005
    ks = np.arange(17, 34)  # mid-trajectory window of the 50-step run
    ratio = coarse.entropy_step[ks - 1, :] / fine.entropy_step[2 * ks - 1, :]
    mean = float(ratio.mean())
    c.check(1.85 <= mean <= 2.15, f"layer-averaged ratio {mean:.4f} outside 2.0 +/- 0.15")
    c.finish()


# --------------------------------------- 4: Euler-Lagrange residuals ---


def test_acceptance_4_euler_lagrange_orders():
    c = Criterion(4, "Euler-Lagrange residual orders")
    for f, name in ((math.sin, "sin"), (math.tanh, "tanh")):
        r1 = np.abs(ska.el_residual(sample_path(f, 0.0, 3.0, 0.01))).max()
        r2 = np.abs(ska.el_residual(sample_path(f, 0.0, 3.0, 0.005))).max()
        order = math.log2(r1 / r2)
        c.check(order >= 1.8, f"{name} path: order {order:.3f} < 1.8")

    def scalar_unit(dt, steps):
        cfg = NetworkConfig(layer_sizes=(1, 1), dt=dt, steps=steps, seed=0)
        trace = ska.run(ska.init_network(cfg), ska.constant_dataset(1, 1, 1.0),
                        record_units=[(0, 0, 0)])
        (traj,) = ska.extract_unit_trajectories(trace, [(0, 0, 0)])
        return np.abs(ska.el_residual(traj)).max()

    r1 = scalar_unit(0.05, 20)
    r2 = scalar_unit(0.025, 40)
    order = math.log2(r1 / r2)
    c.check(order >= 0.9, f"recorded unit: order {order:.3f} < 0.9")
    c.check(time.perf_counter() - c.t0 < 10.0, "runtime >= 10 s")
    c.finish()


# --------------------------------------------- 5: net-action identity ---


def _scalar_run(dt, total_time=6.0, w0=-0.5):
    steps = int(round(total_time / dt))
    cfg = NetworkConfig(layer_sizes=(1, 1), dt=dt, steps=steps, seed=0)
    net = ska.init_network(cfg)
    net.layers[0].W = np.array([[w0]])
    return ska.run(net, ska.constant_dataset(1, 1, 1.0), record_units=[(0, 0, 0)])


def _crossing_residual(trace):
    crossings = ska.find_zero_crossings(trace, 0)
    if not crossings:
        return None, None
    t_star = crossings[0] * trace.dt
    (traj,) = ska.extract_unit_trajectories(trace, [(0, 0, 0)])
    zdot_max = float(np.abs(np.diff(traj.z)).max()) / trace.dt
    return ska.net_action_identity(traj, t_star), zdot_max


def test_acceptance_5_net_action_identity():
    c = Criterion(5, "net-action identity at the crossing")
    dt = 0.05
    res, zdot_max = _crossing_residual(_scalar_run(dt))
    c.check(res is not None, "no zero crossing detected")
    if res is not None:
        bound = 10.0 * dt * zdot_max
        c.check(res <= bound, f"residual {res:.3e} > bound {bound:.3e}")
        res_half, _ = _crossing_residual(_scalar_run(dt / 2))
        c.check(res_half is not None, "no crossing at dt/2")
        if res_half is not None:
            ratio = res / res_half
            c.check(1.5 <= ratio <= 2.5, f"halving ratio {ratio:.3f} outside [1.5, 2.5]")
    c.check(time.perf_counter() - c.t0 < 10.0, "runtime >= 10 s")
    c.finish()


# ------------------------------------------------- 6: trajectory shapes ---


def test_acceptance_6_trajectory_shapes():
    c = Criterion(6, "qualitative trajectory shapes")
    ds = ska.glyph_dataset(GLYPH_N, seed=GLYPH_SEED)
    cfg = NetworkConfig(**FIG_NET)
    trace = ska.run(ska.init_network(cfg), ds)
    hidden = range(trace.n_layers - 1)
    out = trace.n_layers - 1

    for l in range(trace.n_layers):
        drops = np.diff(trace.z_norm[4:, l])
        c.check(bool(np.all(drops >= -1e-12)),
                f"layer {l}: z_norm decreases after step 5 (min diff {drops.min():.2e})")
    crossed = [l for l in hidden if ska.find_zero_crossings(trace, l)]
    c.check(bool(crossed), "no hidden layer has a net zero-crossing")
    frac = float(np.mean(trace.net_cum[:, out] <= 0.0))
    c.check(frac > 0.70, f"output net_cum <= 0 on only {frac:.2f} of steps")
    for l in hidden:
        peak = ska.find_flow_peak(trace, l)
        c.check(1 < peak < trace.n_steps,
                f"layer {l}: flow peak at boundary step {peak}")
    c.check(time.perf_counter() - c.t0 < 300.0, "runtime >= 5 min")
    c.finish()


# ------------------------------------------------------ 7: determinism ---


def test_acceptance_7_rerun_determinism(tmp_path):
    c = Criterion(7, "byte-identical reruns")
    train_cfg = {
        "seed": 21,
        "network": {"layer_sizes": [8, 6, 3]},
        "run": {"dt": 0.02, "steps": 10},
        "data": {"source": "synthetic", "n": 64, "dim": 8, "classes": 4, "seed": 2},
    }
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(train_cfg))
    for name in ("a", "b"):
        rc = cli_main(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path / name), "--no-svg"])
        c.check(rc == 0, f"train run {name} exited {rc}")
    for artifact in ("trace.csv", "markers.csv"):
        same = (tmp_path / "a" / artifact).read_bytes() == (tmp_path / "b" / artifact).read_bytes()
        c.check(same, f"{artifact} differs between identical train runs")

    echoed = json.loads((tmp_path / "a" / "manifest.json").read_text())["config"]
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(echoed))
    rc = cli_main(["train", "--config", str(echo_path),
                   "--out", str(tmp_path / "c"), "--no-svg"])
    c.check(rc == 0, f"manifest-config rerun exited {rc}")
    same = (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "c" / "trace.csv").read_bytes()
    c.check(same, "manifest-config rerun changed trace.csv")

    inv_cfg = {
        "seed": 21,
        "network": {"layer_sizes": [8, 4]},
        "data": train_cfg["data"],
        "invariance": {"eta_list": [0.02, 0.01], "total_time": 0.2, "tolerance": 0.5},
    }
    inv_path = tmp_path / "inv.json"
    inv_path.write_text(json.dumps(inv_cfg))
    for name in ("ia", "ib"):
        rc = cli_main(["invariance", "--config", str(inv_path), "--out", str(tmp_path / name)])
        c.check(rc == 0, f"invariance run {name} exited {rc}")
    for artifact in ("aligned.csv", "invariance_report.csv",
                     "trace_run0_eta0.02.csv", "trace_run1_eta0.01.csv"):
        same = (tmp_path / "ia" / artifact).read_bytes() == (tmp_path / "ib" / artifact).read_bytes()
        c.check(same, f"{artifact} differs between identical invariance runs")
    c.finish()


# -------------------------------------------------- 8: format robustness ---


def test_acceptance_8_idx_robustness(tmp_path):
    c = Criterion(8, "IDX loader robustness")
    rng = np.random.default_rng(123)
    pixels = rng.integers(0, 256, size=(6, 5, 4), dtype=np.uint8)
    good_path = tmp_path / "good.idx"
    ska_data.save_idx_images(good_path, pixels)
    good = good_path.read_bytes()
    c.check(good[:16] == struct.pack(">IIII", 2051, 6, 5, 4), "header bytes wrong")

    rejected = 0
    for i in range(50):
        blob = bytearray(good)
        kind = rng.integers(0, 4)
        if kind == 0:
            pos = int(rng.integers(0, 16))
            blob[pos] ^= int(rng.integers(1, 256))
        elif kind == 1:
            blob = blob[: int(rng.integers(0, 16))]
        elif kind == 2:
            blob = blob[: int(rng.integers(16, len(good)))]
        else:
            blob += bytes(rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8))
        bad_path = tmp_path / f"bad{i}.idx"
        bad_path.write_bytes(bytes(blob))
        try:
            ska_data.load_idx_images(bad_path)
        except ska_data.IdxFormatError:
            rejected += 1
        except Exception as exc:  # noqa: BLE001 - a crash is the failure mode
            c.check(False, f"case {i} ({kind}): {type(exc).__name__} instead of a format error")
    c.check(rejected == 50, f"only {rejected}/50 corrupt headers rejected")

    # the loader hands out [0,1] floats; recover bytes and re-encode
    loaded = ska_data.load_idx_images(good_path)
    back = (loaded * 255.0).round().astype(np.uint8).reshape(pixels.shape)
    c.check(bool(np.array_equal(back, pixels)), "pixel values drifted in the round trip")
    again = tmp_path / "again.idx"
    ska_data.save_idx_images(again, back)
    c.check(again.read_bytes() == good, "write/read round trip not bit-exact")
    c.check(time.perf_counter() - c.t0 < 1.0, "runtime >= 1 s")
    c.finish()
