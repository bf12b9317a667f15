"""The three benchmark workloads: their frozen configs, the variants drawn
from the benchmark seed, and the counts each config implies.

Every workload keeps the network, the integration settings and the command
of one acceptance scenario fixed. The seed only redraws the data, so a
variant costs the same work as the frozen config it comes from:

- glyph-train: the glyph rendering seed is the benchmark seed;
- family-invariance: the synthetic blob seed is the benchmark seed modulo
  FAMILY_DATA_SEEDS;
- unit-variational: the constant input is drawn from [0.9, 1.0], where the
  seed-4 start still crosses zero (near t = 3.7 at 0.9) inside the run.
"""

from __future__ import annotations

import copy
import random

# About 2% of blob seeds give a family whose cosine drifts past the eta-scaled
# tolerance (seeds 202 and 225 of 0-63 and 200-239, at 1.5 times it); every
# seed in 0-63 passes, so the benchmark seed is folded into that range.
FAMILY_DATA_SEEDS = 64

WORKLOADS = {
    # Acceptance run 6: large arrays, so BLAS and elementwise kernels dominate.
    "glyph-train": {
        "command": ["train", "--svg"],
        "config": {
            "seed": 10,
            "network": {"layer_sizes": [784, 256, 128, 64, 10], "init_std_scale": 0.15},
            "run": {"dt": 0.01, "steps": 50},
            "data": {"source": "glyphs", "n": 4096, "seed": 7},
        },
    },
    # Acceptance-2 system over six step sizes: mid-size arrays for
    # thousands of steps, plus 1.2 MB of CSV, resampling and comparison.
    "family-invariance": {
        "command": ["invariance"],
        "config": {
            "seed": 19,
            "network": {"layer_sizes": [64, 32, 16, 4], "init_std_scale": 2.0},
            "data": {"source": "synthetic", "n": 512, "dim": 64, "classes": 8,
                     "seed": 13, "center_spacing": 0.35, "std": 0.1},
            "invariance": {"eta_list": [0.02, 0.01, 0.005, 0.0033, 0.0025, 0.001],
                           "total_time": 1.0},
        },
    },
    # One weight, one sample: every step is pure per-call overhead.
    "unit-variational": {
        "command": ["variational-check"],
        "config": {
            "seed": 4,
            "network": {"layer_sizes": [1, 1]},
            "run": {"dt": 0.001, "steps": 6000},
            "data": {"source": "constant", "n": 1, "dim": 1, "value": 1.0},
            "variational": {"units": [[0, 0, 0]], "dt_halving": True},
        },
    },
}


def configs(name: str, seed: int) -> dict:
    """The frozen config and the seed's variant, keyed "frozen" and "variant"."""
    frozen = WORKLOADS[name]["config"]
    variant = copy.deepcopy(frozen)
    if name == "unit-variational":
        variant["data"]["value"] = random.Random(seed).uniform(0.9, 1.0)
    elif name == "family-invariance":
        variant["data"]["seed"] = seed % FAMILY_DATA_SEEDS
    else:
        variant["data"]["seed"] = seed
    return {"frozen": frozen, "variant": variant}


def run_lengths(name: str, cfg: dict) -> list:
    """Recorded steps K of every dynamics.run call the command makes, in order."""
    if name == "family-invariance":
        inv = cfg["invariance"]
        return [int(round(inv["total_time"] / eta)) for eta in inv["eta_list"]]
    k = cfg["run"]["steps"]
    if name == "unit-variational" and cfg["variational"]["dt_halving"]:
        return [k, 2 * k]
    return [k]


def first_run(name: str, cfg: dict) -> tuple:
    """(dt, steps) of the first run, used to time init_network in set-up."""
    if name == "family-invariance":
        eta = cfg["invariance"]["eta_list"][0]
        return eta, run_lengths(name, cfg)[0]
    return cfg["run"]["dt"], cfg["run"]["steps"]


def euler_steps(name: str, cfg: dict) -> int:
    """Euler steps integrated, one seeding step per run included."""
    return sum(k + 1 for k in run_lengths(name, cfg))


def expected_counts(name: str, cfg: dict, crossings: int = 0) -> dict:
    """Call counts and computed flop the config implies for one traced child.

    crossings is the number of net zero crossings unit-variational reports;
    each one adds a net_action_identity call, which nests action_entropy,
    which nests lagrangian, and two sigmoid calls.
    """
    sizes = cfg["network"]["layer_sizes"]
    layers = len(sizes) - 1
    n = cfg["data"]["n"]
    runs = run_lengths(name, cfg)
    steps = sum(k + 1 for k in runs)
    recorded = sum(runs)
    pairs = list(zip(sizes[:-1], sizes[1:]))
    counts = {
        "dynamics.step.calls": steps,
        "dynamics.forward.calls": steps,
        "dynamics.sigmoid.calls": steps * layers,
        "dynamics.entropy_gradient.calls": steps * layers,
        "dynamics.run.calls": len(runs),
        # one call in set-up, one per run
        "dynamics.init_network.calls": len(runs) + 1,
        "linalg.matmul.calls": steps * layers,
        "linalg.matmul.flop": steps * sum(2 * n * a * b for a, b in pairs),
        "linalg.outer_mean.calls": steps * layers,
        "linalg.outer_mean.flop": steps * sum(2 * n * a * b + a * b for a, b in pairs),
        # two Frobenius norms and one cosine per layer and recorded step
        "linalg.norm_cos.calls": 3 * layers * recorded,
        "metrics.add.calls": recorded,
        "metrics.finish.calls": len(runs),
        "metrics.markers.calls": 0,
        "invariance.run_family.calls": 0,
        "invariance.resample.calls": 0,
        "invariance.compare.calls": 0,
        "variational.calls": 0,
        "charts.line_chart.calls": 0,
        "cli.write_trace_csv.calls": 0,
        "cli.write_markers_csv.calls": 0,
        "cli.write_json.calls": 2,
        # the probe batch plus one per step, in every run
        "data.take_batch.calls": sum(k + 2 for k in runs),
        # one build in set-up, one in the command
        "data.build.calls": 2,
    }
    if name == "glyph-train":
        counts.update({
            # trace_markers: 3 per layer; train_charts: entropy minimum,
            # flow peak and two crossing searches per layer
            "metrics.markers.calls": 7 * layers,
            "charts.line_chart.calls": 6,
            "cli.write_trace_csv.calls": 1,
            "cli.write_markers_csv.calls": 1,
            "cli.write_json.calls": 1,
        })
    elif name == "family-invariance":
        counts.update({
            "invariance.run_family.calls": 1,
            "invariance.resample.calls": 1,
            "invariance.compare.calls": 1,
            "cli.write_trace_csv.calls": len(runs),
        })
    else:
        units = len(cfg["variational"]["units"])
        counts.update({
            "metrics.markers.calls": units,
            # one extract per run; per unit an el_residual per run, action
            # entropy with its lagrangian, and entropy_by_definition
            "variational.calls": len(runs) + units * (len(runs) + 3) + 3 * crossings,
            "dynamics.sigmoid.calls": steps * layers + units * (len(runs) + 2) + 2 * crossings,
        })
    return counts
