"""Single-unit trajectory functionals: the action form of the entropy, the
Euler-Lagrange residual and the net-action identity.

For one scalar pre-activation path z(t) the per-step entropy summed over a
run is the discrete form of (1/ln 2) * integral of L dt with Lagrangian

    L(z, zdot) = -z * sigmoid'(z) * zdot,        sigmoid'(z) = S (1 - S).

Because L is linear in zdot, its Euler-Lagrange equation collapses to an
identity: d/dt (dL/dzdot) equals dL/dz along every smooth path. Checked
numerically, the mismatch between the central finite difference of the
analytic momentum -z S (1 - S) and the analytic force must vanish at
second order in the sampling step.

The cumulative tensor net of a unit equals the running difference between
integral of sigmoid(z) zdot dt and the action entropy, so at a zero of the
net the two agree; net_action_identity measures the leftover at a detected
crossing, which is bounded by the one-step increment there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import sigmoid
from .metrics import LN2, TrajectoryTrace, find_zero_crossings

# Least Euler-Lagrange order under step halving that a unit passes: the
# residual of a second-order central difference should fall about 4x.
EL_ORDER_FLOOR = 1.8


@dataclass
class UnitTrajectory:
    """Uniformly sampled scalar path: z_k sampled at t_k = k * dt."""

    z: np.ndarray
    dt: float

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        if self.z.ndim != 1 or len(self.z) < 2:
            raise ValueError("a trajectory needs a 1-D z of at least two samples")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")

    @property
    def t(self) -> np.ndarray:
        return self.dt * np.arange(len(self.z))

    def truncated(self, t_max: float) -> "UnitTrajectory":
        keep = self.t <= t_max
        if keep.sum() < 2:
            raise ValueError(f"truncation at {t_max} leaves fewer than two samples")
        return UnitTrajectory(self.z[keep], self.dt)


def lagrangian(z, zdot):
    """L(z, zdot) = -z * S * (1 - S) * zdot with S = sigmoid(z)."""
    z = np.asarray(z, dtype=np.float64)
    s = sigmoid(z)
    return -z * s * (1.0 - s) * np.asarray(zdot, dtype=np.float64)


def action_entropy(traj: UnitTrajectory) -> float:
    """Entropy of the path via its action: (1/ln 2) * sum L(z_k, zdot_k) dt.

    zdot is the backward difference, so the first sample contributes
    nothing. Summed this way the term at k is exactly
    -(1/ln 2) * z_k * sigmoid'(z_k) * (z_k - z_{k-1}).
    """
    dz = np.diff(traj.z)
    zk = traj.z[1:]
    return float(np.sum(lagrangian(zk, dz / traj.dt)) * traj.dt / LN2)


def entropy_by_definition(traj: UnitTrajectory) -> float:
    """Entropy of the path via decision increments:
    -(1/ln 2) * sum z_k * (D_k - D_{k-1}). Agrees with the action form to
    first order in dt; the two become equal in the sampling limit."""
    d = sigmoid(traj.z)
    return float(-np.sum(traj.z[1:] * np.diff(d)) / LN2)


def el_residual(traj: UnitTrajectory) -> np.ndarray:
    """Euler-Lagrange residual at the interior samples.

    R_k = FD_t[ -z S (1 - S) ]_k  -  ( -zdot_k * (S (1 - S) + z S (1 - S) (1 - 2 S)) )_k

    with central differences for both the momentum's time derivative and
    zdot; endpoints are omitted. For samples of a smooth path the residual
    is pure truncation error, O(dt^2).
    """
    z = traj.z
    s = sigmoid(z)
    sp = s * (1.0 - s)  # sigmoid'
    momentum = -z * sp
    dmom = (momentum[2:] - momentum[:-2]) / (2.0 * traj.dt)
    zdot = (z[2:] - z[:-2]) / (2.0 * traj.dt)
    force = -zdot * (sp[1:-1] + z[1:-1] * sp[1:-1] * (1.0 - 2.0 * s[1:-1]))
    return dmom - force


def net_action_identity(traj: UnitTrajectory, crossing_time: float) -> float:
    """Residual of  integral sigmoid(z) zdot dt  =  action entropy  at a net
    zero crossing.

    Both sums run over the samples with t <= crossing_time using backward
    differences, mirroring how the trace accumulates net_cum; the returned
    value is |sum sigmoid(z_k) dz_k - action_entropy| over that prefix.
    """
    t = traj.t
    if not (t[0] <= crossing_time <= t[-1]):
        raise ValueError(f"crossing {crossing_time} outside trajectory range [{t[0]}, {t[-1]}]")
    head = traj.truncated(crossing_time)
    lhs = float(np.sum(sigmoid(head.z[1:]) * np.diff(head.z)))
    return abs(lhs - action_entropy(head))


def extract_unit_trajectories(trace: TrajectoryTrace, selections) -> list:
    """Pull recorded (layer, unit, sample) paths off a trace.

    Recording happens during the run (see dynamics.run); asking for a triple
    that was not recorded is an error. Each returned trajectory has one
    sample per recorded step, spaced by the run's dt starting at t = 0.
    """
    out = []
    for sel in selections:
        key = tuple(int(v) for v in sel)
        if key not in trace.unit_paths:
            raise KeyError(
                f"unit {key} was not recorded; pass record_units to run()"
            )
        out.append(UnitTrajectory(trace.unit_paths[key], trace.dt))
    return out


def unit_reports(units, trace: TrajectoryTrace, trace_half: TrajectoryTrace | None = None) -> list:
    """The units list of variational_report.json, as unit_passed judges it:
    per unit recorded on trace, its entropies, its max EL residual and, with
    trace_half (the run at dt/2), that residual at dt/2 and its order (both
    None without it), then the net-action residual at each net zero crossing
    in its window. That is a leftover of the last few increments of z, so it
    is held to 10 * dt * max|zdot|."""
    trajs = extract_unit_trajectories(trace, units)
    halves = extract_unit_trajectories(trace_half, units) if trace_half else [None] * len(units)
    reports = []
    for sel, traj, half in zip(units, trajs, halves):
        norm = float(np.abs(el_residual(traj)).max())
        norm_h = None if half is None else float(np.abs(el_residual(half)).max())
        entry = {"selection": sel, "action_entropy": float(action_entropy(traj)),
                 "entropy_by_definition": float(entropy_by_definition(traj)),
                 "el_residual_max": norm, "el_residual_max_half": norm_h,
                 "el_order": float(math.log2(norm / norm_h)) if norm and norm_h else None}
        zdot_max = float(np.abs(np.diff(traj.z)).max()) / traj.dt
        bound = 10.0 * traj.dt * zdot_max
        times = [(float(pos), float(pos * traj.dt)) for pos in find_zero_crossings(trace, sel[0])]
        entry["net_identity_crossings"] = [
            {"step": step, "time": ct, "residual": float(net_action_identity(traj, ct)),
             "bound": bound} for step, ct in times if ct <= float(traj.t[-1])]
        reports.append(entry)
    return reports


def unit_verdicts(unit: dict) -> list:
    """The checks of a variational_report.json unit entry, each True, False or
    None (nothing checked): its EL order against EL_ORDER_FLOOR (None when not
    measured), then each crossing's residual <= bound (None when that holds
    under a bound that is not positive)."""
    order = unit["el_order"]
    crossings = [False if c["residual"] > c["bound"] else True if c["bound"] > 0 else None
                 for c in unit["net_identity_crossings"]]
    return [None if order is None else order >= EL_ORDER_FLOOR, *crossings]


def unit_passed(unit: dict) -> bool:
    """A unit's verdict: something was checked and nothing failed. A unit with
    no net zero crossing in the window is judged on its order alone, and one
    with no order either fails."""
    verdicts = unit_verdicts(unit)
    return True in verdicts and False not in verdicts
