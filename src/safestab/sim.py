"""Closed-loop integration (fixed-step classical RK4, input held over each
step), trajectory logging with region/switch bookkeeping, and scalar metrics.

CSV schema (column order is part of the contract):
    t, x_1..x_n, u_1..u_m, W, h_1..h_k, region, active_1..active_k
with region 0 = R1 and 1 = R2, activation flags 0/1, and full double
precision values (shortest round-trip representation).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import as_vector
from .errors import InfeasibleQPError, QPIterationError, SimulationError
# cbf_rows and classify_region are unused here but stay bound: the
# benchmark's tracer (bench/instrument.py) wraps them in this module
from .filters import (Evaluation, FilterConfig, active_flags, cbf_rows,  # noqa: F401
                      classify_region)

BLOWUP_LIMIT = 1e6

STATUS_OK = "ok"
STATUS_BLOWUP = "blowup"
STATUS_INFEASIBLE = "infeasible"
STATUS_QP_ITERATION = "qp_iteration"


@dataclass
class SimConfig:
    x0: np.ndarray
    t_final: float
    dt: float = 1e-3
    record_every: int = 1

    def __post_init__(self):
        self.x0 = as_vector(self.x0)
        for name, val in (("dt", self.dt), ("t_final", self.t_final)):
            if not 0.0 < val < math.inf:
                raise SimulationError(f"{name} must be positive and finite, got {val}")
        if not np.all(np.isfinite(self.x0)):
            raise SimulationError(f"x0 must be finite, got {self.x0.tolist()}")
        if self.record_every < 1:
            raise SimulationError("record_every must be >= 1")


@dataclass
class SwitchEvent:
    """Region flip between two consecutive integration steps."""

    t: float
    from_region: int
    to_region: int
    u_before: np.ndarray
    u_after: np.ndarray
    flags_before: np.ndarray
    flags_after: np.ndarray

    @property
    def input_jump(self) -> float:
        return float(np.abs(self.u_after - self.u_before).max())

    @property
    def activation_changed(self) -> bool:
        return bool(np.any(self.flags_before != self.flags_after))


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    regions: np.ndarray
    w_values: np.ndarray
    h_values: np.ndarray
    active: np.ndarray
    switch_events: List[SwitchEvent] = field(default_factory=list)
    status: str = STATUS_OK
    diagnostic: str = ""

    def __post_init__(self):
        n_rec = self.times.size
        for arr in (self.states, self.inputs, self.regions, self.w_values,
                    self.h_values, self.active):
            if arr.shape[0] != n_rec:
                raise SimulationError("trajectory arrays have mismatched lengths")
        if n_rec > 1 and not np.all(np.diff(self.times) > 0.0):
            raise SimulationError("times must be strictly increasing")

    @property
    def n_samples(self) -> int:
        return self.times.size


def rk4_step(sys, x: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    # raw f/g calls; shapes were validated when the trajectory started
    f, g = sys.f, sys.g
    k1 = f(x) + g(x) @ u
    y = x + 0.5 * dt * k1
    k2 = f(y) + g(y) @ u
    y = x + 0.5 * dt * k2
    k3 = f(y) + g(y) @ u
    y = x + dt * k3
    k4 = f(y) + g(y) @ u
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(cfg: FilterConfig,
              controller: Callable[[np.ndarray], Tuple[np.ndarray, Evaluation]],
              simcfg: SimConfig) -> Trajectory:
    """Run the closed loop from simcfg.x0, re-evaluating the controller at the
    start of every step and holding its input through the RK4 stages.

    The initial state must lie in the safe set. Non-finite states, states
    beyond the blow-up guard, controller infeasibility and a controller QP
    that exceeds its iteration budget truncate the run with a diagnostic
    instead of raising.

    The controller maps x to (u, ev) as make_controller's do; the logged
    region, activation flags and barrier values come from the evaluation ev
    at x."""
    x = as_vector(simcfg.x0, cfg.sys.n)
    if cfg.safe_set.min_value(x) < 0.0:
        raise SimulationError(f"x0 outside the safe set: min h = {cfg.safe_set.min_value(x)}")
    n_steps = int(round(simcfg.t_final / simcfg.dt))

    times: List[float] = []
    states: List[np.ndarray] = []
    inputs: List[np.ndarray] = []
    regions: List[int] = []
    w_values: List[float] = []
    h_values: List[np.ndarray] = []
    act: List[np.ndarray] = []
    events: List[SwitchEvent] = []
    status = STATUS_OK
    diagnostic = ""

    prev_region: Optional[int] = None
    prev_u: Optional[np.ndarray] = None
    prev_flags: Optional[np.ndarray] = None

    for step in range(n_steps + 1):
        t = step * simcfg.dt
        try:
            u, ev = controller(x)
        except InfeasibleQPError as exc:
            status = STATUS_INFEASIBLE
            diagnostic = f"controller infeasible at t={t}: {exc}"
            break
        except QPIterationError as exc:
            status = STATUS_QP_ITERATION
            diagnostic = f"controller QP did not converge at t={t}, x={x.tolist()}: {exc}"
            break
        u = np.asarray(u, dtype=float)
        flags = active_flags(ev.A, ev.lb, u)
        region = int(ev.label.value)

        if prev_region is not None and region != prev_region:
            events.append(SwitchEvent(t, prev_region, region, prev_u, u,
                                      prev_flags, flags))
        prev_region, prev_u, prev_flags = region, u, flags

        if step % simcfg.record_every == 0 or step == n_steps:
            times.append(t)
            states.append(x.copy())
            inputs.append(u.copy())
            regions.append(region)
            w_values.append(cfg.clf.value(x))
            h_values.append(ev.h)
            act.append(flags.astype(int))

        if step == n_steps:
            break
        x = rk4_step(cfg.sys, x, u, simcfg.dt)
        if not np.abs(x).max() <= BLOWUP_LIMIT:   # also true for nan and inf
            status = STATUS_BLOWUP
            diagnostic = f"state blew up at t={t + simcfg.dt}"
            break

    # reshaped so that a run stopped at its first step has (0, n)-style
    # arrays, which the CSV writer and the metrics accept
    k = len(cfg.safe_set.barriers)
    return Trajectory(
        times=np.array(times),
        states=np.array(states).reshape(-1, cfg.sys.n),
        inputs=np.array(inputs).reshape(-1, cfg.sys.m),
        regions=np.array(regions, dtype=int),
        w_values=np.array(w_values),
        h_values=np.array(h_values).reshape(-1, k),
        active=np.array(act, dtype=int).reshape(-1, k),
        switch_events=events,
        status=status,
        diagnostic=diagnostic,
    )


@dataclass
class Metrics:
    convergence_time: float
    min_h: float
    input_tv: float
    w_monotone_violation: float
    final_distance: float
    eps: float


def compute_metrics(traj: Trajectory, eq, eps: float = 1e-2) -> Metrics:
    """Scalar summaries of a trajectory.

    convergence_time is the first recorded time after which the state stays
    within eps of x_e (inf when it never settles); input_tv is the summed
    1-norm of input increments; w_monotone_violation is the largest positive
    inter-sample jump of W. A run stopped before its first sample (its
    status says why) has nan for every summary."""
    if traj.n_samples == 0:
        nan = math.nan
        return Metrics(nan, nan, nan, nan, nan, eps)
    dist = np.linalg.norm(traj.states - as_vector(eq.x_e)[None, :], axis=1)
    outside = np.where(dist > eps)[0]
    if outside.size == 0:
        conv_t = 0.0
    elif outside[-1] == traj.n_samples - 1:
        conv_t = math.inf
    else:
        conv_t = float(traj.times[outside[-1] + 1])
    input_tv = float(np.abs(np.diff(traj.inputs, axis=0)).sum()) if traj.n_samples > 1 else 0.0
    dw = np.diff(traj.w_values) if traj.n_samples > 1 else np.zeros(0)
    w_viol = float(max(0.0, dw.max(initial=0.0)))
    return Metrics(
        convergence_time=conv_t,
        min_h=float(traj.h_values.min()),
        input_tv=input_tv,
        w_monotone_violation=w_viol,
        final_distance=float(dist[-1]),
        eps=eps,
    )


def csv_header(n: int, m: int, k: int) -> List[str]:
    cols = ["t"]
    cols += [f"x_{i+1}" for i in range(n)]
    cols += [f"u_{j+1}" for j in range(m)]
    cols += ["W"]
    cols += [f"h_{i+1}" for i in range(k)]
    cols += ["region"]
    cols += [f"active_{i+1}" for i in range(k)]
    return cols


def write_trajectory_csv(traj: Trajectory, path) -> None:
    n = traj.states.shape[1]
    m = traj.inputs.shape[1]
    k = traj.h_values.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_header(n, m, k))
        for i in range(traj.n_samples):
            row = [repr(float(traj.times[i]))]
            row += [repr(float(v)) for v in traj.states[i]]
            row += [repr(float(v)) for v in traj.inputs[i]]
            row.append(repr(float(traj.w_values[i])))
            row += [repr(float(v)) for v in traj.h_values[i]]
            row.append(str(int(traj.regions[i])))
            row += [str(int(v)) for v in traj.active[i]]
            writer.writerow(row)


def read_trajectory_csv(path) -> Trajectory:
    """Read a trajectory CSV back (switch events are not serialized)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SimulationError(f"{path}: empty CSV")
        rows = [r for r in reader]
    n = sum(1 for c in header if c.startswith("x_"))
    m = sum(1 for c in header if c.startswith("u_"))
    k = sum(1 for c in header if c.startswith("h_"))
    if header != csv_header(n, m, k):
        raise SimulationError(f"{path}: header does not match the trajectory schema")
    if not rows:
        raise SimulationError(f"{path}: no data rows")
    data = np.array([[float(v) for v in r] for r in rows])
    idx = 1
    states = data[:, idx:idx + n]; idx += n
    inputs = data[:, idx:idx + m]; idx += m
    w_values = data[:, idx]; idx += 1
    h_values = data[:, idx:idx + k]; idx += k
    regions = data[:, idx].astype(int); idx += 1
    active = data[:, idx:idx + k].astype(int)
    return Trajectory(times=data[:, 0], states=states, inputs=inputs,
                      regions=regions, w_values=w_values, h_values=h_values,
                      active=active)
