"""Closed-loop integration (fixed-step classical RK4, input held over each
step), trajectory logging with region/switch bookkeeping, and scalar metrics.

integrate carries the state as Python floats between its RK4 steps (rk4_of)
and writes each record, W included, from the floats of the step's evaluation.

CSV schema (column order is part of the contract):
    t, x_1..x_n, u_1..u_m, W, h_1..h_k, region, active_1..active_k
with region 0 = R1 and 1 = R2, activation flags 0/1, and full double
precision values (shortest round-trip representation).
"""
from __future__ import annotations

import csv
import math
import numbers
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Tuple

import numpy as np

from .core import _def, as_vector
from .errors import IndefiniteQPError, InfeasibleQPError, QPIterationError, SimulationError
# cbf_rows and classify_region are unused here but stay bound: the
# benchmark's tracer (bench/instrument.py) wraps them in this module
from .filters import (Evaluation, FilterConfig, active_flags, cbf_rows,  # noqa: F401
                      classify_region)

BLOWUP_LIMIT = 1e6

STATUS_OK = "ok"
STATUS_BLOWUP = "blowup"
STATUS_INFEASIBLE = "infeasible"
STATUS_QP_ITERATION = "qp_iteration"
STATUS_QP_INDEFINITE = "qp_indefinite"


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
        # an integer: integrate sizes its records by it
        if not isinstance(self.record_every, numbers.Integral) or self.record_every < 1:
            raise SimulationError(f"record_every must be an integer >= 1, got {self.record_every!r}")
        self.record_every = int(self.record_every)


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


@lru_cache(maxsize=None)
def rk4_of(n: int) -> Callable:
    """sys, xs, us, dt, fg -> one classical RK4 step of x' = sys.rhs(x, u)
    on n floats with us held: the stages written out in the operation order
    of the numpy form x + 0.5*dt*k1, ..., x + (dt/6)*(k1 + 2*k2 + 2*k3 + k4),
    so that the result equals it bit for bit. k1 is sys.rhs_from(*fg, us)
    when fg (sys.fg at x) is given, else sys.rhs(xs, us), like k2..k4; both
    are read from sys at every call."""
    def stage(k, step):
        return f"[{', '.join(f'x[{i}] + {step} * {k}[{i}]' for i in range(n))}]"

    sixth = ", ".join(f"x[{i}] + sixth * (((a[{i}] + 2.0 * b[{i}]) + 2.0 * c[{i}]) + d[{i}])"
                      for i in range(n))
    return _def("sys, x, u, dt, fg",
                ["half = 0.5 * dt",
                 "a = sys.rhs(x, u) if fg is None else sys.rhs_from(*fg, u)",
                 f"b = sys.rhs({stage('a', 'half')}, u)", f"c = sys.rhs({stage('b', 'half')}, u)",
                 f"d = sys.rhs({stage('c', 'dt')}, u)", "sixth = dt / 6.0"], f"[{sixth}]")


def rk4_step(sys, x: np.ndarray, u: np.ndarray, dt: float, fg=None) -> np.ndarray:
    """One classical RK4 step of x' = sys.rhs(x, u) with u held: rk4_of(n)
    on the floats of x and u, the result as an array. fg, when given, is
    sys.fg at x (an Evaluation's fg), from which k1 is formed without
    calling rhs. u must have sys.m entries (integrate checks it)."""
    return np.array(rk4_of(x.size)(sys, x.tolist(), u.tolist(), dt, fg))


def integrate(cfg: FilterConfig,
              controller: Callable[[np.ndarray], Tuple[np.ndarray, Evaluation]],
              simcfg: SimConfig) -> Trajectory:
    """Run the closed loop from simcfg.x0, re-evaluating the controller at the
    start of every step and holding its input through the RK4 stages.

    The initial state must lie in the safe set. Non-finite states, states
    beyond the blow-up guard, controller infeasibility, a controller QP that
    exceeds its iteration budget and a QP cost that is not positive definite
    (the Sontag-weighted cost 2bb' with m >= 2 and a large |b|) truncate the
    run with a status and a diagnostic naming t, x and the filter instead of
    raising. A controller input whose shape is not (m,) raises ValueError
    naming the step.

    The state is carried as Python floats from one rk4_of step to the next,
    and the controller gets it as one array a step. The controller maps x to
    (u, ev) as make_controller's do; the logged W, region, barrier values
    and rows come from the floats of the evaluation ev at x, and when ev.x
    is x itself, the first RK4 stage takes f(x) and g(x) from ev.fg. Every
    record_every-th step and the last one are written from floats into
    arrays allocated for the run (trimmed when it stops early), and after
    the loop the activation flags of all of them come from one stacked
    pass. Its sums are the one-state body's explicit sums on columns, so it
    gives the bits the per-step calls would give, whatever BLAS kernel the
    CPU gets; the QP solves inside the controller are explicit sums too. A
    switch event computes the flags of its two steps one state at a time."""
    sys = cfg.sys
    x = as_vector(simcfg.x0, sys.n)
    if cfg.safe_set.min_value(x) < 0.0:
        raise SimulationError(f"x0 outside the safe set: min h = {cfg.safe_set.min_value(x)}")
    dt, every = simcfg.dt, simcfg.record_every
    n_steps = int(round(simcfg.t_final / dt))
    k = len(cfg.safe_set.barriers)
    n_rec = n_steps // every + 1 + (n_steps % every != 0)
    times = np.empty(n_rec)
    states = np.empty((n_rec, sys.n))
    inputs = np.empty((n_rec, sys.m))
    regions = np.empty(n_rec, dtype=int)
    w_values = np.empty(n_rec)
    h_values = np.empty((n_rec, k))
    rows_A = np.empty((n_rec, k, sys.m))
    rows_lb = np.empty((n_rec, k))
    rec = 0
    events: List[SwitchEvent] = []
    status = STATUS_OK
    diagnostic = ""
    prev_region = prev_u = prev_ev = None
    rk4, xs = rk4_of(sys.n), x.tolist()

    for step in range(n_steps + 1):
        t = step * dt
        x = np.array(xs)
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
        except IndefiniteQPError as exc:
            status = STATUS_QP_INDEFINITE
            diagnostic = f"controller QP cost not positive definite at t={t}: {exc}"
            break
        u = np.asarray(u, dtype=float)
        if u.shape != (sys.m,):
            raise ValueError(f"controller input at step {step} (t={t}) has shape "
                             f"{u.shape}, expected ({sys.m},)")
        region = int(ev.label.value)
        if prev_region is not None and region != prev_region:
            events.append(SwitchEvent(t, prev_region, region, prev_u, u,
                                      active_flags(prev_ev.A, prev_ev.lb, prev_u),
                                      active_flags(ev.A, ev.lb, u)))
        prev_region, prev_u, prev_ev = region, u, ev

        if step % every == 0 or step == n_steps:
            times[rec] = t
            states[rec] = xs
            inputs[rec] = u
            regions[rec] = region
            w_values[rec] = ev.w
            h_values[rec] = ev.hs
            rows_A[rec] = ev.As
            rows_lb[rec] = ev.lbs
            rec += 1

        if step == n_steps:
            break
        # ev.fg holds f and g at x when the controller evaluated x itself
        xs = rk4(sys, xs, u.tolist(), dt, ev.fg if ev.x is x else None)
        # the comparison is false for nan, so nan and inf both stop the run
        if not all(abs(v) <= BLOWUP_LIMIT for v in xs):
            status = STATUS_BLOWUP
            diagnostic = f"state blew up at t={t + dt}"
            break

    if rec < n_rec:   # copies, so that a short run keeps no full-size buffer
        times, states, inputs, regions, w_values, h_values, rows_A, rows_lb = (
            a[:rec].copy() for a in (times, states, inputs, regions, w_values, h_values,
                                     rows_A, rows_lb))
    return Trajectory(
        times=times,
        states=states,
        inputs=inputs,
        regions=regions,
        w_values=w_values,
        h_values=h_values,
        active=active_flags(rows_A, rows_lb, inputs).astype(int),
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
    """Write the trajectory in the CSV schema of this module: floats as their
    shortest round-trip repr, region and flags as integers. The float and
    the integer columns each become Python numbers in one tolist call."""
    n = traj.states.shape[1]
    m = traj.inputs.shape[1]
    k = traj.h_values.shape[1]
    floats = np.column_stack([traj.times, traj.states, traj.inputs, traj.w_values,
                              traj.h_values]).astype(float, copy=False).tolist()
    ints = np.column_stack([traj.regions, traj.active]).astype(int, copy=False).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_header(n, m, k))
        writer.writerows([a + b for a, b in zip(floats, ints)])


_FLAG_VALUES = frozenset((0.0, 1.0))


def read_trajectory_csv(path) -> Trajectory:
    """Read a trajectory CSV back (switch events are not serialized)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SimulationError(f"{path}: empty CSV")
        n = sum(1 for c in header if c.startswith("x_"))
        m = sum(1 for c in header if c.startswith("u_"))
        k = sum(1 for c in header if c.startswith("h_"))
        if header != csv_header(n, m, k):
            raise SimulationError(f"{path}: header does not match the trajectory schema")
        # the parsed fields, row after row, as doubles: a list of rows of
        # Python floats would take about five times the memory
        values = array("d")
        flags = 1 + n + m + 1 + k   # the first of region, active_1, ..., active_k
        for r in reader:
            if len(r) != len(header):
                raise SimulationError(f"{path}: line {reader.line_num}: {len(r)} fields, "
                                      f"expected {len(header)}")
            try:
                row = [float(v) for v in r]
            except ValueError as exc:
                raise SimulationError(f"{path}: line {reader.line_num}: {exc}") from None
            # region and the activation flags are 0 or 1; anything else (a
            # NaN, a fraction) has no integer reading
            if not _FLAG_VALUES.issuperset(row[flags:]):
                c = next(c for c in range(flags, len(row)) if row[c] not in _FLAG_VALUES)
                raise SimulationError(f"{path}: line {reader.line_num}: column {header[c]} is "
                                      f"{row[c]!r}, expected 0 or 1")
            values.extend(row)
    if not values:
        raise SimulationError(f"{path}: no data rows")
    data = np.frombuffer(values, dtype=float).reshape(-1, len(header))
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
