"""Closed-loop integration (fixed-step classical RK4, input held over each
step), trajectory logging with region/switch bookkeeping, and scalar metrics.

integrate carries the state as Python floats between its RK4 steps (rk4_of,
whose stages call the system's float form fg and sum f + g u as
core.affine_row does) and writes each record, W included, from the floats
of the step's evaluation as scalar stores into arrays allocated for the
run. first_unsafe reads the records after a run.

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
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import _def, affine_row, array_of, as_vector
from .errors import IndefiniteQPError, InfeasibleQPError, QPIterationError, SimulationError
# cbf_rows and classify_region are unused here but stay bound: the
# benchmark's tracer (bench/instrument.py) wraps them in this module
from .filters import (Evaluation, FilterConfig, _flags, active_flags, cbf_rows,  # noqa: F401
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
def rk4_of(n: int, m: int) -> Callable:
    """sys, xs, us, dt, fg -> one classical RK4 step of x' = f(x) + g(x) u on
    n floats with the m floats us held: the stages written out on sys.fg,
    each derivative summed as core.affine_row sums it (the bits of
    sys.xdot), in the operation order of the numpy form x + 0.5*dt*k1, ...,
    x + (dt/6)*(k1 + 2*k2 + 2*k3 + k4), so that the result equals it bit
    for bit. k1 is formed from fg (sys.fg at x, an Evaluation's fg) when it
    is given, else from sys.fg(xs), like k2..k4; sys.fg is read at every
    call, so that an assigned f or g reaches the stages."""
    def rates(k):
        return [f"{k}{i} = {affine_row(i, m)}" for i in range(n)]

    def at(k, step):   # f and G at x + step * k
        return f"f, G = form([{', '.join(f'x[{i}] + {step} * {k}{i}' for i in range(n))}])"

    sixth = ", ".join(f"x[{i}] + sixth * (((a{i} + 2.0 * b{i}) + 2.0 * c{i}) + d{i})"
                      for i in range(n))
    return _def("sys, x, u, dt, fg",
                ["half = 0.5 * dt", "form = sys.fg", "f, G = form(x) if fg is None else fg"]
                + rates("a") + [at("a", "half")] + rates("b") + [at("b", "half")] + rates("c")
                + [at("c", "dt")] + rates("d") + ["sixth = dt / 6.0"], f"[{sixth}]")


def rk4_step(sys, x: np.ndarray, u: np.ndarray, dt: float, fg=None) -> np.ndarray:
    """One classical RK4 step of x' = f(x) + g(x) u with u held: rk4_of on
    the floats of x and u, the result as an array. fg, when given, is
    sys.fg at x (an Evaluation's fg), from which k1 is formed without
    calling sys.fg again. u must have sys.m entries (integrate checks it)."""
    return np.array(rk4_of(x.size, sys.m)(sys, x.tolist(), u.tolist(), dt, fg))


@lru_cache(maxsize=None)
def _within_of(n: int) -> Callable:
    """xs -> whether |x_i| <= BLOWUP_LIMIT for each of the n floats; the
    comparison is false for NaN, so NaN and +-inf both fail it."""
    return eval(f"lambda x: {' and '.join(f'abs(x[{i}]) <= {BLOWUP_LIMIT!r}' for i in range(n))}")


@lru_cache(maxsize=None)
def _recorder_of(n: int, m: int, k: int) -> Callable:
    """T, S, U, R, W, H, A, L, the flat views of integrate's record arrays ->
    record(rec, t, xs, us, region, ev), which writes record rec as scalar
    stores: t, the n floats of x, the m of u, the region, ev's W, its k
    barrier values, its k rows A_i of m floats and their bounds lb_i."""
    def stores(view, values):   # into a view of len(values) entries a record
        return [f"o = {len(values)} * rec"] + [f"{view}[o + {c}] = {v}"
                                                for c, v in enumerate(values)]

    body = (["T[rec] = t", "R[rec] = region", "W[rec] = ev.w",
             "hs, As, lbs = ev.hs, ev.As, ev.lbs"]
            + stores("S", [f"x[{i}]" for i in range(n)])
            + stores("U", [f"u[{j}]" for j in range(m)])
            + stores("H", [f"hs[{i}]" for i in range(k)])
            + stores("A", [f"As[{i}][{j}]" for i in range(k) for j in range(m)])
            + stores("L", [f"lbs[{i}]" for i in range(k)]))
    return _def("T, S, U, R, W, H, A, L",
                ["def record(rec, t, x, u, region, ev):"] + [f"    {line}" for line in body],
                "record")


def integrate(cfg: FilterConfig,
              controller: Callable[[np.ndarray], Tuple[np.ndarray, Evaluation]],
              simcfg: SimConfig) -> Trajectory:
    """Run the closed loop from simcfg.x0, re-evaluating the controller at the
    start of every step and holding its input through the RK4 stages.

    The initial state must lie in the safe set (SafeSet.contains, which a
    NaN barrier value fails), and the records of the run must fit in memory
    (else SimulationError naming t_final, dt, the record count and
    record_every). Non-finite states, states beyond the blow-up
    guard, controller infeasibility, a controller QP that exceeds its
    iteration budget and a QP cost that is not positive definite (the
    Sontag-weighted cost 2bb' with m >= 2 and a large |b|) truncate the run
    with a status and a diagnostic naming t, x and the filter instead of
    raising. A controller input whose shape is not (m,) raises ValueError
    naming the step.

    A step runs the controller call, rk4_of's stages and scalar stores.
    The state is carried as Python floats from one step to the next, and
    the controller gets it as one array a step. The controller maps x to
    (u, ev) as make_controller's do; the region is read from ev.margin
    (R1 iff it is >= 0, as ev.region), the logged W, barrier values and rows
    are the floats of ev, and when ev.x is x itself, the first RK4 stage
    takes f(x) and g(x) from ev.fg. Every record_every-th step and the last
    one are written by _recorder_of's stores through flat views of arrays
    allocated for the run (trimmed by a copy when it stops early), and
    after the loop the activation flags of all of them come from one
    stacked pass. Its sums are the one-state body's explicit sums on
    columns, so it gives the bits the per-step calls would give, whatever
    BLAS kernel the CPU gets; the QP solves inside the controller are
    explicit sums too. A switch event computes the flags of its two steps
    from their evaluations' floats (filters._flags)."""
    sys = cfg.sys
    n, m, k = sys.n, sys.m, len(cfg.safe_set.barriers)
    x = as_vector(simcfg.x0, n)
    if not cfg.safe_set.contains(x):
        raise SimulationError(f"x0 outside the safe set: min h = {cfg.safe_set.min_value(x)}")
    dt, every = simcfg.dt, simcfg.record_every
    n_rec = simcfg.t_final / dt / every   # for the message, until the count is known
    try:
        n_steps = int(round(simcfg.t_final / dt))
        n_rec = n_steps // every + 1 + (n_steps % every != 0)
        arrays = (np.empty(n_rec), np.empty((n_rec, n)), np.empty((n_rec, m)),
                  np.empty(n_rec, dtype=int), np.empty(n_rec), np.empty((n_rec, k)),
                  np.empty((n_rec, k, m)), np.empty((n_rec, k)))
    except (OverflowError, ValueError, MemoryError) as exc:
        raise SimulationError(
            f"cannot allocate {n_rec:.6g} records for t_final={simcfg.t_final!r}, dt={dt!r}, "
            f"record_every={every} ({type(exc).__name__}: {exc}); a larger dt or "
            f"record_every (--record-every) makes fewer") from None
    record = _recorder_of(n, m, k)(*(memoryview(a).cast("B").cast(a.dtype.char)
                                     for a in arrays))
    rec = 0
    events: List[SwitchEvent] = []
    status = STATUS_OK
    diagnostic = ""
    prev_region = prev_u = prev_ev = None
    rk4, within, shape, xs = rk4_of(n, m), _within_of(n), (m,), x.tolist()

    for step in range(n_steps + 1):
        t = step * dt
        x = np.array(xs, float)
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
        if u.shape != shape:
            raise ValueError(f"controller input at step {step} (t={t}) has shape "
                             f"{u.shape}, expected ({m},)")
        us = u.tolist()
        region = 0 if ev.margin >= 0.0 else 1   # Region.R1 or R2, as ev.region
        if prev_region is not None and region != prev_region:
            pair = ((prev_ev, prev_u), (ev, u))
            flags = [array_of(e.x, _flags(e.As, e.lbs, v.tolist())) for e, v in pair]
            events.append(SwitchEvent(t, prev_region, region, prev_u, u, *flags))
        prev_region, prev_u, prev_ev = region, u, ev

        if step % every == 0 or step == n_steps:
            record(rec, t, xs, us, region, ev)
            rec += 1

        if step == n_steps:
            break
        # ev.fg holds f and g at x when the controller evaluated x itself
        xs = rk4(sys, xs, us, dt, ev.fg if ev.x is x else None)
        if not within(xs):
            status = STATUS_BLOWUP
            diagnostic = f"state blew up at t={t + dt}"
            break

    if rec < n_rec:   # copies, so that a short run keeps no full-size buffer
        arrays = tuple(a[:rec].copy() for a in arrays)
    times, states, inputs, regions, w_values, h_values, rows_A, rows_lb = arrays
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


# the least barrier value below -UNSAFE_TOL counts as unsafe, as acceptance
# criteria 5 and 7 count it
UNSAFE_TOL = 1e-6


def first_unsafe(traj: Trajectory, safe_set, dt: float) -> Optional[dict]:
    """The first recorded sample whose least barrier value is below
    -UNSAFE_TOL, as {step, t, x, barrier, h}: its step (t / dt), time and
    state, and the name and value of its least barrier; None when there is
    none. A sample whose least value is NaN is not counted (the compare
    is false), as the criteria's test of min_h does not count it."""
    below = np.flatnonzero(traj.h_values.min(axis=1) < -UNSAFE_TOL)
    if below.size == 0:
        return None
    i = int(below[0])
    j = int(np.argmin(traj.h_values[i]))
    h = float(traj.h_values[i, j])
    return {"step": int(round(traj.times[i] / dt)), "t": float(traj.times[i]),
            "x": traj.states[i].tolist(), "barrier": safe_set.barriers[j].name,
            "h": h if math.isfinite(h) else None}


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
    """Write the trajectory in the CSV schema of this module, with the bytes
    csv.writer gives: floats as their shortest round-trip repr, region and
    flags as integers, no field quoted, rows ended by CRLF. Float and
    integer columns each become Python numbers in one tolist call, and each
    row is one %-format of a template for its width, streamed by one
    writelines call."""
    n, m, k = traj.states.shape[1], traj.inputs.shape[1], traj.h_values.shape[1]
    floats = np.column_stack([traj.times, traj.states, traj.inputs, traj.w_values,
                              traj.h_values]).astype(float, copy=False).tolist()
    ints = np.column_stack([traj.regions, traj.active]).astype(int, copy=False).tolist()
    row = ",".join(["%r"] * (n + m + k + 2) + ["%d"] * (k + 1)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(csv_header(n, m, k)) + "\r\n")
        fh.writelines(row % (*a, *b) for a, b in zip(floats, ints))


_FLAG_VALUES = frozenset((0.0, 1.0))


def read_trajectory_csv(path) -> Trajectory:
    """Read a trajectory CSV back (switch events are not serialized). A
    header without rows, as a run stopped before its first sample writes,
    gives the 0-sample Trajectory with the shapes and dtypes integrate
    gives."""
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
