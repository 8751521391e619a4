import csv
import math

import numpy as np
import pytest

import safestab.filters
from safestab import (Barrier, ControlAffineSystem, EquilibriumPair, IndefiniteQPError,
                      InfeasibleQPError, QPIterationError, QuadraticCLF, SafeSet,
                      SimConfig, SimulationError, build_scenario, compute_metrics,
                      evaluate, integrate, read_trajectory_csv, write_trajectory_csv)
from safestab.core import array_of, as_vector
from safestab.filters import (CONTROLLER_NAMES, Region, active_flags, make_controller,
                              make_filter_config)
from safestab.qp import QPSpec
from safestab.sim import (BLOWUP_LIMIT, STATUS_BLOWUP, STATUS_INFEASIBLE, STATUS_OK,
                          STATUS_QP_INDEFINITE, STATUS_QP_ITERATION, SwitchEvent,
                          Trajectory, csv_header, rk4_of, rk4_step)


def flat_config(n=2, m=1, f=None, g=None):
    f = f or (lambda x: np.zeros(n))
    g = g or (lambda x: np.zeros((n, m)))
    sys = ControlAffineSystem(n=n, m=m, f=f, g=g, name="synthetic")
    eq = EquilibriumPair(np.zeros(n), np.zeros(m))
    clf = QuadraticCLF(np.eye(n), eq)
    bar = Barrier(h=lambda x: 1.0, alpha=1.0,
                  grad_h=lambda x: np.zeros(n), name="always")
    return make_filter_config(sys, clf, SafeSet((bar,)))


def zero_controller(cfg):
    """Open loop: u = 0, with the evaluation the simulator logs."""
    return lambda x: (np.zeros(cfg.sys.m), evaluate(cfg, x))


def test_zero_fields_give_constant_trajectory():
    cfg = flat_config()
    traj = integrate(cfg, zero_controller(cfg), SimConfig(x0=[0.4, -0.7], t_final=1.0, dt=1e-2))
    assert traj.status == "ok"
    assert np.abs(traj.states - np.array([0.4, -0.7])).max() == 0.0


def test_rk4_matches_cosh_sinh_solution(linear_cfg):
    # with u = 0 the flow from (1, 0) is (cosh t, -sinh t)
    traj = integrate(linear_cfg, zero_controller(linear_cfg),
                     SimConfig(x0=[1.0, 0.0], t_final=1.0, dt=1e-3))
    t = traj.times[-1]
    exact = np.array([math.cosh(t), -math.sinh(t)])
    assert np.abs(traj.states[-1] - exact).max() <= 1e-8


def test_rk4_step_halving_changes_little(linear_cfg, linear):
    # open loop isolates the integrator order; the per-step controller hold
    # intentionally adds O(dt) differences (see the tolerance notes in sim)
    x0 = np.asarray(linear.defaults["x0"])
    final = {}
    for dt in (1e-3, 5e-4):
        traj = integrate(linear_cfg, zero_controller(linear_cfg),
                         SimConfig(x0=x0, t_final=1.0, dt=dt))
        final[dt] = traj.states[-1]
    assert np.abs(final[1e-3] - final[5e-4]).max() <= 1e-6


def test_tumor_hybrid_near_equilibrium(tumor_cfg, tumor):
    x0 = tumor.eq.x_e + np.array([0.8, -0.5, 0.3])
    ctrl = make_controller(tumor_cfg, "hybrid")
    traj = integrate(tumor_cfg, ctrl, SimConfig(x0=x0, t_final=15.0, dt=1e-3))
    m = compute_metrics(traj, tumor.eq, eps=1e-2)
    assert traj.status == "ok"
    assert m.min_h >= 0.0
    assert m.final_distance <= 1e-2


def test_initial_state_outside_safe_set_rejected(linear_cfg):
    with pytest.raises(SimulationError):
        integrate(linear_cfg, zero_controller(linear_cfg), SimConfig(x0=[4.0, 4.0], t_final=1.0))


def test_blowup_truncates_with_diagnostic():
    cfg = flat_config(n=1, f=lambda x: np.array([x[0] ** 2]),
                      g=lambda x: np.zeros((1, 1)))
    traj = integrate(cfg, zero_controller(cfg), SimConfig(x0=[3.0], t_final=10.0, dt=1e-2))
    assert traj.status == "blowup"
    assert "blew up" in traj.diagnostic
    assert traj.n_samples > 0


@pytest.mark.parametrize("n, bad_axis, bad_value", [
    (1, 0, math.nan), (2, 1, math.nan), (1, 0, math.inf), (2, 0, -math.inf)])
def test_blowup_on_non_finite_drift(n, bad_axis, bad_value):
    # the drift is 1 on every axis until x_1 passes 1.03, then one axis turns
    # non-finite; a NaN after a finite entry is what an order-dependent max misses
    def f(x):
        out = np.ones(n)
        if not x[0] < 1.03:
            out[bad_axis] = bad_value
        return out

    cfg = flat_config(n=n, f=f, g=lambda x: np.zeros((n, 1)))
    traj = integrate(cfg, zero_controller(cfg),
                     SimConfig(x0=np.ones(n), t_final=1.0, dt=1e-2))
    assert traj.status == "blowup"
    assert traj.diagnostic == "state blew up at t=0.03"
    assert traj.n_samples == 3
    assert np.all(np.isfinite(traj.states))


@pytest.mark.parametrize("bad_u", [np.zeros(2), np.zeros((1, 1)), np.float64(0.0)])
def test_controller_input_of_wrong_shape_raises(linear_cfg, bad_u):
    calls = [0]

    def wrong_from_step_3(x):
        calls[0] += 1
        u = np.zeros(1) if calls[0] <= 3 else bad_u
        return u, evaluate(linear_cfg, x)

    with pytest.raises(ValueError, match=r"step 3 .* shape \(.*\), expected \(1,\)"):
        integrate(linear_cfg, wrong_from_step_3,
                  SimConfig(x0=[0.5, -0.5], t_final=0.1, dt=1e-2))


def test_infeasible_controller_truncates(tumor_cfg):
    ctrl = make_controller(tumor_cfg, "cbf-qp")
    traj = integrate(tumor_cfg, ctrl,
                     SimConfig(x0=[9.5, 0.5, 0.5], t_final=1.0, dt=1e-3))
    assert traj.status == "infeasible"
    assert traj.n_samples == 0


def test_qp_iteration_error_truncates_with_diagnostic():
    cfg = flat_config()
    calls = [0]

    def stalls_at_step_5(x):
        calls[0] += 1
        if calls[0] == 6:
            raise QPIterationError("active-set did not converge in 240 iterations")
        return np.zeros(1), evaluate(cfg, x)

    traj = integrate(cfg, stalls_at_step_5, SimConfig(x0=[0.4, -0.7], t_final=1.0, dt=1e-2))
    assert traj.status == "qp_iteration"
    assert traj.n_samples == 5
    assert "t=0.05" in traj.diagnostic
    assert "x=[0.4, -0.7]" in traj.diagnostic
    assert "240 iterations" in traj.diagnostic


def test_record_every_decimates_but_keeps_last(linear_cfg):
    simcfg = SimConfig(x0=[0.5, -0.5], t_final=0.1, dt=1e-3, record_every=7)
    traj = integrate(linear_cfg, make_controller(linear_cfg, "sontag"), simcfg)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.1)
    assert traj.n_samples == math.ceil(101 / 7) + 1


def test_metrics_constant_trajectory_at_equilibrium():
    cfg = flat_config()
    traj = integrate(cfg, zero_controller(cfg), SimConfig(x0=[0.0, 0.0], t_final=0.5, dt=1e-2))
    m = compute_metrics(traj, cfg.clf.equilibrium, eps=0.1)
    assert m.convergence_time == 0.0
    assert m.input_tv == 0.0
    assert m.w_monotone_violation == 0.0


def test_metrics_convergence_sentinel():
    cfg = flat_config()
    traj = integrate(cfg, zero_controller(cfg), SimConfig(x0=[2.0, 0.0], t_final=0.5, dt=1e-2))
    m = compute_metrics(traj, cfg.clf.equilibrium, eps=0.1)
    assert m.convergence_time == math.inf


def test_metrics_convergence_time_is_entry_into_ball(linear_cfg, linear):
    ctrl = make_controller(linear_cfg, "hybrid")
    traj = integrate(linear_cfg, ctrl, SimConfig(x0=[1.0, -0.8], t_final=8.0, dt=1e-3))
    m = compute_metrics(traj, linear.eq, eps=0.1)
    assert math.isfinite(m.convergence_time)
    dist = np.linalg.norm(traj.states - linear.eq.x_e, axis=1)
    idx = np.searchsorted(traj.times, m.convergence_time)
    assert np.all(dist[idx:] <= 0.1)
    assert dist[idx - 1] > 0.1


def test_switch_events_recorded_with_flags(linear_cfg, linear):
    ctrl = make_controller(linear_cfg, "hybrid")
    traj = integrate(linear_cfg, ctrl,
                     SimConfig(x0=np.asarray(linear.defaults["x0"]), t_final=10.0, dt=1e-3))
    assert traj.status == "ok"
    assert len(traj.switch_events) >= 1
    for ev in traj.switch_events:
        assert ev.from_region != ev.to_region
        assert ev.u_before.shape == ev.u_after.shape
        assert ev.flags_before.shape == ev.flags_after.shape


def test_csv_round_trip_bitwise(tmp_path, linear_cfg):
    ctrl = make_controller(linear_cfg, "hybrid")
    traj = integrate(linear_cfg, ctrl, SimConfig(x0=[1.2, -0.9], t_final=0.5, dt=1e-3))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    assert back.times.tobytes() == traj.times.tobytes()
    assert back.states.tobytes() == traj.states.tobytes()
    assert back.inputs.tobytes() == traj.inputs.tobytes()
    assert back.w_values.tobytes() == traj.w_values.tobytes()
    assert back.h_values.tobytes() == traj.h_values.tobytes()
    assert np.all(back.regions == traj.regions)
    assert np.all(back.active == traj.active)


def test_csv_round_trip_of_a_run_stopped_at_its_first_step(tmp_path, tumor_cfg):
    # the CBF-QP is infeasible at this start: a header-only CSV reads back
    # as the 0-sample trajectory integrate returned, shapes and dtypes too
    traj = integrate(tumor_cfg, make_controller(tumor_cfg, "cbf-qp"),
                     SimConfig(x0=[9.5, 0.5, 0.5], t_final=0.1))
    assert traj.status == "infeasible" and traj.n_samples == 0
    path = tmp_path / "stopped.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    for name in ("times", "states", "inputs", "regions", "w_values", "h_values", "active"):
        got, want = getattr(back, name), getattr(traj, name)
        assert (got.shape, got.dtype) == (want.shape, want.dtype), name


def test_csv_schema_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(SimulationError):
        read_trajectory_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SimulationError):
        read_trajectory_csv(empty)
    # a ragged row and a field that is not a number name the file and line
    header = ",".join(csv_header(2, 1, 1))
    row = ",".join(["0.0"] * len(csv_header(2, 1, 1)))
    for name, line in (("ragged", "0.0,1.0"), ("word", row.replace("0.0", "abc", 1))):
        path = tmp_path / f"{name}.csv"
        path.write_text(f"{header}\n{row}\n{line}\n")
        with pytest.raises(SimulationError, match=rf"{name}\.csv: line 3: "):
            read_trajectory_csv(path)
    # region and active_* are 0 or 1: a NaN, a fraction or a 2 names the
    # file, the line and the column instead of casting to an integer
    cols = csv_header(2, 1, 1)
    for column, value in (("region", "nan"), ("region", "2.0"), ("active_1", "0.5"),
                          ("active_1", "-1.0")):
        fields = ["0.0"] * len(cols)
        fields[cols.index(column)] = value
        path = tmp_path / "flags.csv"
        path.write_text(f"{header}\n{row}\n{','.join(fields)}\n")
        with pytest.raises(SimulationError,
                           match=rf"flags\.csv: line 3: column {column} is .*expected 0 or 1"):
            read_trajectory_csv(path)
    ones = ",".join("1.0" if c in ("t", "region", "active_1") else "0.0" for c in cols)
    path.write_text(f"{header}\n{row}\n{ones}\n")
    traj = read_trajectory_csv(path)
    assert traj.regions.tolist() == [0, 1] and traj.active.tolist() == [[0], [1]]


def test_simconfig_validation():
    with pytest.raises(SimulationError):
        SimConfig(x0=[0.0], t_final=1.0, dt=0.0)
    with pytest.raises(SimulationError):
        SimConfig(x0=[0.0], t_final=-1.0)
    with pytest.raises(SimulationError):
        SimConfig(x0=[0.0], t_final=1.0, record_every=0)
    for bad in (2.5, 2.0, "2", None, math.nan):
        with pytest.raises(SimulationError, match="record_every"):
            SimConfig(x0=[0.0], t_final=1.0, record_every=bad)
    assert SimConfig(x0=[0.0], t_final=1.0, record_every=np.int64(3)).record_every == 3
    for bad in (math.inf, math.nan):
        with pytest.raises(SimulationError, match="dt"):
            SimConfig(x0=[0.0], t_final=1.0, dt=bad)
        with pytest.raises(SimulationError, match="t_final"):
            SimConfig(x0=[0.0], t_final=bad)
        with pytest.raises(SimulationError, match="x0"):
            SimConfig(x0=[0.0, bad], t_final=1.0)


def explicit_rhs(sys, x, u):
    """f(x) + g(x) u from the numpy f and g, row i summed from +0.0 left to
    right: f_i + (0.0 + g_i1 u_1 + ... + g_im u_m)."""
    f, G = sys.f(x), sys.g(x)
    rows = []
    for i in range(sys.n):
        s = 0.0
        for j in range(sys.m):
            s = s + G[i, j] * u[j]
        rows.append(f[i] + s)
    return np.array(rows, dtype=float)


def rk4_oracle(sys, x, u, dt):
    """The numpy RK4 step that rk4_step's float stages replaced, its stage
    derivatives summed as explicit_rhs does; they must equal it bit for bit,
    with k1 from sys.fg or from the float form fg that an evaluation holds
    (assert_rk4_matches_oracle)."""
    k1 = explicit_rhs(sys, x, u)
    y = x + 0.5 * dt * k1
    k2 = explicit_rhs(sys, y, u)
    y = x + 0.5 * dt * k2
    k3 = explicit_rhs(sys, y, u)
    y = x + dt * k3
    k4 = explicit_rhs(sys, y, u)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def assert_rk4_matches_oracle(sys, x, u, dt):
    want = rk4_oracle(sys, x, u, dt).tobytes()
    assert rk4_step(sys, x, u, dt).tobytes() == want, (x, u, dt)
    assert rk4_step(sys, x, u, dt, sys.fg(x.tolist())).tobytes() == want, (x, u, dt)


def rk4_draws(bundle, count, seed):
    """(x, u, dt) draws: x from the domain or within 1e-12..1e-1 of 0 (either
    sign), u = 0, u_e or +-10^[-3, 5], dt in {1e-4, 1e-3, 1e-2}; plus exact
    zero states."""
    rng = np.random.default_rng(seed)
    n, m = bundle.sys.n, bundle.sys.m
    lo, hi = bundle.domain[:, 0], bundle.domain[:, 1]
    draws = [(np.array([z] * n), np.array([v] * m), 1e-3)
             for z in (0.0, -0.0) for v in (0.0, -0.0, 1.0, -1.0)]
    for i in range(count):
        if i % 2:
            x = rng.uniform(lo, hi)
        else:
            x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, -1.0, n)
        kind = i % 7
        if kind == 0:
            u = np.zeros(m)
        elif kind == 1:
            u = bundle.eq.u_e.copy()
        else:
            u = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-3.0, 5.0, m)
        draws.append((x, u, (1e-4, 1e-3, 1e-2)[i % 3]))
    return draws


@pytest.mark.parametrize("name", ["linear2d", "tumor3d"])
def test_rk4_step_equals_numpy_oracle_bitwise(name, linear, tumor):
    bundle = {"linear2d": linear, "tumor3d": tumor}[name]
    for x, u, dt in rk4_draws(bundle, 2400, seed=7):
        assert_rk4_matches_oracle(bundle.sys, x, u, dt)


@pytest.mark.parametrize("name", ["linear2d", "tumor3d"])
def test_bundled_rhs_equals_f_plus_g_u_bitwise(name, linear, tumor):
    bundle = {"linear2d": linear, "tumor3d": tumor}[name]
    sys = bundle.sys
    draws = rk4_draws(bundle, 600, seed=8)
    extra = [(x, np.array([v]), 1e-3) for x, _, _ in draws[:20]
             for v in (math.inf, -math.inf, math.nan)]
    for x, u, _ in draws + extra:
        with np.errstate(invalid="ignore"):   # 0 * inf in the matmul
            want = sys.f(x) + sys.g(x) @ u
        assert sys.xdot(x, u).tobytes() == want.tobytes(), (x, u)


def adapter_2x2_system():
    """n = 2, m = 2 from numpy f and g alone, so that fg is the adapter."""
    return ControlAffineSystem(
        n=2, m=2, f=lambda x: np.array([x[1] * x[0] - x[0], np.sin(x[0]) - x[1] ** 3]),
        g=lambda x: np.array([[1.0 + x[1] ** 2, x[0]], [0.5 * x[1], 2.0 - x[0]]]),
        name="synthetic")


def test_rk4_step_adapter_for_systems_built_from_f_and_g():
    # n = 2, m = 2: g(x) u has two terms a row, summed from +0.0 left to
    # right by the RK4 stages and xdot exactly as in the oracle, never by a
    # BLAS matmul
    sys = adapter_2x2_system()
    rng = np.random.default_rng(9)
    for i in range(2000):
        x = rng.uniform(-3.0, 3.0, 2)
        u = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-3.0, 5.0, 2)
        dt = (1e-4, 1e-3, 1e-2)[i % 3]
        assert rk4_step(sys, x, u, dt).tobytes() == rk4_oracle(sys, x, u, dt).tobytes()
        assert_rk4_matches_oracle(sys, x, u, dt)
        assert sys.xdot(x, u).tobytes() == explicit_rhs(sys, x, u).tobytes()


def test_rk4_step_order():
    # single-step local error of RK4 on x' = x is O(dt^5)
    sys = ControlAffineSystem(n=1, m=1, f=lambda x: x.copy(),
                              g=lambda x: np.zeros((1, 1)), name="exp")
    x0 = np.ones(1)
    errs = []
    for dt in (0.1, 0.05):
        x1 = rk4_step(sys, x0, np.zeros(1), dt)
        errs.append(abs(float(x1[0]) - math.exp(dt)))
    assert errs[1] <= errs[0] / 16.0  # at least 4th order step scaling


def integrate_oracle(cfg, controller, simcfg):
    """The loop that integrate's preallocated records replaced: per-step
    lists, W and the activation flags computed one state at every step, and
    every RK4 step's k1 from sys.fg, where integrate takes it from the
    evaluation's fg. integrate must give the same bits in every field and
    switch event."""
    x = as_vector(simcfg.x0, cfg.sys.n)
    if cfg.safe_set.min_value(x) < 0.0:
        raise SimulationError(f"x0 outside the safe set: min h = {cfg.safe_set.min_value(x)}")
    n_steps = int(round(simcfg.t_final / simcfg.dt))
    times, states, inputs, regions, w_values, h_values, act, events = ([] for _ in range(8))
    status, diagnostic = STATUS_OK, ""
    prev_region = prev_u = prev_flags = None
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
        except IndefiniteQPError as exc:
            status = STATUS_QP_INDEFINITE
            diagnostic = f"controller QP cost not positive definite at t={t}: {exc}"
            break
        u = np.asarray(u, dtype=float)
        if u.shape != (cfg.sys.m,):
            raise ValueError(f"controller input at step {step} (t={t}) has shape "
                             f"{u.shape}, expected ({cfg.sys.m},)")
        flags = active_flags(array_of(ev.x, ev.As), array_of(ev.x, ev.lbs), u)
        region = int(ev.region)
        if prev_region is not None and region != prev_region:
            events.append(SwitchEvent(t, prev_region, region, prev_u, u, prev_flags, flags))
        prev_region, prev_u, prev_flags = region, u, flags
        if step % simcfg.record_every == 0 or step == n_steps:
            times.append(t)
            states.append(x)
            inputs.append(u.copy())
            regions.append(region)
            w_values.append(cfg.clf.value(x))
            h_values.append(array_of(ev.x, ev.hs))
            act.append(flags.astype(int))
        if step == n_steps:
            break
        x = rk4_step(cfg.sys, x, u, simcfg.dt)
        if not all(abs(v) <= BLOWUP_LIMIT for v in x.tolist()):
            status = STATUS_BLOWUP
            diagnostic = f"state blew up at t={t + simcfg.dt}"
            break
    k = len(cfg.safe_set.barriers)
    return Trajectory(
        times=np.array(times), states=np.array(states).reshape(-1, cfg.sys.n),
        inputs=np.array(inputs).reshape(-1, cfg.sys.m),
        regions=np.array(regions, dtype=int), w_values=np.array(w_values),
        h_values=np.array(h_values).reshape(-1, k),
        active=np.array(act, dtype=int).reshape(-1, k),
        switch_events=events, status=status, diagnostic=diagnostic)


def same_array(a, b):
    return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype
            and a.shape == b.shape and a.tobytes() == b.tobytes())


def assert_same_trajectory(got, want):
    for name in ("times", "states", "inputs", "regions", "w_values", "h_values", "active"):
        assert same_array(getattr(got, name), getattr(want, name)), name
    assert (got.status, got.diagnostic) == (want.status, want.diagnostic)
    assert len(got.switch_events) == len(want.switch_events)
    for e, f in zip(got.switch_events, want.switch_events):
        assert (repr(e.t), e.from_region, e.to_region) == (repr(f.t), f.from_region, f.to_region)
        for name in ("u_before", "u_after", "flags_before", "flags_after"):
            assert same_array(getattr(e, name), getattr(f, name)), name


def assert_matches_integrate_oracle(cfg, make_ctrl, simcfg):
    """Run integrate and the oracle, each with a fresh controller from
    make_ctrl(), and compare; returns integrate's trajectory."""
    got = integrate(cfg, make_ctrl(), simcfg)
    assert_same_trajectory(got, integrate_oracle(cfg, make_ctrl(), simcfg))
    return got


def synthetic_m2_config():
    """n = 3, m = 2 with a state-dependent g, a ball barrier and a half-space
    x_1 <= 1.2 that the closed loop runs into."""
    def f(x):
        return np.array([x[1] * x[2] - x[0] + 0.8, np.sin(x[0]) - x[1],
                         x[0] * x[2] - x[2] ** 3 - x[2]])

    def g(x):
        return np.array([[1.0 + x[1] ** 2, 0.3 * x[0]], [0.5 * x[2], 2.0 - x[0]],
                         [x[0] * x[1], 1.0]])

    sys = ControlAffineSystem(n=3, m=2, f=f, g=g, name="synthetic-m2")
    eq = EquilibriumPair(np.zeros(3), np.zeros(2))
    clf = QuadraticCLF(np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]]), eq)
    ball = Barrier(h=lambda x: 9.0 - float(x @ x), alpha=2.0, grad_h=lambda x: -2.0 * x,
                   name="ball")
    wall = Barrier(h=lambda x: 1.2 - float(x[0]), alpha=0.5,
                   grad_h=lambda x: np.array([-1.0, 0.0, 0.0]), name="wall")
    return make_filter_config(sys, clf, SafeSet((ball, wall)), gamma=1.0, p=10.0)


def wide_m3_config():
    """n = 2, m = 3 and k = 3, sizes the bundled scenarios lack, built from
    numpy closures that also take a stack (N, 2): a ball, a wall and an
    exponential barrier, and a non-zero u_e."""
    def f(x):
        x1, x2 = np.moveaxis(x, -1, 0)
        return np.stack([x2 - 0.5 * x1 + 0.3, 0.2 * x1 * x2 - x1], -1)

    def g(x):
        x1, x2 = np.moveaxis(x, -1, 0)
        return np.stack([np.stack([1.0 + x2 * x2, 0.4 * x1, 0.5 + 0.0 * x1], -1),
                         np.stack([0.3 + 0.0 * x1, 1.0 - x1, x1 * x2], -1)], -2)

    sys = ControlAffineSystem(n=2, m=3, f=f, g=g, name="wide-m3")
    clf = QuadraticCLF(np.array([[1.5, 0.2], [0.2, 1.0]]),
                       EquilibriumPair(np.zeros(2), np.array([0.1, -0.2, 0.05])))
    ball = Barrier(h=lambda x: 4.0 - (x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]),
                   alpha=1.0, grad_h=lambda x: -2.0 * x, name="ball")
    wall = Barrier(h=lambda x: 1.5 - x[..., 0], alpha=0.5,
                   grad_h=lambda x: np.broadcast_to(np.array([-1.0, 0.0]), x.shape).copy(),
                   name="wall")
    floor = Barrier(h=lambda x: 1.0 - np.exp(-(x[..., 1] + 2.0)), alpha=2.0,
                    grad_h=lambda x: np.stack([0.0 * x[..., 0], np.exp(-(x[..., 1] + 2.0))], -1),
                    name="floor")
    return make_filter_config(sys, clf, SafeSet((ball, wall, floor)), gamma=1.5, p=10.0)


@pytest.mark.parametrize("make_sys", [lambda: synthetic_m2_config().sys,
                                      lambda: wide_m3_config().sys, adapter_2x2_system],
                         ids=["synthetic-m2", "wide-m3", "adapter-2x2"])
def test_rk4_of_equals_the_oracle_bitwise(make_sys):
    # rk4_of's stages, called on floats as integrate calls them, with k1
    # from sys.fg and from a given fg, against the numpy RK4 on f and g
    sys = make_sys()
    rk4 = rk4_of(sys.n, sys.m)
    rng = np.random.default_rng(10)
    for i in range(600):
        x = rng.uniform(-2.0, 2.0, sys.n)
        u = rng.choice([-1.0, 1.0], sys.m) * 10.0 ** rng.uniform(-3.0, 3.0, sys.m)
        dt = (1e-4, 1e-3, 1e-2)[i % 3]
        want = rk4_oracle(sys, x, u, dt).tobytes()
        xs, us = x.tolist(), u.tolist()
        assert np.array(rk4(sys, xs, us, dt, None)).tobytes() == want, (x, u, dt)
        assert np.array(rk4(sys, xs, us, dt, sys.fg(xs))).tobytes() == want, (x, u, dt)


# the tumor3d start lies in A_WC; its hybrid run switches into R2 and back
TUMOR_SWITCH_X0 = [1.5332973949760351, 4.258482076721906, 4.8267385751631195]


@pytest.mark.parametrize("controller", CONTROLLER_NAMES)
@pytest.mark.parametrize("scenario", ["linear2d", "tumor3d"])
def test_integrate_matches_oracle_for_every_controller(scenario, controller, linear,
                                                       linear_cfg, tumor_cfg):
    cfg = linear_cfg if scenario == "linear2d" else tumor_cfg
    x0 = linear.defaults["x0"] if scenario == "linear2d" else TUMOR_SWITCH_X0
    traj = assert_matches_integrate_oracle(cfg, lambda: make_controller(cfg, controller),
                                           SimConfig(x0=x0, t_final=1.0))
    assert traj.status == "ok" and traj.n_samples == 1001
    if controller == "hybrid":
        assert traj.switch_events and traj.active.any()


def test_integrate_forms_the_first_stage_from_the_evaluation():
    # three RK4 calls of fg a step, not four, when the controller evaluated
    # x itself; a controller whose evaluation is of another array object
    # gets k1 from a fourth fg call, with the same bits. evaluate adds one
    # fg call for each of the 11 states of the 10 steps
    bundle = build_scenario("linear2d")
    cfg = make_filter_config(bundle.sys, bundle.clf, bundle.safe_set)
    calls = []

    def counted(xs, fg=bundle.sys.fg):
        calls.append(xs)
        return fg(xs)
    bundle.sys.fg = counted
    ctrl = make_controller(cfg, "hybrid")
    simcfg = SimConfig(x0=bundle.defaults["x0"], t_final=0.01)
    traj = integrate(cfg, ctrl, simcfg)
    assert len(calls) == 11 + 3 * 10
    copied = integrate(cfg, lambda x: ctrl(x.copy()), simcfg)
    assert len(calls) == 2 * 11 + (3 + 4) * 10
    assert_same_trajectory(copied, traj)


def test_an_r1_hybrid_run_reads_no_region(tumor_cfg, tumor, monkeypatch):
    # integrate reads the region from the evaluation's margin and the hybrid
    # law its R1 input from the floats: no step reads Evaluation.region
    reads = []
    region = safestab.filters.Evaluation.region

    def counted(ev):
        reads.append(ev)
        return region.fget(ev)
    monkeypatch.setattr(safestab.filters.Evaluation, "region", property(counted))
    x0 = tumor.eq.x_e + np.array([0.8, -0.5, 0.3])
    traj = integrate(tumor_cfg, make_controller(tumor_cfg, "hybrid"),
                     SimConfig(x0=x0, t_final=0.01))
    assert traj.n_samples == 11 and not traj.regions.any()
    assert reads == []


@pytest.mark.parametrize("t_final,dt,every,count", [
    (1e12, 1e-3, 1, "1e+15"), (1e12, 1e-3, 1000, "1e+12"), (10.0, 1e-300, 1, "1e+301"),
    (1e10, 1e-300, 1, "inf")])
def test_records_that_cannot_be_allocated_raise_simulation_error(t_final, dt, every, count,
                                                                 linear_cfg, linear):
    # numpy's MemoryError, its ValueError for too large a dimension and the
    # OverflowError of a step count that is not finite become one error
    # naming the run; nothing is integrated
    simcfg = SimConfig(x0=linear.defaults["x0"], t_final=t_final, dt=dt, record_every=every)
    with pytest.raises(SimulationError) as exc:
        integrate(linear_cfg, make_controller(linear_cfg, "hybrid"), simcfg)
    msg = str(exc.value)
    for text in (f"cannot allocate {count} records", f"t_final={t_final!r}", f"dt={dt!r}",
                 f"record_every={every}", "--record-every"):
        assert text in msg


@pytest.mark.parametrize("record_every", [1, 7, 11, 2100, 5000])
def test_integrate_matches_oracle_when_decimating(record_every, linear_cfg, linear):
    # 2100 steps: 7 divides them, 11 does not, 2100 records the ends only and
    # 5000 records step 0 and the last step
    simcfg = SimConfig(x0=linear.defaults["x0"], t_final=2.1, record_every=record_every)
    traj = assert_matches_integrate_oracle(
        linear_cfg, lambda: make_controller(linear_cfg, "hybrid"), simcfg)
    assert traj.n_samples == 2100 // record_every + 1 + (2100 % record_every != 0)
    assert traj.switch_events


@pytest.mark.parametrize("record_every", [1, 7])
def test_integrate_matches_oracle_on_a_synthetic_m2_system(record_every):
    cfg = synthetic_m2_config()
    for controller in CONTROLLER_NAMES:
        traj = assert_matches_integrate_oracle(
            cfg, lambda: make_controller(cfg, controller),
            SimConfig(x0=[0.5, 2.0, 1.0], t_final=1.0, record_every=record_every))
        assert traj.status == "ok"
        if controller == "hybrid":
            assert traj.switch_events and traj.active.any()


def test_integrate_matches_oracle_on_a_wide_m3_system():
    cfg = wide_m3_config()
    statuses = {}
    for controller in CONTROLLER_NAMES:
        traj = assert_matches_integrate_oracle(
            cfg, lambda: make_controller(cfg, controller),
            SimConfig(x0=[-0.4, 1.5], t_final=1.0, record_every=3))
        statuses[controller] = traj.status
        if controller == "hybrid":
            assert traj.switch_events and traj.active.any()
    assert statuses == dict.fromkeys(CONTROLLER_NAMES, STATUS_OK)


def test_integrate_matches_oracle_on_truncated_runs(tumor_cfg):
    blowup = flat_config(n=1, f=lambda x: np.array([x[0] ** 2]), g=lambda x: np.zeros((1, 1)))
    traj = assert_matches_integrate_oracle(
        blowup, lambda: make_controller(blowup, "sontag"),
        SimConfig(x0=[3.0], t_final=10.0, dt=1e-2, record_every=3))
    assert traj.status == "blowup" and traj.n_samples > 0

    # the hybrid law from this A_WC start meets an infeasible S-CBF-QP mid-run
    x0 = [2.464011171223679, 0.0034475939545500767, 3.0832051417641333]
    traj = assert_matches_integrate_oracle(
        tumor_cfg, lambda: make_controller(tumor_cfg, "hybrid"), SimConfig(x0=x0, t_final=2.0))
    assert traj.status == "infeasible" and traj.n_samples > 0 and traj.switch_events

    # infeasible at the first step: every array is empty, with its width
    traj = assert_matches_integrate_oracle(
        tumor_cfg, lambda: make_controller(tumor_cfg, "cbf-qp"),
        SimConfig(x0=[9.5, 0.5, 0.5], t_final=1.0))
    assert traj.status == "infeasible" and traj.n_samples == 0
    assert traj.states.shape == (0, 3) and traj.active.shape == (0, 3)

    cfg = flat_config()
    for stall_at in (0, 5):
        def stalls():
            calls = [0]

            def ctrl(x):
                calls[0] += 1
                if calls[0] == stall_at + 1:
                    raise QPIterationError("active-set did not converge in 240 iterations")
                return np.zeros(1), evaluate(cfg, x)
            return ctrl

        traj = assert_matches_integrate_oracle(
            cfg, stalls, SimConfig(x0=[0.4, -0.7], t_final=1.0, dt=1e-2, record_every=2))
        assert traj.status == "qp_iteration" and traj.n_samples == (stall_at + 1) // 2


# the hybrid run from this safe start leaves the safe set, and its S-CBF-QP
# at x = [-138.55, -15.76, -54.46] (|b|^2 = 2.5e11) used to raise ValueError
# out of integrate; with m = 2 the cost 2bb' + 1e-9 I is positive definite
# only to rounding there, so the run now ends either way with a status
M2_INDEFINITE_X0 = [-1.437902014071811, 0.7621725515196371, -0.26732409520290634]
# a start that reaches a large |b| a few steps in; whether its S-CBF-QP cost
# fails its Cholesky factorization there (qp_indefinite) or the state blows
# up first is decided by rounding
M2_INDEFINITE_EARLY_X0 = [-1.8998625413692347, -1.2244389179435202, 0.44646461281690275]
# the 63rd safe draw of np.random.default_rng(12).uniform(-3, 3, size=3): its
# S-CBF-QP cost fails to factor at step 7 (|b|^2 = 4.5e10); of 1500 such
# draws, 56 end qp_indefinite, 462 blowup and 982 ok
M2_INDEFINITE_SEARCHED_X0 = [-2.0555525873905927, 0.1498164762333678, 0.9454002549763203]


def assert_indefinite_diagnostic(traj):
    assert traj.diagnostic.startswith("controller QP cost not positive definite at t=")
    assert ": S-CBF-QP cost at x=[" in traj.diagnostic
    assert traj.diagnostic.endswith("H + reg*I must be positive definite")


def big_b_config():
    """n = 2, m = 2 where every quantity at x0 = (0.5, 0) is exact: gradW =
    (1, 0), f = 0, both columns of g are (5e5, 0), so b = (5e5, 5e5) and
    u_son = -b, which violates the row of h = x_1 + 1 (R2). The Cholesky
    pivot of 2bb' + 1e-9 I is negative whether the factorization divides or
    multiplies by the reciprocal and whether its update is fused or not."""
    sys = ControlAffineSystem(n=2, m=2, f=lambda x: np.zeros(2),
                              g=lambda x: np.array([[5e5, 5e5], [0.0, 0.0]]), name="big-b")
    clf = QuadraticCLF(np.eye(2), EquilibriumPair(np.zeros(2), np.zeros(2)))
    wall = Barrier(h=lambda x: x[0] + 1.0, alpha=1.0, grad_h=lambda x: np.array([1.0, 0.0]),
                   name="wall")
    return make_filter_config(sys, clf, SafeSet((wall,)), gamma=1.0, p=10.0)


def test_indefinite_s_cbf_qp_cost_ends_the_run_with_a_status():
    cfg = big_b_config()
    ev = evaluate(cfg, np.array([0.5, 0.0]))
    assert ev.bs == [5e5, 5e5] and ev.region == Region.R2
    for controller in ("s-cbf-qp", "hybrid"):
        traj = assert_matches_integrate_oracle(
            cfg, lambda: make_controller(cfg, controller), SimConfig(x0=[0.5, 0.0], t_final=1.0))
        assert traj.status == STATUS_QP_INDEFINITE and traj.n_samples == 0
        assert traj.diagnostic == (
            "controller QP cost not positive definite at t=0.0: S-CBF-QP cost at "
            "x=[0.5, 0.0], |b|^2=500000000000.0: H + reg*I must be positive definite")
    # QPSpec's check is unchanged: 1e-9 is lost against 2^40, and the exact
    # Cholesky pivot 2^40 - 2^20 * 2^20 is zero
    with pytest.raises(IndefiniteQPError, match="positive definite"):
        QPSpec(np.full((2, 2), 2.0 ** 40), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
    assert issubclass(IndefiniteQPError, ValueError)


def test_synthetic_m2_starts_that_reach_a_large_b_end_with_a_status():
    # which of the two statuses a start gets is decided by rounding, but
    # with the explicit-sum factor at least one start gets qp_indefinite
    cfg = synthetic_m2_config()
    statuses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for x0 in (M2_INDEFINITE_X0, M2_INDEFINITE_EARLY_X0, M2_INDEFINITE_SEARCHED_X0):
            traj = assert_matches_integrate_oracle(
                cfg, lambda: make_controller(cfg, "hybrid"), SimConfig(x0=x0, t_final=2.0))
            assert traj.status in (STATUS_BLOWUP, STATUS_QP_INDEFINITE), traj.diagnostic
            if traj.status == STATUS_QP_INDEFINITE:
                assert_indefinite_diagnostic(traj)
            statuses.append(traj.status)
    assert STATUS_QP_INDEFINITE in statuses


def write_trajectory_csv_oracle(traj, path):
    """The writer that converted each cell with float() or int(); the
    one-tolist-per-array writer must give the same bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_header(traj.states.shape[1], traj.inputs.shape[1],
                                   traj.h_values.shape[1]))
        for i in range(traj.n_samples):
            row = [repr(float(traj.times[i]))]
            row += [repr(float(v)) for v in traj.states[i]]
            row += [repr(float(v)) for v in traj.inputs[i]]
            row.append(repr(float(traj.w_values[i])))
            row += [repr(float(v)) for v in traj.h_values[i]]
            row.append(str(int(traj.regions[i])))
            row += [str(int(v)) for v in traj.active[i]]
            writer.writerow(row)


def test_csv_writer_matches_per_cell_writer_bytes(tmp_path, linear_cfg):
    traj = integrate(linear_cfg, make_controller(linear_cfg, "hybrid"),
                     SimConfig(x0=[1.2, -0.9], t_final=0.3, dt=1e-3))
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.7976931348623157e308,
               0.1, 1e22, 123456789.125]
    for name in ("states", "inputs", "w_values", "h_values"):
        getattr(traj, name).reshape(-1)[:len(special)] = special
    empty = Trajectory(times=np.zeros(0), states=np.zeros((0, 2)), inputs=np.zeros((0, 1)),
                       regions=np.zeros(0, dtype=int), w_values=np.zeros(0),
                       h_values=np.zeros((0, 1)), active=np.zeros((0, 1), dtype=int))
    for i, tr in enumerate((traj, empty)):
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        write_trajectory_csv(tr, got)
        write_trajectory_csv_oracle(tr, want)
        assert got.read_bytes() == want.read_bytes()
    text = (tmp_path / "got0.csv").read_text()
    assert all(v in text for v in (",-0.0,", ",inf,", ",-inf,", ",nan,", ",5e-324,"))
    assert (tmp_path / "got1.csv").read_text().count("\n") == 1
