import math

import numpy as np
import pytest

from safestab import (Barrier, ControlAffineSystem, EquilibriumPair,
                      QPIterationError, QuadraticCLF, SafeSet, SimConfig,
                      SimulationError, compute_metrics, evaluate, integrate,
                      read_trajectory_csv, write_trajectory_csv)
from safestab.filters import make_controller, make_filter_config
from safestab.sim import rk4_step


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


def test_csv_schema_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(SimulationError):
        read_trajectory_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SimulationError):
        read_trajectory_csv(empty)


def test_simconfig_validation():
    with pytest.raises(SimulationError):
        SimConfig(x0=[0.0], t_final=1.0, dt=0.0)
    with pytest.raises(SimulationError):
        SimConfig(x0=[0.0], t_final=-1.0)
    with pytest.raises(SimulationError):
        SimConfig(x0=[0.0], t_final=1.0, record_every=0)
    for bad in (math.inf, math.nan):
        with pytest.raises(SimulationError, match="dt"):
            SimConfig(x0=[0.0], t_final=1.0, dt=bad)
        with pytest.raises(SimulationError, match="t_final"):
            SimConfig(x0=[0.0], t_final=bad)
        with pytest.raises(SimulationError, match="x0"):
            SimConfig(x0=[0.0, bad], t_final=1.0)


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
