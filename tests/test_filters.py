import numpy as np
import pytest

from safestab import (Barrier, ControlAffineSystem, EquilibriumPair,
                      InfeasibleQPError, QuadraticCLF, SafeSet, SimConfig,
                      cbf_qp_filter, classify_region, clf_cbf_qp_filter,
                      closed_form_ustar, hybrid_control, integrate,
                      s_cbf_qp_filter, sontag_control, sontag_terms)
from safestab.errors import DegenerateConstraintError
from safestab.filters import (ALPHA_W, CONTROLLER_NAMES, Region, active_flags,
                              cbf_rows, make_controller, make_filter_config,
                              row_margins)

from conftest import lie_derivative_fd, lie_derivatives, sample_safe_states


def qp_grid_oracle_1d(cfg, x, u_nom, weight, lo=-80.0, hi=80.0):
    """Dense 1-D grid refinement for min weight*(u - u_nom)^2 s.t. rows."""
    A, lb = cbf_rows(cfg, x)
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    best = None
    for _ in range(24):
        us = np.linspace(center - half, center + half, 2001)
        feas = (np.outer(us, A[:, 0]) - lb).min(axis=1) >= -1e-12
        us = us[feas]
        if us.size:
            obj = weight * (us - u_nom) ** 2
            cand = us[int(np.argmin(obj))]
            if best is None or weight * (cand - u_nom) ** 2 < weight * (best - u_nom) ** 2:
                best = cand
        if best is not None:
            center, half = best, max(3.0 * (2 * half / 2000), 1e-13)
    return best


def find_r2_states(cfg, bundle, count, seed, w_cap=None):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(200000):
        x = rng.uniform(bundle.domain[:, 0], bundle.domain[:, 1])
        if bundle.safe_set.min_value(x) < 0.0:
            continue
        if w_cap is not None and bundle.clf.value(x) > w_cap:
            continue
        if classify_region(cfg, x).value == Region.R2:
            out.append(x)
            if len(out) == count:
                return np.array(out)
    raise RuntimeError(f"found only {len(out)} R2 states")


# ---------------------------------------------------------------- cbf_qp


def test_cbf_qp_returns_nominal_when_slack(linear_cfg):
    x = np.array([0.2, 0.1])
    u_nom = np.array([0.3])
    A, lb = cbf_rows(linear_cfg, x)
    assert row_margins(A, lb, u_nom).min() > 0.0
    u = cbf_qp_filter(linear_cfg, x, u_nom)
    assert u[0] == u_nom[0]


def test_cbf_qp_single_active_row_closed_form(linear_cfg, linear):
    # force the row active with a nominal far on the infeasible side
    x = np.array([1.5, -2.2])
    bar = linear.safe_set.barriers[0]
    lfh, lgh = lie_derivatives(linear_cfg, x, 0)
    assert lfh == pytest.approx(lie_derivative_fd(bar, x, linear.sys.drift(x)), rel=1e-6)
    assert lgh[0] == pytest.approx(lie_derivative_fd(bar, x, linear.sys.input_map(x)[:, 0]),
                                   rel=1e-6)
    u_expected = -(lfh + bar.alpha * bar.value(x)) / lgh[0]
    u_nom = np.array([u_expected - 50.0 * np.sign(lgh[0])])
    u = cbf_qp_filter(linear_cfg, x, u_nom)
    assert u[0] == pytest.approx(u_expected, rel=1e-10, abs=1e-10)


def test_cbf_qp_matches_grid_oracle_near_boundary(linear_cfg, linear):
    rng = np.random.default_rng(88)
    checked = 0
    for _ in range(4000):
        x = rng.uniform(linear.domain[:, 0], linear.domain[:, 1])
        h = linear.safe_set.min_value(x)
        if not 0.0 <= h <= 0.1:
            continue
        u_son = sontag_control(linear_cfg, x)
        try:
            u = cbf_qp_filter(linear_cfg, x, u_son)
        except InfeasibleQPError:
            continue
        oracle = qp_grid_oracle_1d(linear_cfg, x, u_son[0], 1.0)
        assert u[0] == pytest.approx(oracle, abs=1e-6)
        checked += 1
        if checked >= 20:
            break
    assert checked >= 10


def test_cbf_qp_infeasible_outside_sharing_region(tumor_cfg):
    # resting-cell row is input-independent and unsatisfiable here
    x = np.array([9.5, 0.5, 0.5])
    assert tumor_cfg.safe_set.min_value(x) >= 0.0
    with pytest.raises(InfeasibleQPError):
        cbf_qp_filter(tumor_cfg, x, np.array([0.0]))


# ---------------------------------------------------------------- clf_cbf_qp


def test_clf_cbf_qp_at_equilibrium_is_zero(linear_cfg):
    u, delta = clf_cbf_qp_filter(linear_cfg, np.zeros(2))
    assert np.abs(u).max() <= 1e-12
    assert abs(delta) <= 1e-12


def test_clf_cbf_qp_satisfies_rows(linear_cfg, linear):
    pts = sample_safe_states(linear, 100, 23, w_cap=30.0)
    for x in pts:
        u, delta = clf_cbf_qp_filter(linear_cfg, x)
        A, lb = cbf_rows(linear_cfg, x)
        assert row_margins(A, lb, u).min() >= -1e-8
        grad_w = linear_cfg.clf.grad(x)
        lhs = float(grad_w @ linear.sys.xdot(x, u))
        rhs = -ALPHA_W * linear_cfg.clf.value(x) + delta
        assert lhs <= rhs + 1e-7 * (1.0 + abs(rhs))


def test_clf_cbf_qp_delta_positive_when_rows_conflict(linear_cfg, linear):
    # deep in R2 the demanded decrease clashes with the barrier row
    xs = find_r2_states(linear_cfg, linear, 20, 5, w_cap=34.0)
    assert any(clf_cbf_qp_filter(linear_cfg, x)[1] > 1e-6 for x in xs)


# ---------------------------------------------------------------- s_cbf_qp


def test_s_cbf_qp_returns_sontag_on_r1(linear_cfg, linear):
    pts = sample_safe_states(linear, 200, 31, w_cap=30.0)
    checked = 0
    for x in pts:
        if classify_region(linear_cfg, x).value != Region.R1:
            continue
        u = s_cbf_qp_filter(linear_cfg, x)
        u_son = sontag_control(linear_cfg, x)
        assert np.all(u == u_son)
        checked += 1
    assert checked >= 50


def test_s_cbf_qp_matches_closed_form_on_r2(linear_cfg, linear):
    xs = find_r2_states(linear_cfg, linear, 100, 7, w_cap=34.0)
    for x in xs:
        u_qp = s_cbf_qp_filter(linear_cfg, x)
        u_cf, lam = closed_form_ustar(linear_cfg, x)
        assert np.abs(u_qp - u_cf).max() <= 1e-8
        assert lam >= -1e-12


def test_s_cbf_qp_tumor_active_row_matches_grid_oracle(tumor_cfg, tumor):
    xs = find_r2_states(tumor_cfg, tumor, 10, 13, w_cap=18.0)
    for x in xs:
        u = s_cbf_qp_filter(tumor_cfg, x)
        _, b_row = sontag_terms(tumor_cfg.sys, tumor_cfg.clf, x)
        u_son = sontag_control(tumor_cfg, x)
        weight = float(b_row @ b_row) + 1e-9
        oracle = qp_grid_oracle_1d(tumor_cfg, x, u_son[0], weight)
        assert u[0] == pytest.approx(oracle, abs=1e-6)


def test_s_cbf_qp_cost_identity(linear_cfg, tumor_cfg, linear, tumor):
    # |u - u_son|^2_Q equals the squared difference of the W-derivatives
    rng = np.random.default_rng(3)
    for cfg, bundle in ((linear_cfg, linear), (tumor_cfg, tumor)):
        for _ in range(100):
            x = rng.uniform(bundle.domain[:, 0], bundle.domain[:, 1])
            u = rng.normal(scale=3.0, size=cfg.sys.m)
            u_son = sontag_control(cfg, x)
            _, b_row = sontag_terms(cfg.sys, cfg.clf, x)
            Q = np.outer(b_row, b_row)
            lhs = float((u - u_son) @ Q @ (u - u_son))
            grad_w = cfg.clf.grad(x)
            wdot_u = float(grad_w @ bundle.sys.xdot(x, u))
            wdot_son = float(grad_w @ bundle.sys.xdot(x, u_son))
            assert lhs == pytest.approx((wdot_u - wdot_son) ** 2,
                                        rel=1e-9, abs=1e-9 * (1.0 + lhs))


# ---------------------------------------------------------------- closed form


def test_closed_form_simple_row():
    # f = 0, g = 1, h = x: (L_f h, L_g h, alpha(h)) = (0, 1, 0) at x = 0
    sys = ControlAffineSystem(n=1, m=1, f=lambda x: np.zeros(1),
                              g=lambda x: np.array([[1.0]]), name="int")
    eq = EquilibriumPair([0.0], [0.0])
    clf = QuadraticCLF(np.array([[1.0]]), eq)
    bar = Barrier(h=lambda x: float(x[0]), alpha=1.0,
                  grad_h=lambda x: np.ones(1), name="halfline")
    cfg = make_filter_config(sys, clf, SafeSet((bar,)))
    u_star, lam = closed_form_ustar(cfg, np.zeros(1))
    assert u_star[0] == 0.0
    assert lam == pytest.approx(0.0, abs=1e-12)


def test_closed_form_equals_sontag_on_region_boundary(linear_cfg, linear):
    # bisect the margin to a boundary point, where u* and u_son coincide
    x_r1 = np.array([0.3, -0.2])
    xs = find_r2_states(linear_cfg, linear, 5, 19, w_cap=34.0)
    for x_r2 in xs:
        lo, hi = x_r1.copy(), x_r2.copy()
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if classify_region(linear_cfg, mid).value == Region.R1:
                lo = mid
            else:
                hi = mid
        x_b = 0.5 * (lo + hi)
        u_star, _ = closed_form_ustar(linear_cfg, x_b)
        u_son = sontag_control(linear_cfg, x_b)
        assert np.abs(u_star - u_son).max() <= 1e-6 * (1.0 + np.abs(u_son).max())


def test_closed_form_degenerate_row_raises(tumor_cfg):
    # the resting-cell positivity barrier has L_g h identically zero
    with pytest.raises(DegenerateConstraintError):
        closed_form_ustar(tumor_cfg, np.array([5.0, 5.0, 3.0]), barrier_index=1)


def test_closed_form_multiplier_matches_qp(linear_cfg, linear):
    from safestab.qp import QPSpec, solve_qp
    xs = find_r2_states(linear_cfg, linear, 20, 29, w_cap=34.0)
    for x in xs:
        u_cf, lam_cf = closed_form_ustar(linear_cfg, x)
        u_son = sontag_control(linear_cfg, x)
        _, b_row = sontag_terms(linear_cfg.sys, linear_cfg.clf, x)
        A, lb = cbf_rows(linear_cfg, x)
        spec = QPSpec(2.0 * np.outer(b_row, b_row), np.zeros(1),
                      A, lb - A @ u_son)   # the filters' reg, QPSpec's default
        sol = solve_qp(spec)
        # Lagrangians differ by the factor 2 on the quadratic form
        assert sol.multipliers[0] / 2.0 == pytest.approx(lam_cf, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------- regions


def test_equilibrium_classifies_r1(linear_cfg, tumor_cfg, linear, tumor):
    for cfg, bundle in ((linear_cfg, linear), (tumor_cfg, tumor)):
        label = classify_region(cfg, bundle.eq.x_e)
        assert label.value == Region.R1
        assert label.margin > 0.0


def test_boundary_approach_state_classifies_r2(linear_cfg, linear):
    xs = find_r2_states(linear_cfg, linear, 1, 43, w_cap=34.0)
    label = classify_region(linear_cfg, xs[0])
    assert label.value == Region.R2
    assert label.margin < 0.0


def test_exact_zero_margin_assigned_r1():
    # constant zero barrier: L_f h = L_g h = alpha(h) = 0, margin is exactly 0
    sys = ControlAffineSystem(n=1, m=1, f=lambda x: np.zeros(1),
                              g=lambda x: np.array([[1.0]]), name="int")
    eq = EquilibriumPair([0.0], [0.0])
    clf = QuadraticCLF(np.array([[1.0]]), eq)
    bar = Barrier(h=lambda x: 0.0, alpha=1.0,
                  grad_h=lambda x: np.zeros(1), name="flat")
    cfg = make_filter_config(sys, clf, SafeSet((bar,)))
    label = classify_region(cfg, np.array([0.5]))
    assert label.margin == 0.0
    assert label.value == Region.R1


def test_multi_barrier_margin_is_minimum(tumor_cfg, tumor):
    pts = sample_safe_states(tumor, 50, 3)
    for x in pts:
        u_son = sontag_control(tumor_cfg, x)
        A, lb = cbf_rows(tumor_cfg, x)
        label = classify_region(tumor_cfg, x)
        assert label.margin == pytest.approx(float(row_margins(A, lb, u_son).min()), rel=1e-12)


# ---------------------------------------------------------------- hybrid


def test_hybrid_selects_branch(linear_cfg, linear):
    pts = sample_safe_states(linear, 100, 53, w_cap=34.0)
    for x in pts:
        u, label = hybrid_control(linear_cfg, x)
        if label.value == Region.R1:
            assert np.all(u == sontag_control(linear_cfg, x))
        else:
            assert np.abs(u - s_cbf_qp_filter(linear_cfg, x)).max() <= 1e-12


def test_hybrid_continuity_across_region_boundary(linear_cfg, linear):
    # state pairs straddling the boundary at distance 1e-6
    x_r1 = np.array([0.3, -0.2])
    xs = find_r2_states(linear_cfg, linear, 10, 61, w_cap=34.0)
    for x_r2 in xs:
        lo, hi = x_r1.copy(), x_r2.copy()
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if classify_region(linear_cfg, mid).value == Region.R1:
                lo = mid
            else:
                hi = mid
        gap = hi - lo
        if np.linalg.norm(gap) > 0:
            d = gap / np.linalg.norm(gap)
            x_minus = lo - 0.5e-6 * d
            x_plus = hi + 0.5e-6 * d
            u_minus, _ = hybrid_control(linear_cfg, x_minus)
            u_plus, _ = hybrid_control(linear_cfg, x_plus)
            assert np.abs(u_plus - u_minus).max() <= 1e-4


def test_safety_rows_hold_for_all_filters(linear_cfg, linear):
    pts = sample_safe_states(linear, 50, 71, w_cap=34.0)
    for x in pts:
        A, lb = cbf_rows(linear_cfg, x)
        candidates = [
            cbf_qp_filter(linear_cfg, x),
            clf_cbf_qp_filter(linear_cfg, x)[0],
            s_cbf_qp_filter(linear_cfg, x),
            hybrid_control(linear_cfg, x)[0],
        ]
        for u in candidates:
            assert row_margins(A, lb, u).min() >= -1e-8


@pytest.mark.parametrize("scenario", ["linear2d", "tumor3d"])
@pytest.mark.parametrize("name", CONTROLLER_NAMES)
def test_decision_carries_the_standalone_quantities(name, scenario, request):
    # the evaluation a built-in controller hands to the simulator equals the
    # standalone helpers bit for bit, its rows match finite differences of h,
    # and the simulator logs exactly what that evaluation says
    bundle = request.getfixturevalue("linear" if scenario == "linear2d" else "tumor")
    cfg = request.getfixturevalue("linear_cfg" if scenario == "linear2d" else "tumor_cfg")
    ctrl = make_controller(cfg, name)
    checked = 0
    for x in sample_safe_states(bundle, 12, 83, w_cap=10.0):
        try:
            u, ev = ctrl(x)
        except InfeasibleQPError:
            continue
        checked += 1
        A_ref, lb_ref = cbf_rows(cfg, x)
        assert ev.A.tobytes() == A_ref.tobytes() and ev.lb.tobytes() == lb_ref.tobytes()
        G = cfg.sys.input_map(x)
        for i, bar in enumerate(cfg.safe_set.barriers):
            lfh, lgh = lie_derivatives(cfg, x, i)
            assert lfh == pytest.approx(lie_derivative_fd(bar, x, cfg.sys.drift(x)),
                                        rel=1e-5, abs=1e-5)
            assert lgh[0] == pytest.approx(lie_derivative_fd(bar, x, G[:, 0]),
                                           rel=1e-5, abs=1e-5)
        label = classify_region(cfg, x)
        assert ev.label.value == label.value and ev.label.margin == label.margin
        margin = float(row_margins(ev.A, ev.lb, sontag_control(cfg, x)).min())
        assert ev.label.margin == margin
        assert ev.h.tobytes() == cfg.safe_set.values(x).tobytes()
    assert checked > 0

    simcfg = SimConfig(x0=np.asarray(bundle.defaults["x0"]), t_final=0.2, dt=1e-3)
    traj = integrate(cfg, ctrl, simcfg)
    assert traj.status == "ok" and traj.n_samples == 201
    for i, x in enumerate(traj.states):
        u, ev = ctrl(x)
        assert traj.inputs[i].tobytes() == u.tobytes()
        assert traj.h_values[i].tobytes() == ev.h.tobytes()
        assert traj.regions[i] == int(ev.label.value)
        assert np.all(traj.active[i] == active_flags(ev.A, ev.lb, u))


def test_evaluate_rejects_misshapen_input_map():
    sys = ControlAffineSystem(n=2, m=1, f=lambda x: np.zeros(2),
                              g=lambda x: np.zeros((1, 2)), name="bad-g")
    clf = QuadraticCLF(np.eye(2), EquilibriumPair([0.0, 0.0], [0.0]))
    bar = Barrier(h=lambda x: 1.0, alpha=1.0,
                  grad_h=lambda x: np.zeros(2), name="always")
    cfg = make_filter_config(sys, clf, SafeSet((bar,)))
    with pytest.raises(ValueError, match=r"g\(x\) must be \(2, 1\)"):
        make_controller(cfg, "hybrid")(np.ones(2))


def test_make_controller_rejects_unknown(linear_cfg):
    with pytest.raises(ValueError):
        make_controller(linear_cfg, "mystery")
