import numpy as np
import pytest

from safestab import (SharingInfeasibleError, compute_c_star,
                      control_sharing_holds, in_awc,
                      largest_clf_sublevel_inside, sontag_terms)
from safestab.doa import EXCLUDE_RADIUS, sample_states_in_awc, sublevel_bounding_box
from safestab.filters import Region, cbf_rows, classify_region

from conftest import sample_safe_states


@pytest.fixture(scope="module")
def linear_estimate(linear_cfg):
    return compute_c_star(linear_cfg, (41, 41), (0.5, 120.0))


def sharing_grid_oracle(cfg, x, u_lo=-50.0, u_hi=50.0, n=20001):
    """Dense input-grid check of the sharing property (m = 1): some u must
    satisfy every barrier row and strictly decrease W. Returns True/False, or
    None when the margin is too thin for the grid to decide."""
    A, lb = cbf_rows(cfg, x)
    grad_w = cfg.clf.grad(x)
    f = cfg.sys.f(x)
    G = cfg.sys.g(x)
    us = np.linspace(u_lo, u_hi, n)
    rows_ok = (np.outer(us, A[:, 0]) - lb).min(axis=1)
    wdot = grad_w @ f + float(grad_w @ G[:, 0]) * us
    score = np.minimum(rows_ok, -wdot)
    best = float(score.max())
    if best >= 1e-6:
        return True
    if best <= -1e-3:
        return False
    return None


def test_sharing_holds_on_r1_away_from_equilibrium(linear_cfg, linear):
    pts = sample_safe_states(linear, 100, 3, w_cap=30.0)
    for x in pts:
        if np.linalg.norm(x) < 1e-3:
            continue
        if classify_region(linear_cfg, x) == Region.R1:
            assert control_sharing_holds(linear_cfg, x)


def test_sharing_fails_where_row_unsatisfiable(tumor_cfg):
    # L_g h = 0 for the resting-cell barrier while its drift margin is negative
    x = np.array([9.5, 0.5, 0.5])
    A, lb = cbf_rows(tumor_cfg, x)
    assert A[1, 0] == 0.0 and lb[1] > 0.0
    _, b = sontag_terms(tumor_cfg.sys, tumor_cfg.clf, x)
    assert np.abs(b).max() > 0.0
    assert not control_sharing_holds(tumor_cfg, x)


def test_sharing_matches_input_grid_oracle(linear_cfg, linear):
    pts = sample_safe_states(linear, 200, 7)
    decided = 0
    for x in pts:
        if np.linalg.norm(x) < 1e-3:
            continue
        oracle = sharing_grid_oracle(linear_cfg, x)
        if oracle is None:
            continue
        assert control_sharing_holds(linear_cfg, x) == oracle
        decided += 1
    assert decided >= 100


def test_c_star_exceeds_trivial_level_set(linear_cfg, linear_estimate):
    c_triv = largest_clf_sublevel_inside(linear_cfg, seed=1)
    assert linear_estimate.c_star >= c_triv
    # eigenvalue oracle for the 2D case: smallest generalized eigenvalue of
    # (P, B) with h = 1 - x'Bx
    B = np.array([[0.1, 0.075], [0.075, 0.1]])
    gen = np.linalg.eigvals(np.linalg.solve(linear_cfg.clf.P, B))
    c_eig = 1.0 / float(np.max(gen.real))
    assert c_triv == pytest.approx(c_eig, rel=1e-3)


def test_bisection_feasibility_is_monotone(linear_estimate):
    for c1, ok1 in linear_estimate.tested:
        for c2, ok2 in linear_estimate.tested:
            if c2 < c1 and ok1:
                assert ok2, f"feasible({c1}) but infeasible({c2})"


def test_estimate_fields(linear_estimate):
    assert linear_estimate.c_star > 0.0
    assert linear_estimate.grid_resolution == (41, 41)
    assert linear_estimate.verified_points > 0
    assert linear_estimate.first_infeasible_c is None or \
        linear_estimate.first_infeasible_c > linear_estimate.c_star


def assert_first_violations_fail_sharing(cfg, est, c_hi):
    """The smallest level tested infeasible is set by failing grid states:
    some state of compute_c_star's grid (W <= c_hi inside the safe set, away
    from x_e) with c* < W <= first_infeasible_c fails control sharing,
    checked one state at a time."""
    assert est.first_infeasible_c is not None
    box = sublevel_bounding_box(cfg, c_hi)
    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(box, est.grid_resolution)]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    w = cfg.clf.value(points)
    far = np.linalg.norm(points - cfg.clf.equilibrium.x_e, axis=1) > EXCLUDE_RADIUS
    band = points[far & (est.c_star < w) & (w <= est.first_infeasible_c)]
    assert [x for x in band if cfg.safe_set.contains(x) and not control_sharing_holds(cfg, x)]


def test_first_infeasible_violations_fail_sharing(linear_cfg, linear_estimate):
    assert_first_violations_fail_sharing(linear_cfg, linear_estimate, 120.0)


def test_no_feasible_level_raises(linear_cfg):
    with pytest.raises(SharingInfeasibleError):
        compute_c_star(linear_cfg, (41, 41), (100.0, 120.0))


def test_tiny_levels_feasible_near_equilibrium(linear_cfg):
    # the sharing region contains a neighborhood of x_e, so small sub-level
    # brackets saturate at their upper bound
    est = compute_c_star(linear_cfg, (21, 21), (0.01, 0.02))
    assert est.c_star == 0.02


def test_in_awc_membership(linear_cfg, linear_estimate, linear):
    c_star = linear_estimate.c_star
    assert in_awc(linear_estimate, linear_cfg, linear.eq.x_e)
    # a state with W = 2 c* is outside
    d = np.array([1.0, -1.0])
    w_unit = linear_cfg.clf.value(d)
    assert not in_awc(linear_estimate, linear_cfg,
                      d * np.sqrt(2.0 * c_star / w_unit))
    # boundary point W = c* (nudged inside by one part in 1e12), h > 0
    x_b = d * np.sqrt(c_star / w_unit) * (1.0 - 1e-12)
    assert linear.safe_set.min_value(x_b) > 0.0
    assert in_awc(linear_estimate, linear_cfg, x_b)


def test_sublevel_bounding_box_contains_sublevel_samples(linear_cfg):
    c = 10.0
    box = sublevel_bounding_box(linear_cfg, c)
    rng = np.random.default_rng(2)
    for _ in range(500):
        x = rng.uniform(-4, 4, size=2)
        if linear_cfg.clf.value(x) <= c:
            assert np.all(x >= box[:, 0] - 1e-12)
            assert np.all(x <= box[:, 1] + 1e-12)


def test_sampled_awc_states_are_members(linear_cfg, linear_estimate):
    xs = sample_states_in_awc(linear_estimate, linear_cfg, 25, seed=5)
    assert len(xs) == 25
    for x in xs:
        assert in_awc(linear_estimate, linear_cfg, x)


def test_sample_zero_awc_states_draws_nothing(linear_cfg, linear_estimate, monkeypatch):
    import safestab.doa as doa

    def no_draw(*args):
        raise AssertionError("a state was drawn")

    monkeypatch.setattr(doa, "in_awc", no_draw)
    xs = sample_states_in_awc(linear_estimate, linear_cfg, 0, seed=5)
    assert xs.shape == (0, 2)


def test_sample_negative_awc_count_raises(linear_cfg, linear_estimate):
    with pytest.raises(ValueError):
        sample_states_in_awc(linear_estimate, linear_cfg, -1, seed=5)


def test_clf_decrease_under_hybrid_on_awc(linear_cfg, linear_estimate, linear):
    # W strictly decreases along the hybrid field everywhere sampled in A_WC
    from safestab.filters import make_controller
    hybrid = make_controller(linear_cfg, "hybrid")
    xs = sample_states_in_awc(linear_estimate, linear_cfg, 100, seed=15)
    for x in xs:
        if np.linalg.norm(x - linear.eq.x_e) <= 1e-3:
            continue
        u, _ = hybrid(x)
        wdot = float(linear_cfg.clf.grad(x) @ (linear.sys.f(x) + linear.sys.g(x) @ u))
        assert wdot < 0.0


def test_hybrid_trajectories_confined_to_awc(linear_cfg, linear_estimate):
    # controlled invariance of A_WC under the hybrid law
    from safestab.filters import make_controller
    from safestab.sim import SimConfig, integrate
    ctrl = make_controller(linear_cfg, "hybrid")
    xs = sample_states_in_awc(linear_estimate, linear_cfg, 5, seed=9)
    c_star = linear_estimate.c_star
    for x0 in xs:
        traj = integrate(linear_cfg, ctrl, SimConfig(x0=x0, t_final=5.0, dt=1e-3))
        assert traj.status == "ok"
        assert traj.h_values.min() >= -1e-6
        assert traj.w_values.max() <= c_star * (1.0 + 1e-6)


def test_tumor_c_star_exceeds_trivial(tumor_cfg):
    est = compute_c_star(tumor_cfg, (21, 21, 21), (0.2, 60.0))
    c_triv = largest_clf_sublevel_inside(tumor_cfg, seed=1)
    assert est.c_star >= c_triv
    assert est.c_star == pytest.approx(18.33, rel=0.05)
    assert_first_violations_fail_sharing(tumor_cfg, est, 60.0)
