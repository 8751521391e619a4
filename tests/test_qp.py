import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from safestab import (QPSpec, SimConfig, clf_cbf_qp_filter, evaluate, integrate,
                      lp_feasible, make_controller, make_filter_config, solve_qp)
from safestab.errors import QPIterationError
from safestab.filters import ALPHA_W


def grid_search_oracle(spec, box_half=None, points=15, rounds=18):
    """Brute-force refinement oracle: best feasible point among the box
    lattice and the lattice's cyclic projections onto violated half-spaces
    (an axis-aligned lattice alone cannot track an oblique active row),
    recentered and shrunk around the incumbent each round."""
    d = spec.dim
    Hr = spec.H + spec.reg * np.eye(d)
    if box_half is None:
        z_unc = np.linalg.solve(Hr, -spec.c)
        box_half = 2.0 * (1.0 + float(np.abs(z_unc).max()))
    center = np.zeros(d)
    half = box_half
    best_z, best_obj = None, np.inf

    def halfspace_project(Z):
        Z = Z.copy()
        for _ in range(6):
            viol = spec.b - Z @ spec.A.T
            if viol.max(initial=0.0) <= 0.0:
                break
            for i in range(spec.n_rows):
                push = np.clip(spec.b[i] - Z @ spec.A[i], 0.0, None)
                Z += np.outer(push / float(spec.A[i] @ spec.A[i] + 1e-300), spec.A[i])
        return Z

    for _ in range(rounds):
        axes = [np.linspace(center[i] - half, center[i] + half, points)
                for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        Z = np.stack([m.ravel() for m in mesh], axis=1)
        if spec.n_rows:
            cands = np.vstack([Z, halfspace_project(Z)])
            feas = (cands @ spec.A.T - spec.b).min(axis=1) >= -1e-12
            cands = cands[feas]
        else:
            cands = Z
        if cands.size:
            obj = 0.5 * np.einsum("ij,jk,ik->i", cands, Hr, cands) + cands @ spec.c
            i = int(np.argmin(obj))
            if obj[i] < best_obj:
                best_obj, best_z = float(obj[i]), cands[i]
        if best_z is None:
            half *= 2.0
            continue
        center = best_z
        half = 3.0 * (2.0 * half / (points - 1))
    return best_z, best_obj


def random_feasible_spec(rng, d, k):
    """Random strictly convex QP whose rows hold with margin at a random point."""
    M = rng.normal(size=(d, d))
    H = M.T @ M + np.eye(d)
    c = rng.normal(size=d)
    A = rng.normal(size=(k, d))
    z_feas = rng.normal(size=d)
    margin = rng.uniform(0.1, 1.0, size=k)
    b = A @ z_feas - margin
    return QPSpec(H, c, A, b)


def test_scalar_active_constraint_by_hand():
    # min 0.5 z^2 s.t. z >= 2  ->  z* = 2, multiplier = 2
    sol = solve_qp(QPSpec(np.array([[1.0]]), np.zeros(1),
                          np.array([[1.0]]), np.array([2.0]), reg=0.0))
    assert sol.optimal
    assert sol.z_star[0] == pytest.approx(2.0, abs=1e-12)
    assert sol.multipliers[0] == pytest.approx(2.0, abs=1e-9)
    assert sol.active_set == [0]


def test_unconstrained_matches_linear_solve():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = rng.integers(1, 4)
        M = rng.normal(size=(d, d))
        H = M.T @ M + np.eye(d)
        c = rng.normal(size=d)
        sol = solve_qp(QPSpec(H, c, np.zeros((0, d)), np.zeros(0), reg=0.0))
        assert sol.optimal
        assert np.abs(sol.z_star - np.linalg.solve(H, -c)).max() <= 1e-10


def test_fifty_random_qps_against_grid_oracle():
    rng = np.random.default_rng(4242)
    for trial in range(50):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        spec = random_feasible_spec(rng, d, k)
        sol = solve_qp(spec)
        assert sol.optimal, f"trial {trial} infeasible"
        assert sol.kkt_residual <= 1e-7
        _, oracle_obj = grid_search_oracle(spec)
        qp_obj = spec.objective(sol.z_star)
        assert qp_obj <= oracle_obj + 1e-9          # never worse than the oracle
        assert abs(qp_obj - oracle_obj) <= 1e-6     # and the oracle confirms it


def test_infeasible_rows_detected():
    # z >= 1 and -z >= 0 cannot hold together
    spec = QPSpec(np.array([[1.0]]), np.zeros(1),
                  np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
    sol = solve_qp(spec)
    assert sol.status == "infeasible"
    assert sol.z_star is None


def test_zero_rows_handled():
    # a zero row encodes a u-independent condition: 0*z >= -1 holds, 0*z >= 1 never
    d, ok = 2, QPSpec(np.eye(2), np.zeros(2), np.array([[0.0, 0.0]]), np.array([-1.0]))
    assert solve_qp(ok).optimal
    bad = QPSpec(np.eye(2), np.zeros(2), np.array([[0.0, 0.0]]), np.array([1.0]))
    assert solve_qp(bad).status == "infeasible"


def test_kkt_residual_components_bounded():
    rng = np.random.default_rng(7)
    for _ in range(30):
        spec = random_feasible_spec(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        sol = solve_qp(spec)
        assert sol.optimal
        z, lam = sol.z_star, sol.multipliers
        Hr = spec.H + spec.reg * np.eye(spec.dim)
        stat = np.abs(Hr @ z + spec.c - spec.A.T @ lam).max()
        assert stat <= 1e-7 * (1.0 + np.abs(Hr @ z).max() + np.abs(spec.c).max())
        assert (spec.A @ z - spec.b).min() >= -1e-9 * (1.0 + np.abs(spec.b).max())
        assert lam.min() >= 0.0
        comp = np.abs(lam * (spec.A @ z - spec.b)).max()
        assert comp <= 1e-6 * (1.0 + np.abs(lam).max() * (1.0 + np.abs(spec.A @ z - spec.b).max()))


def test_regularization_perturbs_strictly_convex_optimum_mildly():
    rng = np.random.default_rng(21)
    for _ in range(10):
        d, k = 2, 3
        spec0 = random_feasible_spec(rng, d, k)
        solutions = {}
        for reg in (0.0, 1e-9, 1e-6):
            spec = QPSpec(spec0.H, spec0.c, spec0.A, spec0.b, reg=reg)
            solutions[reg] = solve_qp(spec).z_star
        scale = 1.0 + np.abs(solutions[0.0]).max()
        assert np.abs(solutions[1e-9] - solutions[0.0]).max() <= 1e-6 * scale
        assert np.abs(solutions[1e-6] - solutions[0.0]).max() <= 1e-4 * scale


def test_determinism_bitwise():
    rng = np.random.default_rng(99)
    spec_args = random_feasible_spec(rng, 3, 4)
    a = solve_qp(QPSpec(spec_args.H, spec_args.c, spec_args.A, spec_args.b))
    b = solve_qp(QPSpec(spec_args.H, spec_args.c, spec_args.A, spec_args.b))
    assert a.z_star.tobytes() == b.z_star.tobytes()
    assert a.multipliers.tobytes() == b.multipliers.tobytes()
    assert a.active_set == b.active_set


def test_iteration_budget_fails_loudly():
    rng = np.random.default_rng(13)
    spec = random_feasible_spec(rng, 3, 4)
    with pytest.raises(QPIterationError):
        solve_qp(spec, max_iter=1)


def test_spec_validation():
    with pytest.raises(ValueError):
        QPSpec(np.array([[1.0, 0.3], [0.0, 1.0]]), np.zeros(2),
               np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        QPSpec(-np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        QPSpec(np.eye(2), np.zeros(2), np.ones((2, 2)), np.ones(3))


def test_lp_feasible_interval_cases():
    # z >= 0 and -z >= -1: the interval [0, 1]
    assert lp_feasible(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))
    # z >= 1 and -z >= 0: empty
    assert not lp_feasible(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
    # degenerate single point z = 1
    assert lp_feasible(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    # zero-coefficient rows
    assert lp_feasible(np.array([[0.0]]), np.array([-0.5]))
    assert not lp_feasible(np.array([[0.0]]), np.array([0.5]))


def test_lp_feasible_random_systems_match_grid_oracle():
    rng = np.random.default_rng(31)
    for _ in range(200):
        A = rng.normal(size=(3, 2))
        b = rng.normal(size=3)
        grid = np.linspace(-60.0, 60.0, 241)
        oracle = any((A @ np.array([z1, z2]) - b).min() >= 0.0
                     for z1 in grid for z2 in grid)
        got = lp_feasible(A, b)
        if oracle:
            assert got  # a feasible grid point certifies feasibility
        else:
            # grid may just miss a thin feasible wedge; verify disagreements
            # by a fine local search around the least-violating grid point
            if got:
                best = min(((A @ np.array([z1, z2]) - b).min(), z1, z2)
                           for z1 in grid for z2 in grid)
                fine = np.linspace(-1.0, 1.0, 81)
                near = any((A @ np.array([best[1] + d1, best[2] + d2]) - b).min() >= -1e-9
                           for d1 in fine for d2 in fine)
                assert near, "lp_feasible says feasible but no point found nearby"


def test_clf_cbf_qp_nearly_parallel_rows_match_hand_solution(linear):
    # far out on the blow-up of the linear example the CLF row and the
    # barrier row are nearly parallel in the cost metric (sin^2 ~ 5e-14);
    # both hold with equality: u from the barrier row, delta from the CLF row
    cfg = make_filter_config(linear.sys, linear.clf, linear.safe_set, gamma=1.0, p=1000.0)
    x = np.array([34225.97160832805, 3260.4241165073945])
    u, delta = clf_cbf_qp_filter(cfg, x)
    ev = evaluate(cfg, x)
    u_hand = ev.lb[0] / ev.A[0, 0]
    delta_hand = ev.lfw + ALPHA_W * cfg.clf.value(x) + float(ev.b[0]) * u_hand
    assert u_hand == pytest.approx(15036.37468839, rel=1e-9)
    assert u[0] == pytest.approx(u_hand, rel=1e-9)
    assert delta == pytest.approx(delta_hand, rel=1e-9)


def test_rows_meeting_in_one_point():
    # the feasible set is the origin alone; the second row the solver adds
    # lands on it, and the third then holds up to rounding
    spec = QPSpec(np.eye(2), np.array([0.0, 1.0]),
                  np.array([[0.0, -1.0], [-0.5, 1.0], [1.0, 1.0]]), np.zeros(3))
    sol = solve_qp(spec)
    assert sol.optimal
    assert np.abs(sol.z_star).max() <= 1e-15


def test_row_below_the_square_root_of_the_smallest_double():
    # 1e-170 z1 >= 1e-170 is z1 >= 1; the row's squared norm underflows to 0
    spec = QPSpec(np.eye(2), np.zeros(2), np.array([[1e-170, 0.0]]),
                  np.array([1e-170]), reg=0.0)
    sol = solve_qp(spec)
    assert sol.optimal
    assert sol.z_star == pytest.approx([1.0, 0.0], abs=1e-15)
    assert sol.multipliers[0] == pytest.approx(1e170, rel=1e-12)


def test_lp_feasible_three_dependent_rows_in_2d():
    # trial 96 of test_lp_feasible_random_systems_match_grid_oracle
    A = np.array([[-1.9373326164042046, -1.197599108410216],
                  [1.5261445982916175, 1.006951591794048],
                  [1.8757092617658273, 0.5658403384579376]])
    b = np.array([-0.47745105185448605, 0.8596386488851683, -0.4365011184709154])
    assert not lp_feasible(A, b)


def test_linear_clf_cbf_qp_run_does_not_stall(linear):
    # from this start the p=1000 run reaches the nearly parallel rows above;
    # a solver that needs a feasible start stalled there at t = 2.134 s
    cfg = make_filter_config(linear.sys, linear.clf, linear.safe_set, gamma=1.0, p=1000.0)
    traj = integrate(cfg, make_controller(cfg, "clf-cbf-qp"),
                     SimConfig(x0=[2.2166634801674006, -1.8151809514247237],
                               t_final=3.0))
    assert traj.status != "qp_iteration", traj.diagnostic


@st.composite
def strictly_convex_specs(draw):
    """Random strictly convex QP with d <= 3 variables and k <= 4 rows, each
    row's largest entry of size 1e-3..1e5, holding with a margin of 0.1..1
    times that size at a drawn point. (Without a margin, two nearly parallel
    rows can pin the solution to a sliver whose position no double-precision
    solver resolves.)"""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0)
    M = draw(hnp.arrays(float, (d, d), elements=unit))
    H = M.T @ M + np.diag(draw(hnp.arrays(float, d, elements=st.floats(1e-2, 1.0))))
    c = draw(hnp.arrays(float, d, elements=st.floats(-10.0, 10.0)))
    A = draw(hnp.arrays(float, (k, d), elements=unit))
    scale = 10.0 ** draw(hnp.arrays(float, k, elements=st.floats(-3.0, 5.0)))
    z_feas = draw(hnp.arrays(float, d, elements=st.floats(-10.0, 10.0)))
    margin = draw(hnp.arrays(float, k, elements=st.floats(0.1, 1.0)))
    top = np.abs(A).max(axis=1, keepdims=True)
    A = scale[:, None] * np.divide(A, top, out=np.zeros_like(A), where=top > 0.0)
    return QPSpec(H, c, A, A @ z_feas - scale * margin)


@settings(max_examples=300, deadline=None)
@given(strictly_convex_specs())
def test_feasible_specs_solve_to_kkt_points(spec):
    sol = solve_qp(spec)
    assert sol.optimal
    assert sol.kkt_residual <= 1e-7
    # each row relative to the size of its terms at the unconstrained
    # minimizer the solver starts from and at the solution; a subnormal
    # violation is rounding at any scale
    z = sol.z_star
    z_unc = np.linalg.solve(spec.H + spec.reg * np.eye(spec.dim), -spec.c)
    size = np.abs(z).sum() + np.abs(z_unc).sum()
    row_scale = np.abs(spec.b) + np.abs(spec.A).max(axis=1) * size
    assert (spec.A @ z - spec.b >= -(1e-9 * row_scale + np.finfo(float).tiny)).all()


@settings(max_examples=100, deadline=None)
@given(strictly_convex_specs(), st.floats(1e-6, 1e3), st.integers(0, 4))
def test_zero_row_with_positive_bound_is_infeasible(spec, b_zero, pos):
    pos = min(pos, spec.n_rows)
    A = np.insert(spec.A, pos, 0.0, axis=0)
    b = np.insert(spec.b, pos, b_zero)
    assert solve_qp(QPSpec(spec.H, spec.c, A, b)).status == "infeasible"
