import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import safestab.filters
import safestab.qp
from safestab import (QPSpec, SimConfig, evaluate, integrate, lp_feasible, make_controller,
                      make_filter_config, solve_qp)
from safestab.errors import IndefiniteQPError, QPIterationError
from safestab.filters import ALPHA_W, _clf_cbf_qp_law
from safestab.qp import _DEP_TOL, _FEAS_TOL


def spec_arrays(spec):
    """A spec's floats as new numpy arrays H, c, A and b, A of shape
    (n_rows, dim), for the numpy oracles."""
    return (np.array(spec.Hs), np.array(spec.cs),
            np.array(spec.As, dtype=float).reshape(-1, spec.dim), np.array(spec.bs))


def grid_search_oracle(spec, box_half=None, points=15, rounds=18):
    """Brute-force refinement oracle: best feasible point among the box
    lattice and the lattice's cyclic projections onto violated half-spaces
    (an axis-aligned lattice alone cannot track an oblique active row),
    recentered and shrunk around the incumbent each round."""
    d = spec.dim
    H, c, A, b = spec_arrays(spec)
    Hr = H + spec.reg * np.eye(d)
    if box_half is None:
        z_unc = np.linalg.solve(Hr, -c)
        box_half = 2.0 * (1.0 + float(np.abs(z_unc).max()))
    center = np.zeros(d)
    half = box_half
    best_z, best_obj = None, np.inf

    def halfspace_project(Z):
        Z = Z.copy()
        for _ in range(6):
            viol = b - Z @ A.T
            if viol.max(initial=0.0) <= 0.0:
                break
            for i in range(spec.n_rows):
                push = np.clip(b[i] - Z @ A[i], 0.0, None)
                Z += np.outer(push / float(A[i] @ A[i] + 1e-300), A[i])
        return Z

    for _ in range(rounds):
        axes = [np.linspace(center[i] - half, center[i] + half, points)
                for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        Z = np.stack([m.ravel() for m in mesh], axis=1)
        if spec.n_rows:
            cands = np.vstack([Z, halfspace_project(Z)])
            feas = (cands @ A.T - b).min(axis=1) >= -1e-12
            cands = cands[feas]
        else:
            cands = Z
        if cands.size:
            obj = 0.5 * np.einsum("ij,jk,ik->i", cands, Hr, cands) + cands @ c
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
    assert sol.zs[0] == pytest.approx(2.0, abs=1e-12)
    assert sol.lams[0] == pytest.approx(2.0, abs=1e-9)
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
        assert np.abs(np.array(sol.zs) - np.linalg.solve(H, -c)).max() <= 1e-10


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
        qp_obj = spec.objective(sol.zs)
        assert qp_obj <= oracle_obj + 1e-9          # never worse than the oracle
        assert abs(qp_obj - oracle_obj) <= 1e-6     # and the oracle confirms it


def test_infeasible_rows_detected():
    # z >= 1 and -z >= 0 cannot hold together
    spec = QPSpec(np.array([[1.0]]), np.zeros(1),
                  np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
    sol = solve_qp(spec)
    assert sol.status == "infeasible"
    assert sol.zs is None


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
        z, lam = np.array(sol.zs), np.array(sol.lams)
        H, c, A, b = spec_arrays(spec)
        Hr = H + spec.reg * np.eye(spec.dim)
        stat = np.abs(Hr @ z + c - A.T @ lam).max()
        assert stat <= 1e-7 * (1.0 + np.abs(Hr @ z).max() + np.abs(c).max())
        assert (A @ z - b).min() >= -1e-9 * (1.0 + np.abs(b).max())
        assert lam.min() >= 0.0
        comp = np.abs(lam * (A @ z - b)).max()
        assert comp <= 1e-6 * (1.0 + np.abs(lam).max() * (1.0 + np.abs(A @ z - b).max()))


def test_regularization_perturbs_strictly_convex_optimum_mildly():
    rng = np.random.default_rng(21)
    for _ in range(10):
        d, k = 2, 3
        spec0 = random_feasible_spec(rng, d, k)
        solutions = {}
        for reg in (0.0, 1e-9, 1e-6):
            spec = QPSpec(*spec_arrays(spec0), reg=reg)
            solutions[reg] = np.array(solve_qp(spec).zs)
        scale = 1.0 + np.abs(solutions[0.0]).max()
        assert np.abs(solutions[1e-9] - solutions[0.0]).max() <= 1e-6 * scale
        assert np.abs(solutions[1e-6] - solutions[0.0]).max() <= 1e-4 * scale


def test_determinism_bitwise():
    rng = np.random.default_rng(99)
    spec_args = random_feasible_spec(rng, 3, 4)
    a = solve_qp(QPSpec(*spec_arrays(spec_args)))
    b = solve_qp(QPSpec(*spec_arrays(spec_args)))
    assert _bits(a.zs) == _bits(b.zs)
    assert _bits(a.lams) == _bits(b.lams)
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


def lattice(axis):
    """The points (z1, z2) of axis x axis, z2 varying fastest, as rows."""
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def test_lp_feasible_random_systems_match_grid_oracle():
    rng = np.random.default_rng(31)
    grid = lattice(np.linspace(-60.0, 60.0, 241))
    fine = lattice(np.linspace(-1.0, 1.0, 81))
    for _ in range(200):
        A = rng.normal(size=(3, 2))
        b = rng.normal(size=3)
        slack = (grid @ A.T - b).min(axis=1)   # least row slack per grid point
        oracle = bool((slack >= 0.0).any())
        got = lp_feasible(A, b)
        if oracle:
            assert got  # a feasible grid point certifies feasibility
        else:
            # grid may just miss a thin feasible wedge; verify disagreements
            # by a fine local search around the least-violating grid point
            if got:
                best = grid[np.argmax(slack)]
                near = (((best + fine) @ A.T - b).min(axis=1) >= -1e-9).any()
                assert near, "lp_feasible says feasible but no point found nearby"


def test_clf_cbf_qp_nearly_parallel_rows_match_hand_solution(linear):
    # far out on the blow-up of the linear example the CLF row and the
    # barrier row are nearly parallel in the cost metric (sin^2 ~ 5e-14);
    # both hold with equality: u from the barrier row, delta from the CLF row
    cfg = make_filter_config(linear.sys, linear.clf, linear.safe_set, gamma=1.0, p=1000.0)
    x = np.array([34225.97160832805, 3260.4241165073945])
    ev = evaluate(cfg, x)
    u, delta = _clf_cbf_qp_law(cfg)(ev)
    u_hand = ev.lbs[0] / ev.As[0][0]
    delta_hand = ev.lfw + ALPHA_W * cfg.clf.value(x) + ev.bs[0] * u_hand
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
    assert np.abs(sol.zs).max() <= 1e-15


def test_row_below_the_square_root_of_the_smallest_double():
    # 1e-170 z1 >= 1e-170 is z1 >= 1; the row's squared norm underflows to 0
    spec = QPSpec(np.eye(2), np.zeros(2), np.array([[1e-170, 0.0]]),
                  np.array([1e-170]), reg=0.0)
    sol = solve_qp(spec)
    assert sol.optimal
    assert sol.zs == pytest.approx([1.0, 0.0], abs=1e-15)
    assert sol.lams[0] == pytest.approx(1e170, rel=1e-12)


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
# the row z >= 0 is violated by 2 * tiny at the unconstrained minimizer,
# -tiny / 0.5; the row's scaling by 1/2 must not halve the solver's floor
@example(QPSpec(np.array([[0.5]]), np.array([np.finfo(float).tiny]), np.array([[1.0]]),
                np.array([0.0])))
def test_feasible_specs_solve_to_kkt_points(spec):
    sol = solve_qp(spec)
    assert sol.optimal
    assert sol.kkt_residual <= 1e-7
    # each row relative to the size of its terms at the unconstrained
    # minimizer the solver starts from and at the solution; a subnormal
    # violation is rounding at any scale
    z = np.array(sol.zs)
    H, c, A, b = spec_arrays(spec)
    z_unc = np.linalg.solve(H + spec.reg * np.eye(spec.dim), -c)
    size = np.abs(z).sum() + np.abs(z_unc).sum()
    row_scale = np.abs(b) + np.abs(A).max(axis=1) * size
    assert (A @ z - b >= -(1e-9 * row_scale + np.finfo(float).tiny)).all()


@settings(max_examples=100, deadline=None)
@given(strictly_convex_specs(), st.floats(1e-6, 1e3), st.integers(0, 4))
def test_zero_row_with_positive_bound_is_infeasible(spec, b_zero, pos):
    pos = min(pos, spec.n_rows)
    H, c, A, b = spec_arrays(spec)
    A = np.insert(A, pos, 0.0, axis=0)
    b = np.insert(b, pos, b_zero)
    assert solve_qp(QPSpec(H, c, A, b)).status == "infeasible"


# -- bit identity with the numpy-bookkeeping body -----------------------------

def _dot(u, v):
    """0.0 + u[0]*v[0] + ... + u[n-1]*v[n-1], added left to right: the order
    of core.dot_of, written as a loop. It runs on Python floats, as the
    solver does, so that a NaN keeps the same sign and payload."""
    acc = 0.0
    for a, b in zip(np.asarray(u).tolist(), np.asarray(v).tolist()):
        acc = acc + a * b
    return acc


def _mv(M, v):
    return np.array([_dot(row, v) for row in M], dtype=float)


def _kkt_oracle(H, c, A, b, z, lam, mv=_mv):
    """The four scaled KKT residuals of z and lam for H + reg*I = H, on
    numpy arrays, every product a left-to-right loop (_dot, _mv), every max
    and min numpy's: QPSolution.kkt_residual must give the same bits. With
    mv=np.matmul, numpy's products, which go through BLAS: the residual's
    second reference (_kkt_numpy), equal up to KKT_NUMPY_BOUND."""
    Hz = mv(H, z)
    r_stat = np.abs(Hz + c - mv(A.T, lam)).max() / (1.0 + np.abs(Hz).max() + np.abs(c).max())
    if not b.size:
        return float(r_stat)
    slack = mv(A, z) - b
    lam_max = np.abs(lam).max()
    r_pri = -slack.min() / (1.0 + np.abs(b).max())
    r_dual = -lam.min() / (1.0 + lam_max)
    r_comp = np.abs(lam * slack).max() / (1.0 + lam_max * (1.0 + np.abs(slack).max()))
    return float(max(r_stat, r_pri, r_dual, r_comp, 0.0))


def _kkt_numpy(*args):
    return _kkt_oracle(*args, mv=np.matmul)


def _kkt_args(spec, sol):
    """_kkt_oracle's arguments for the solution sol of spec."""
    H, c, A, b = spec_arrays(spec)
    return H + spec.reg * np.eye(spec.dim), c, A, b, np.array(sol.zs), np.array(sol.lams)


def _factor_oracle(H):
    """L^-1 for H = LL', by the Cholesky recurrences on numpy arrays:
    L_jj = sqrt(H_jj - sum_t<j L_jt^2), L_ij = (H_ij - sum_t<j L_it L_jt) / L_jj,
    then L^-1 column by column, (L^-1)_ij = -sum_{j<=t<i} L_it (L^-1)_tj / L_ii."""
    d = H.shape[0]
    L = np.zeros((d, d))
    for j in range(d):
        pivot = H[j, j] - _dot(L[j, :j], L[j, :j])
        assert pivot > 0.0
        L[j, j] = math.sqrt(pivot)
        for i in range(j + 1, d):
            L[i, j] = (H[i, j] - _dot(L[i, :j], L[j, :j])) / L[j, j]
    inv = np.zeros((d, d))
    for j in range(d):
        inv[j, j] = 1.0 / L[j, j]
        for i in range(j + 1, d):
            inv[i, j] = -_dot(L[i, j:i], inv[j:i, j]) / L[i, i]
    return inv


def _split_oracle(Q, q, n):
    Qa = Q[:, :q]
    d1 = _mv(Qa.T, n)
    s = n + _mv(Qa, -d1)
    e = _mv(Qa.T, s)
    return d1 + e, s + _mv(Qa, -e)


def _append_oracle(Q, R_inv, q, r, s):
    rho = math.sqrt(_dot(s, s))
    Q[:, q] = s / rho
    R_inv[:q, q] = r / -rho
    R_inv[q, q] = 1.0 / rho


def solve_qp_oracle(spec, max_iter=None):
    """The dual active-set method with all its bookkeeping in numpy arrays
    (violation mask, argmin, tolerances, y_max, a general split at q = 0),
    its factor and KKT residual (_kkt_oracle) computed inside the call, and
    every product an explicit left-to-right sum written as a loop (_dot).
    solve_qp must give the same bits: zs, lams, active_set, status,
    iterations and kkt_residual."""
    d = spec.dim
    k = spec.n_rows
    H, c, A, b = spec_arrays(spec)
    H = H + spec.reg * np.eye(d)
    if max_iter is None:
        max_iter = 60 * (k + 2)
    w = np.ldexp(1.0, -np.frexp(np.abs(A).max(axis=1, initial=0.0))[1])
    bw = b * w
    L_inv = _factor_oracle(H)
    N = np.array([_mv(L_inv, A[i] * w[i]) for i in range(k)]).reshape(k, d).T
    y = -_mv(L_inv, c)
    nrm = np.sqrt([_dot(N[:, i], N[:, i]) for i in range(k)]).reshape(k)
    y_max = float(np.abs(y).max(initial=0.0))
    tol_b = _FEAS_TOL * np.abs(bw) + np.finfo(float).tiny
    tol_n = _FEAS_TOL * nrm
    nrm_safe = np.maximum(nrm, 1e-300)
    active, u = [], []
    Q = np.empty((d, d))
    R_inv = np.zeros((d, d))
    p = -1
    for it in range(1, max_iter + 1):
        if p < 0:
            slack = _mv(N.T, y) - bw
            viol = slack < -(tol_b + tol_n * y_max)
            viol[active] = False
            if not viol.any():
                z = _mv(L_inv.T, y)
                lam = np.zeros(k)
                lam[active] = np.maximum(u, 0.0) * w[active]
                res = _kkt_oracle(H, c, A, b, z, lam)
                # a NaN bound leaves the tolerance of the others as it is
                tol = 1e-10 * (1.0 + np.abs(b[~np.isnan(b)]).max(initial=0.0))
                kept = [i for i in sorted(active)
                        if lam[i] > 0.0 or abs(float(_dot(A[i], z) - b[i])) <= tol]
                return SimpleNamespace(zs=z, lams=lam, active_set=kept,
                                       kkt_residual=res, status="optimal", iterations=it)
            p = int(np.argmin(np.where(viol, slack / nrm_safe, np.inf)))
            u.append(0.0)
        q = len(active)
        n_p = N[:, p]
        d1, s = _split_oracle(Q, q, n_p)
        r = _mv(R_inv[:q, :q], d1)
        r_list = r.tolist()
        t1, drop = math.inf, -1
        for j, r_j in enumerate(r_list):
            if r_j > 0.0 and u[j] / r_j < t1:
                t1, drop = u[j] / r_j, j
        ss = float(_dot(s, s))
        t2 = math.inf
        if q < d and ss > (_DEP_TOL * nrm[p]) ** 2:
            t2 = (bw[p] - float(_dot(n_p, y))) / ss
        if t1 == math.inf and t2 == math.inf:
            return SimpleNamespace(zs=None, lams=None, active_set=[],
                                   kkt_residual=math.inf, status="infeasible", iterations=it)
        t = min(t1, t2)
        for j, r_j in enumerate(r_list):
            u[j] -= t * r_j
        u[q] += t
        if t2 < math.inf:
            y = y + t * s
            y_max = max(y_max, float(np.abs(y).max()))
        if t2 <= t1:
            _append_oracle(Q, R_inv, q, r, s)
            active.append(p)
            p = -1
        else:
            del active[drop], u[drop]
            for j, i in enumerate(active):
                d1, s = _split_oracle(Q, j, N[:, i])
                _append_oracle(Q, R_inv, j, _mv(R_inv[:j, :j], d1), s)
    raise QPIterationError(f"dual active set did not converge in {max_iter} iterations")


def _bits(v):
    return None if v is None else np.asarray(v, dtype=float).tobytes()


def assert_same_solution(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert got.active_set == want.active_set
    assert _bits(got.zs) == _bits(want.zs)
    assert _bits(got.lams) == _bits(want.lams)
    assert _bits(got.kkt_residual) == _bits(want.kkt_residual)


def assert_matches_oracle(spec, max_iter=None):
    """solve_qp(spec) against solve_qp_oracle(spec), bit for bit, including
    whether the iteration budget runs out; returns the oracle's outcome."""
    with np.errstate(all="ignore"):
        try:
            want = solve_qp_oracle(spec, max_iter)
        except QPIterationError:
            with pytest.raises(QPIterationError):
                solve_qp(spec, max_iter)
            return None
        assert_same_solution(solve_qp(spec, max_iter), want)
    return want


def random_spec(rng, d, k, reg=None):
    """A strictly convex cost and k rows with entries of mixed size, some
    exactly zero; the rows are feasible or not, as the draw falls."""
    M = rng.normal(size=(d, d))
    H = M.T @ M + np.diag(10.0 ** rng.uniform(-3.0, 1.0, size=d))
    c = rng.normal(size=d) * 10.0 ** rng.uniform(-3.0, 3.0)
    A = rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-4.0, 4.0, size=(k, 1))
    A[rng.random(size=(k, d)) < 0.15] = 0.0
    b = rng.normal(size=k) * 10.0 ** rng.uniform(-4.0, 4.0, size=k)
    b[rng.random(size=k) < 0.15] = 0.0
    if reg is None:
        reg = (0.0, 1e-9)[int(rng.integers(2))]
    return QPSpec(H, c, A, b, reg=reg)


def test_solver_matches_numpy_bookkeeping_on_random_specs():
    rng = np.random.default_rng(808)
    statuses = set()
    for d in (1, 2, 3):
        for k in range(7):
            for _ in range(150):
                want = assert_matches_oracle(random_spec(rng, d, k))
                statuses.add(want.status)
    assert statuses == {"optimal", "infeasible"}


# two specs with a NaN bound in their last row; test_a_nan_bound_* pins them
NAN_BOUND_SPECS = (
    QPSpec(np.diag([1.0, 3.0]), np.array([3.0, 0.0]),
           np.array([[2.0, -2.0], [2.0, 2.0], [0.0, -1.0]]), np.array([0.0, 0.0, math.nan]),
           reg=0.0),
    QPSpec(np.diag([2.0, 1.0, 2.0]), np.array([-3.0, 2.0, -3.0]),
           np.array([[-2.0, 2.0, -2.0], [2.0, 1.0, 0.0], [-1.0, -1.0, -2.0],
                     [1.0, 2.0, -2.0], [-2.0, -1.0, 1.0], [2.0, 1.0, -2.0],
                     [2.0, 0.0, 2.0]]),
           np.array([-3.0, -1.0, -3.0, -3.0, -1.0, 3.0, math.nan]), reg=0.0),
)


def _special_specs(rng):
    """Exact zeros, ties, nearly parallel rows, tiny and huge rows,
    infeasible systems."""
    eye2 = np.eye(2)
    yield QPSpec(eye2, np.zeros(2), np.zeros((2, 2)), np.zeros(2), reg=0.0)
    yield QPSpec(eye2, np.zeros(2), np.zeros((1, 2)), np.array([1.0]))
    yield QPSpec(eye2, np.zeros(2), np.array([[0.0, 0.0], [1.0, 0.0]]),
                 np.array([-1.0, 0.0]))
    yield QPSpec(eye2, np.array([0.0, 1.0]),
                 np.array([[0.0, -1.0], [-0.5, 1.0], [1.0, 1.0]]), np.zeros(3))
    yield QPSpec(eye2, np.zeros(2), np.array([[1e-170, 0.0]]), np.array([1e-170]), reg=0.0)
    yield QPSpec(eye2, np.zeros(2), np.array([[1e-170, 1e-170], [-1e-170, 2e-170]]),
                 np.array([1e-170, 1e-170]))
    yield QPSpec(eye2, np.zeros(2), np.array([[1e170, 0.0], [0.0, -1e150]]),
                 np.array([1e170, 1e150]))
    yield QPSpec(np.eye(1), np.zeros(1), np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
    yield QPSpec(np.eye(3), np.zeros(3), np.vstack([np.eye(3), -np.ones((1, 3))]),
                 np.array([1.0, 1.0, 1.0, -2.0]))
    # each with a row whose bound is NaN, never violated and never active:
    # a row that holds only once the tolerance has grown with the largest
    # |y| met, and one whose zero multiplier keeps it in the active set
    yield NAN_BOUND_SPECS[0]
    yield NAN_BOUND_SPECS[1]
    # small integers: rows through common vertices, exact ties and zero
    # multipliers on active rows, half of them with a NaN bound added
    for i in range(1500):
        d, k = int(rng.integers(1, 4)), int(rng.integers(2, 7))
        A = rng.integers(-2, 3, size=(k, d)).astype(float)
        b = rng.integers(-3, 4, size=k).astype(float)
        if i % 2:
            A = np.vstack([A, rng.integers(-2, 3, size=(1, d))])
            b = np.append(b, math.nan)
        yield QPSpec(np.diag(rng.integers(1, 4, size=d).astype(float)),
                     rng.integers(-3, 4, size=d).astype(float), A, b, reg=0.0)
    for _ in range(150):
        d = int(rng.integers(1, 4))
        H = np.array(random_spec(rng, d, 0).Hs)
        c = rng.normal(size=d)
        a = rng.normal(size=d)
        scale = 10.0 ** rng.uniform(-170.0, 170.0)
        # duplicated rows: equal slacks, so the choice of row is a tie
        yield QPSpec(H, c, np.vstack([a, a, -a]) * scale,
                     np.array([1.0, 1.0, -3.0]) * scale * rng.uniform(0.5, 2.0))
        # nearly parallel rows, an angle of 1e-6..1e-13 apart
        tilt = rng.normal(size=d) * 10.0 ** rng.uniform(-13.0, -6.0)
        yield QPSpec(H, c, np.vstack([a, a + tilt, rng.normal(size=d)]),
                     rng.normal(size=3) + np.array([2.0, 2.0, 0.0]))
        # a pair that cannot hold together, among random rows
        rows = np.vstack([a, -a, rng.normal(size=(2, d))])
        yield QPSpec(H, c, rows, np.array([1.0, rng.uniform(-0.9, 0.0) - 0.2,
                                           -5.0, -5.0]))
        # rows scaled to either end of the exponent range
        A = rng.normal(size=(3, d)) * 10.0 ** rng.choice([-170.0, -150.0, 150.0, 170.0],
                                                         size=(3, 1))
        yield QPSpec(H, c, A, A @ rng.normal(size=d) + rng.normal(size=3) * np.abs(A).max(axis=1))


def test_solver_matches_numpy_bookkeeping_on_special_specs():
    rng = np.random.default_rng(909)
    outcomes = [assert_matches_oracle(spec) for spec in _special_specs(rng)]
    assert {o.status for o in outcomes if o is not None} == {"optimal", "infeasible"}
    # ties occur: two rows of a solved problem share one slack exactly
    assert any(o is not None and len(o.active_set) > 1 for o in outcomes)


def test_solver_matches_numpy_bookkeeping_under_a_tight_budget():
    rng = np.random.default_rng(17)
    for _ in range(100):
        assert_matches_oracle(random_spec(rng, 3, 6), max_iter=int(rng.integers(1, 4)))


def _specs_of_many_variables(rng, d):
    """random_spec draws, small-integer specs, and duplicated, nearly
    parallel and inconsistent rows, in d variables."""
    for k in (0, 1, 3, d - 1, d, d + 3):
        for _ in range(4):
            yield random_spec(rng, d, k)
    for _ in range(20):
        k = int(rng.integers(2, d + 4))
        yield QPSpec(np.diag(rng.integers(1, 4, size=d).astype(float)),
                     rng.integers(-3, 4, size=d).astype(float),
                     rng.integers(-2, 3, size=(k, d)).astype(float),
                     rng.integers(-3, 4, size=k).astype(float), reg=0.0)
    H, c, a = np.array(random_spec(rng, d, 0).Hs), rng.normal(size=d), rng.normal(size=d)
    yield QPSpec(H, c, np.vstack([a, a, -a]), np.array([1.0, 1.0, -3.0]))
    yield QPSpec(H, c, np.vstack([a, a + rng.normal(size=d) * 1e-9, rng.normal(size=d)]),
                 rng.normal(size=3) + np.array([2.0, 2.0, 0.0]))
    yield QPSpec(H, c, np.vstack([a, -a, rng.normal(size=(2, d))]),
                 np.array([1.0, -0.5, -5.0, -5.0]))


@pytest.mark.parametrize("d", [12, 13, 21])
def test_solver_matches_numpy_bookkeeping_with_many_variables(d):
    # from d = 12 on, index pairs such as (1, 10) and (11, 0) read alike
    # when written side by side with no separator
    rng = np.random.default_rng(1200 + d)
    specs = list(_specs_of_many_variables(rng, d))
    outcomes = [assert_matches_oracle(spec) for spec in specs]
    assert {o.status for o in outcomes if o is not None} == {"optimal", "infeasible"}
    for spec in specs[:12]:
        assert_same_solution(solve_qp(_as_lists(spec)), solve_qp(spec))
    H = np.array(specs[0].Hs)
    for i, j in ((11, 0), (0, 11), (1, 10), (10, 1), (1, 11), (11, 1)):
        asym = H.copy()
        asym[i, j] += 1e-6 * (1.0 + np.abs(H).max())
        with pytest.raises(ValueError, match="symmetric"):
            QPSpec(asym, np.zeros(d), [], [])
    for i in (10, 11, d - 1):
        indefinite = H.copy()
        indefinite[i, i] = -1.0
        with pytest.raises(IndefiniteQPError):
            QPSpec(indefinite, np.zeros(d), [], [])


def _recorded_filter_specs(monkeypatch, cfg, controller, x0, t_final):
    specs = []

    def record(spec, *args):
        specs.append(spec)
        return solve_qp(spec, *args)

    monkeypatch.setattr(safestab.filters, "solve_qp", record)
    integrate(cfg, make_controller(cfg, controller), SimConfig(x0=x0, t_final=t_final))
    monkeypatch.undo()
    return specs


@pytest.mark.parametrize("scenario,controller,p,t_final", [
    ("linear2d", "clf-cbf-qp", 1000.0, 2.5),
    ("linear2d", "cbf-qp", 10.0, 1.0),
    ("linear2d", "hybrid", 10.0, 2.0),
    ("tumor3d", "clf-cbf-qp", 10.0, 0.5),
    ("tumor3d", "cbf-qp", 10.0, 0.5),
    ("tumor3d", "s-cbf-qp", 10.0, 0.5),
])
def test_solver_matches_numpy_bookkeeping_along_runs(scenario, controller, p, t_final,
                                                     monkeypatch, request):
    bundle = request.getfixturevalue("linear" if scenario == "linear2d" else "tumor")
    cfg = make_filter_config(bundle.sys, bundle.clf, bundle.safe_set, gamma=1.0, p=p)
    x0 = ([2.2166634801674006, -1.8151809514247237] if scenario == "linear2d"
          else bundle.defaults["x0"])
    specs = _recorded_filter_specs(monkeypatch, cfg, controller, x0, t_final)
    assert len(specs) >= 100
    for spec in specs:
        assert_matches_oracle(spec)


@pytest.mark.parametrize("where", ["A", "b", "c"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_keep_the_numpy_outcome(where, value):
    rng = np.random.default_rng([ord(where), int(value > 0.0), int(math.isnan(value))])
    for _ in range(80):
        d, k = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        spec = random_spec(rng, d, k)
        arrays = dict(zip("HcAb", spec_arrays(spec)))
        arr = arrays[where]
        for _ in range(int(rng.integers(1, 3))):
            arr.flat[int(rng.integers(arr.size))] = value
        assert_matches_oracle(QPSpec(**arrays, reg=spec.reg))


def test_nan_iterate_and_nan_rows_are_pinned():
    # a NaN in c makes y NaN, so every slack is NaN and no row counts as
    # violated: "optimal" at once, with a NaN point
    spec = QPSpec(np.eye(2), np.array([math.nan, 0.0]), np.array([[1.0, 0.0]]),
                  np.array([5.0]))
    with np.errstate(all="ignore"):
        sol = solve_qp(spec)
    assert sol.status == "optimal" and sol.iterations == 1 and sol.active_set == []
    assert np.isnan(sol.zs).all() and math.isnan(sol.kkt_residual)
    assert_matches_oracle(spec)
    # a NaN row has a NaN tolerance and is never chosen; the other row is
    spec = QPSpec(np.eye(2), np.zeros(2), np.array([[math.nan, 1.0], [1.0, 0.0]]),
                  np.array([1.0, 2.0]))
    with np.errstate(all="ignore"):
        sol = solve_qp(spec)
    assert sol.status == "optimal" and sol.active_set == [1]
    assert sol.zs == [2.0, 0.0]
    assert_matches_oracle(spec)
    # an infinite bound makes its row's tolerance infinite: never violated
    spec = QPSpec(np.eye(1), np.zeros(1), np.array([[1.0]]), np.array([math.inf]))
    assert solve_qp(spec).zs == [0.0]
    assert_matches_oracle(spec)


def test_a_nan_bound_leaves_the_other_rows_as_they_are():
    # the finish tolerance 1e-10 * (1 + max|b|) is taken over the bounds
    # that are not NaN, so the zero-multiplier row 0 of the second spec stays
    # active; with the current |y| in place of the largest |y| met in the
    # violation test, the first spec takes 9 iterations instead of 3
    for spec, active, iterations in zip(NAN_BOUND_SPECS, ([0, 1], [0, 4, 5]), (3, 4)):
        with np.errstate(all="ignore"):
            sol = solve_qp(spec)
            H, c, A, b = spec_arrays(spec)
            without = solve_qp(QPSpec(H, c, A[:-1], b[:-1], reg=0.0))
        assert sol.status == "optimal" and sol.active_set == active
        assert sol.iterations == iterations
        assert sol.lams[-1] == 0.0
        assert_same_solution(without, SimpleNamespace(
            status=sol.status, iterations=sol.iterations, active_set=sol.active_set,
            zs=sol.zs, lams=sol.lams[:-1], kkt_residual=without.kkt_residual))
        assert_matches_oracle(spec)
    assert solve_qp(NAN_BOUND_SPECS[1]).lams[0] == 0.0


def test_multiplier_rounded_below_zero_is_clamped():
    # rows enter in the order 2, 1, 0; the step that adds row 0 brings row
    # 1's multiplier to zero just as row 0 comes to hold (t1 == t2 =
    # 4.000000000000001, so row 1 stays active), and u - t * r rounds to
    # -1.1e-16 there; the clamp reports +0.0, as the oracle's np.maximum does
    spec = QPSpec(np.eye(3), [1.0857142857142859, -0.6571428571428573, 1.1142857142857145],
                  [[0.8, 1.2, -2.6], [3.6, 0.0, 0.0], [0.0, 0.0, 3.0]],
                  [-1.3428571428571432, -1.0285714285714285, 3.8571428571428577], reg=0.0)
    sol = solve_qp(spec)
    assert sol.status == "optimal" and sol.active_set == [0, 1, 2]
    assert sol.lams == [1.0000000000000002, 0.0, 1.666666666666667]
    assert not np.signbit(sol.lams).any()
    assert_matches_oracle(spec)


# -- shared factor and the residual computed on read --------------------------

def test_spec_sharing_a_factor_solves_as_a_fresh_spec():
    rng = np.random.default_rng(55)
    for _ in range(300):
        d, k = int(rng.integers(1, 4)), int(rng.integers(0, 7))
        fresh = random_spec(rng, d, k)
        H, c, A, b = spec_arrays(fresh)
        template = QPSpec(H, c, np.zeros((0, d)), np.zeros(0), reg=fresh.reg)
        shared = template.with_rows(A.tolist(), b.tolist())
        assert shared._factor is template._factor and template.n_rows == 0
        assert _bits(shared.As) == _bits(fresh.As)
        assert_same_solution(solve_qp(shared), solve_qp(fresh))
    with pytest.raises(ValueError):
        template.with_rows(np.ones((2, d)), np.ones(3))


def test_kkt_residual_is_computed_from_the_spec_when_read():
    rng = np.random.default_rng(66)
    for _ in range(200):
        d, k = int(rng.integers(1, 4)), int(rng.integers(0, 7))
        spec = random_spec(rng, d, k)
        sol = solve_qp(spec)
        assert "kkt_residual" not in vars(sol)   # nothing computed yet
        if not sol.optimal:
            assert sol.kkt_residual == math.inf
            continue
        want = _kkt_oracle(*_kkt_args(spec, sol))
        assert _bits(sol.kkt_residual) == _bits(want)


# the largest |kkt_residual - _kkt_numpy| the test below allows. Measured on
# its draws: 1.7e-10 on random_spec draws, whose badly scaled problems have
# residuals of up to 2e-9 (both values are rounding noise), 5.3e-11 at d =
# 12 and 13, and 5.3e-15 on the special and non-finite specs; 0 at d = 1
KKT_NUMPY_BOUND = 1e-9


def test_kkt_residual_matches_the_numpy_form_within_a_bound():
    # the loop oracle gives the same bits everywhere; numpy's @ goes through
    # BLAS, whose sums for d >= 2 differ in the last bits. With d = 1 and at
    # most one row every product stands alone, and the bits agree
    rng = np.random.default_rng(2020)
    specs = [random_spec(rng, d, k) for d in (1, 2, 3) for k in range(7) for _ in range(30)]
    specs += [spec for d in (12, 13) for spec in _specs_of_many_variables(rng, d)]
    specs += list(_special_specs(rng)) + list(_non_finite_specs(rng))
    seen = set()
    with np.errstate(all="ignore"):
        for spec in specs:
            sol = solve_qp(spec)
            if not sol.optimal:
                assert sol.kkt_residual == math.inf
                seen.add("infeasible")
                continue
            args = _kkt_args(spec, sol)
            got, want = sol.kkt_residual, _kkt_numpy(*args)
            assert _bits(got) == _bits(_kkt_oracle(*args))
            if math.isnan(want):
                assert math.isnan(got)
                seen.add("nan")
            elif spec.dim == 1 and spec.n_rows <= 1:
                assert _bits(got) == _bits(want)
            else:
                assert got == want or abs(got - want) <= KKT_NUMPY_BOUND
            if spec.dim > 3:
                seen.add(spec.dim)
            if not spec.n_rows:
                seen.add("no rows")
    assert seen >= {"infeasible", "nan", "no rows", 12, 13}


def test_integrate_never_computes_the_kkt_residual(linear, monkeypatch):
    def unused(*args):
        raise AssertionError("KKT residual computed")

    monkeypatch.setattr(safestab.qp, "_kkt_of", unused)
    cfg = make_filter_config(linear.sys, linear.clf, linear.safe_set, gamma=1.0, p=10.0)
    for name in ("cbf-qp", "clf-cbf-qp", "s-cbf-qp", "hybrid"):
        traj = integrate(cfg, make_controller(cfg, name),
                         SimConfig(x0=linear.defaults["x0"], t_final=0.2))
        assert traj.status == "ok"


# -- specs of floats ------------------------------------------------------------

def _as_lists(spec):
    return QPSpec(*(a.tolist() for a in spec_arrays(spec)), reg=spec.reg)


def _non_finite_specs(rng):
    """random_spec draws with one to two entries of A, b or c set to NaN,
    inf or -inf."""
    for where in "Abc":
        for value in (math.nan, math.inf, -math.inf):
            for _ in range(30):
                spec = random_spec(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6)))
                arrays = dict(zip("HcAb", spec_arrays(spec)))
                for _ in range(int(rng.integers(1, 3))):
                    arrays[where].flat[int(rng.integers(arrays[where].size))] = value
                yield QPSpec(**arrays, reg=spec.reg)


def test_specs_of_float_lists_solve_as_specs_of_arrays():
    rng = np.random.default_rng(1717)
    specs = [random_spec(rng, d, k) for d in (1, 2, 3) for k in range(7) for _ in range(20)]
    specs += list(_special_specs(rng)) + list(_non_finite_specs(rng))
    with np.errstate(all="ignore"):
        for spec in specs:
            listed = _as_lists(spec)
            assert type(listed.As) is list and _bits(listed.As) == _bits(spec.As)
            assert_same_solution(solve_qp(listed), solve_qp(spec))
            for max_iter in (1, 2):
                try:
                    want = solve_qp(spec, max_iter)
                except QPIterationError:
                    with pytest.raises(QPIterationError):
                        solve_qp(listed, max_iter)
                    continue
                assert_same_solution(solve_qp(listed, max_iter), want)


def test_with_rows_of_float_lists_reads_back_the_arrays_of_a_fresh_spec():
    rng = np.random.default_rng(1818)
    for d in (1, 2, 3):
        for k in range(5):
            fresh = random_spec(rng, d, k)
            H, c, A, b = (a.tolist() for a in spec_arrays(fresh))
            shared = QPSpec(H, c, [], [], reg=fresh.reg).with_rows(A, b)
            for got, want in zip(spec_arrays(shared), spec_arrays(fresh)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("controller,state", [("clf-cbf-qp", 0), ("hybrid", 1)])
def test_a_controller_step_builds_no_qp_array(controller, state, linear_cfg, linear,
                                              monkeypatch):
    # a state the hybrid law takes to R2, 12 steps into its run from x0
    x = np.array(linear.defaults["x0"]) if not state else integrate(
        linear_cfg, make_controller(linear_cfg, "hybrid"),
        SimConfig(x0=linear.defaults["x0"], t_final=0.012)).states[-1]
    built, solved = [], []

    def spec(*args, **kwargs):
        built.append(QPSpec(*args, **kwargs))
        return built[-1]

    def solve(spec, *args):
        solved.append((spec, solve_qp(spec, *args)))
        return solved[-1][1]

    monkeypatch.setattr(safestab.filters, "QPSpec", spec)
    monkeypatch.setattr(safestab.filters, "solve_qp", solve)
    u, ev = make_controller(linear_cfg, controller)(x)
    assert ev.region == state and len(solved) == 1 and built
    # the specs and the solution hold floats, and no residual is computed
    held = [v for obj in built + [o for pair in solved for o in pair] for v in vars(obj).values()]
    assert not any(isinstance(v, np.ndarray) for v in held)
    assert "kkt_residual" not in vars(solved[0][1])
