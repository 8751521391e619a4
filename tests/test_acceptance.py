"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its measured runtime. Expensive artifacts (DOA estimates, the ten tumor
runs, the pathology sweep) are shared through module-scoped fixtures; the
stated wall-clock budget is asserted where the work actually happens.
"""
import math
import time

import numpy as np
import pytest

from safestab import (EquilibriumPair, build_scenario, closed_form_ustar,
                      compute_c_star, equilibrium_residual,
                      largest_clf_sublevel_inside, s_cbf_qp_filter,
                      sontag_control, sontag_terms)
from safestab.doa import sample_states_in_awc
from safestab.errors import SafeStabError
from safestab.filters import (Region, classify_region, make_controller,
                              make_filter_config)
from safestab.qp import solve_qp
from safestab.sim import SimConfig, compute_metrics, integrate

from test_qp import grid_search_oracle, random_feasible_spec


def report(criterion, passed, elapsed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {criterion} ({elapsed:.3f}s): {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def tumor_bundle():
    return build_scenario("tumor3d")


@pytest.fixture(scope="module")
def linear_bundle():
    return build_scenario("linear2d")


@pytest.fixture(scope="module")
def tumor_runs(tumor_bundle):
    """Ten hybrid-law trajectories from seeded states inside A_WC (gamma=1,
    dt=1e-3, t_final=50), plus the wall time of estimate + sampling + runs."""
    t0 = time.perf_counter()
    cfg = make_filter_config(tumor_bundle.sys, tumor_bundle.clf,
                             tumor_bundle.safe_set, gamma=1.0)
    est = compute_c_star(cfg, (21, 21, 21), (0.2, 60.0))
    x0s = sample_states_in_awc(est, cfg, 10, seed=42)
    ctrl = make_controller(cfg, "hybrid")
    runs = []
    for x0 in x0s:
        traj = integrate(cfg, ctrl, SimConfig(x0=x0, t_final=50.0, dt=1e-3))
        runs.append((x0, traj, compute_metrics(traj, tumor_bundle.eq, eps=1e-2)))
    return {"cfg": cfg, "estimate": est, "runs": runs,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def pathology_runs(linear_bundle):
    """Hybrid baseline plus the CLF-CBF-QP p-sweep from the same x0
    (the bundled reconstruction), dt=1e-3, t_final=10."""
    t0 = time.perf_counter()
    x0 = np.asarray(linear_bundle.defaults["x0"])
    out = {}
    cfg_h = make_filter_config(linear_bundle.sys, linear_bundle.clf,
                               linear_bundle.safe_set, gamma=1.0)
    traj = integrate(cfg_h, make_controller(cfg_h, "hybrid"),
                     SimConfig(x0=x0, t_final=10.0, dt=1e-3))
    out["hybrid"] = (traj, compute_metrics(traj, linear_bundle.eq, eps=0.1))
    for p in (1.0, 10.0, 100.0, 1000.0):
        cfg = make_filter_config(linear_bundle.sys, linear_bundle.clf,
                                 linear_bundle.safe_set, gamma=1.0, p=p)
        traj = integrate(cfg, make_controller(cfg, "clf-cbf-qp"),
                         SimConfig(x0=x0, t_final=10.0, dt=1e-3))
        out[p] = (traj, compute_metrics(traj, linear_bundle.eq, eps=0.1))
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_01_equilibrium_reproduction(tumor_bundle):
    printed = EquilibriumPair([6.4286, 7.1429, 3.5714], [-0.4])
    equilibrium_residual(tumor_bundle.sys, printed)  # warm-up
    t0 = time.perf_counter()
    residual = equilibrium_residual(tumor_bundle.sys, printed)
    elapsed = time.perf_counter() - t0
    report(1, residual <= 1e-3 and elapsed < 1e-3, elapsed,
           f"|f(x_e)+g(x_e)u_e|_inf = {residual:.3e} at the published 4-decimal "
           f"values (<= 1e-3), evaluated in {elapsed * 1e6:.0f} us")


def test_criterion_02_sontag_decrease_identity(linear_bundle, tumor_bundle):
    t0 = time.perf_counter()
    worst = 0.0
    for seed, bundle in ((11, linear_bundle), (12, tumor_bundle)):
        cfg = make_filter_config(bundle.sys, bundle.clf, bundle.safe_set, gamma=1.0)
        rng = np.random.default_rng(seed)
        tested = 0
        while tested < 1000:
            x = rng.uniform(bundle.domain[:, 0], bundle.domain[:, 1])
            a, b = sontag_terms(bundle.sys, bundle.clf, x)
            bb = float(b @ b)
            if math.sqrt(bb) <= 1e-8:
                continue
            u = sontag_control(cfg, x)
            wdot = float(bundle.clf.grad(x) @ (bundle.sys.f(x) + bundle.sys.g(x) @ u))
            err = abs(wdot + math.sqrt(a * a + bb * bb)) / (1.0 + abs(a) + bb)
            worst = max(worst, err)
            tested += 1
    elapsed = time.perf_counter() - t0
    report(2, worst <= 1e-9 and elapsed < 1.0, elapsed,
           f"identity residual <= {worst:.2e} (tol 1e-9) at 1000 states/scenario")


def test_criterion_03_closed_form_qp_equivalence(linear_bundle):
    t0 = time.perf_counter()
    cfg = make_filter_config(linear_bundle.sys, linear_bundle.clf,
                             linear_bundle.safe_set, gamma=1.0)
    rng = np.random.default_rng(33)
    checked, skipped, worst = 0, 0, 0.0
    while checked < 500:
        x = rng.uniform(linear_bundle.domain[:, 0], linear_bundle.domain[:, 1])
        if linear_bundle.safe_set.min_value(x) < 0.0:
            continue
        if classify_region(cfg, x) != Region.R2:
            continue
        try:
            u_cf, _ = closed_form_ustar(cfg, x)
        except SafeStabError:
            skipped += 1  # outside the single-active-row regime
            continue
        u_qp = s_cbf_qp_filter(cfg, x)
        worst = max(worst, float(np.abs(u_cf - u_qp).max()))
        checked += 1
    elapsed = time.perf_counter() - t0
    report(3, worst <= 1e-8 and elapsed < 5.0, elapsed,
           f"|u_formula - u_qp| <= {worst:.2e} on {checked} R2 states "
           f"({skipped} degenerate states skipped)")


def test_criterion_04_qp_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst_obj, worst_kkt = 0.0, 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        spec = random_feasible_spec(rng, d, k)
        sol = solve_qp(spec)
        assert sol.optimal
        worst_kkt = max(worst_kkt, sol.kkt_residual)
        _, oracle_obj = grid_search_oracle(spec)
        worst_obj = max(worst_obj, abs(spec.objective(sol.zs) - oracle_obj))
    elapsed = time.perf_counter() - t0
    report(4, worst_obj <= 1e-6 and worst_kkt <= 1e-7 and elapsed < 30.0, elapsed,
           f"50 random QPs: |obj - oracle| <= {worst_obj:.2e} (tol 1e-6), "
           f"KKT residual <= {worst_kkt:.2e} (tol 1e-7)")


def test_criterion_05_tumor_forward_invariance(tumor_runs):
    worst_h = math.inf
    worst_conv = 0.0
    ok = True
    for x0, traj, metrics in tumor_runs["runs"]:
        worst_h = min(worst_h, metrics.min_h)
        conv = max(metrics.convergence_time, 0.0)
        worst_conv = max(worst_conv, conv)
        ok &= traj.status == "ok" and metrics.min_h >= -1e-6 and conv <= 50.0
    elapsed = tumor_runs["elapsed"]
    report(5, ok and elapsed < 60.0, elapsed,
           f"10 A_WC starts: min_t,i h = {worst_h:.3e} (>= -1e-6), slowest "
           f"|x-x_e|<=1e-2 entry at t = {worst_conv:.2f} (<= 50)")


def test_criterion_06_lyapunov_monotonicity(tumor_runs):
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for x0, traj, metrics in tumor_runs["runs"]:
        bound = 1e-6 * float(traj.w_values.max())
        worst_ratio = max(worst_ratio,
                          metrics.w_monotone_violation / bound if bound else 0.0)
    elapsed = time.perf_counter() - t0
    report(6, worst_ratio <= 1.0, elapsed,
           f"largest positive W jump is {worst_ratio:.2e} of the 1e-6*maxW "
           f"bound across the criterion-5 runs")


def test_criterion_07_pathology_reproduction(pathology_runs):
    hyb_traj, hyb = pathology_runs["hybrid"]
    sweep = {p: pathology_runs[p] for p in (1.0, 10.0, 100.0, 1000.0)}
    worst_tv = max(m.input_tv for _, m in sweep.values())
    worst_conv = max(m.convergence_time for _, m in sweep.values())
    hybrid_ok = (hyb_traj.status == "ok" and math.isfinite(hyb.convergence_time)
                 and hyb.min_h >= -1e-6)
    tv_ordering = worst_tv >= 10.0 * hyb.input_tv
    conv_ordering = worst_conv >= 5.0 * hyb.convergence_time
    elapsed = pathology_runs["elapsed"]
    report(7, hybrid_ok and tv_ordering and conv_ordering and elapsed < 60.0,
           elapsed,
           f"worst-p input TV {worst_tv:.1f} vs hybrid {hyb.input_tv:.1f} "
           f"(>= 10x), worst-p convergence {worst_conv} vs hybrid "
           f"{hyb.convergence_time:.2f} (>= 5x)")


def test_criterion_08_doa_improvement(linear_bundle):
    t0 = time.perf_counter()
    cfg = make_filter_config(linear_bundle.sys, linear_bundle.clf,
                             linear_bundle.safe_set, gamma=1.0)
    est = compute_c_star(cfg, (41, 41), (0.5, 120.0))
    c_triv = largest_clf_sublevel_inside(cfg, seed=1)
    monotone = all(ok2 for c1, ok1 in est.tested for c2, ok2 in est.tested
                   if c2 < c1 and ok1)
    elapsed = time.perf_counter() - t0
    report(8, est.c_star >= c_triv and monotone and elapsed < 120.0, elapsed,
           f"c* = {est.c_star:.3f} >= trivial level {c_triv:.3f}; bisection "
           f"feasibility monotone over {len(est.tested)} probes")


def test_criterion_09_switching_continuity(tumor_runs, pathology_runs):
    t0 = time.perf_counter()
    events = []
    for _, traj, _ in tumor_runs["runs"]:
        events.extend(traj.switch_events)
    events.extend(pathology_runs["hybrid"][0].switch_events)
    checked = [ev for ev in events if not ev.activation_changed]
    excluded = len(events) - len(checked)
    worst = max((ev.input_jump for ev in checked), default=0.0)
    elapsed = time.perf_counter() - t0
    report(9, len(events) >= 1 and worst <= 1e-2, elapsed,
           f"{len(events)} hybrid switch events logged, {excluded} excluded "
           f"for CBF-row activation flips, max remaining input jump "
           f"{worst:.2e} (<= 1e-2)")


def test_criterion_10_rk4_order_sanity(linear_bundle):
    from safestab.filters import evaluate
    t0 = time.perf_counter()
    cfg = make_filter_config(linear_bundle.sys, linear_bundle.clf,
                             linear_bundle.safe_set)
    x0 = np.asarray(linear_bundle.defaults["x0"])
    zero = lambda x: (np.zeros(1), evaluate(cfg, x))
    finals = {}
    for dt in (1e-3, 5e-4):
        traj = integrate(cfg, zero, SimConfig(x0=x0, t_final=1.0, dt=dt))
        finals[dt] = traj.states[-1]
    diff = float(np.abs(finals[1e-3] - finals[5e-4]).max())
    elapsed = time.perf_counter() - t0
    report(10, diff <= 1e-6, elapsed,
           f"halving dt moves the open-loop final state by {diff:.2e} (<= 1e-6)")
