"""Runtime verification suite: gradient checks, decrease identity, KKT
residuals, closed-form equivalence, and scenario invariants, reported as one
pass/fail result per check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .core import (equilibrium_residual, fd_gradient, is_valid_local_clf,
                   sontag_terms, validate_clf_matrix)
from .errors import DecreaseIdentityError, SafeStabError, ScenarioError
from .filters import (FilterConfig, Region, classify_region, closed_form_ustar,
                      evaluate, make_filter_config, s_cbf_qp_filter, s_cbf_qp_spec)
# QPSpec is unused here but stays bound: the benchmark's tracer
# (bench/instrument.py) wraps it in this module
from .qp import QPSpec, solve_qp  # noqa: F401
from .scenarios import ScenarioBundle
from .sontag import sontag_decrease_rate

EQ_TOL = 1e-3                # max-norm of f(x_e) + g(x_e) u_e
GRADIENT_SAMPLES = 100       # states per finite-difference gradient check
DECREASE_SAMPLES = 1000      # states for the decrease identity
KKT_SAMPLES = 200            # safe states whose filter QP is solved
CLOSED_FORM_SAMPLES = 200    # R2 states compared with the closed form
LOCAL_CLF_RADIUS = 0.5       # ball around x_e searched for a local-CLF failure
R1_RADIUS = 1e-2             # ball around x_e that must classify R1 throughout
R1_SAMPLES = 100             # states drawn from that ball
SAFE_MAX_TRIES = 50000       # draws _sample_safe makes before it stops


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _sample_domain(bundle: ScenarioBundle, count: int, rng) -> np.ndarray:
    return rng.uniform(bundle.domain[:, 0], bundle.domain[:, 1], size=(count, bundle.sys.n))


def _sample_safe(bundle: ScenarioBundle, count: int, rng) -> np.ndarray:
    out = []
    for _ in range(SAFE_MAX_TRIES):
        x = rng.uniform(bundle.domain[:, 0], bundle.domain[:, 1])
        if bundle.safe_set.min_value(x) >= 0.0:
            out.append(x)
            if len(out) == count:
                break
    return np.array(out)


def check_equilibrium(bundle: ScenarioBundle) -> CheckResult:
    res = equilibrium_residual(bundle.sys, bundle.eq)
    return CheckResult("equilibrium_residual", res <= EQ_TOL,
                       f"|f(x_e)+g(x_e)u_e|_inf = {res:.3e} (tol {EQ_TOL:.0e})")


def check_clf_matrix(bundle: ScenarioBundle) -> CheckResult:
    try:
        validate_clf_matrix(bundle.clf.P)
    except ScenarioError as exc:
        return CheckResult("clf_matrix", False, str(exc))
    return CheckResult("clf_matrix", True, "P symmetric positive definite")


def check_clf_gradient(bundle: ScenarioBundle, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for x in _sample_domain(bundle, GRADIENT_SAMPLES, rng):
        g_true = bundle.clf.grad(x)
        g_fd = fd_gradient(bundle.clf.value, x)
        worst = max(worst, float(np.abs(g_true - g_fd).max() / (1.0 + np.abs(g_true).max())))
    return CheckResult("clf_gradient_fd", worst <= 1e-5, f"worst rel err {worst:.2e}")


def check_barrier_gradients(bundle: ScenarioBundle, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    pts = _sample_safe(bundle, GRADIENT_SAMPLES, rng)
    worst = 0.0
    for bar in bundle.safe_set.barriers:
        for x in pts:
            g_true = bar.gradient(x)
            g_fd = fd_gradient(bar.value, x)
            worst = max(worst, float(np.abs(g_true - g_fd).max() / (1.0 + np.abs(g_true).max())))
    return CheckResult("barrier_gradient_fd", worst <= 1e-5, f"worst rel err {worst:.2e}")


def check_decrease_identity(cfg: FilterConfig, bundle: ScenarioBundle, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    tested = 0
    strict_ok = True
    try:
        for x in _sample_domain(bundle, DECREASE_SAMPLES, rng):
            _, b = sontag_terms(cfg.sys, cfg.clf, x)
            if np.linalg.norm(b) <= 1e-8:
                continue
            rate = sontag_decrease_rate(cfg, x)
            tested += 1
            if np.linalg.norm(x - cfg.clf.equilibrium.x_e) > 1e-9 and rate >= 0.0:
                strict_ok = False
    except DecreaseIdentityError as exc:
        return CheckResult("sontag_decrease_identity", False, str(exc))
    return CheckResult("sontag_decrease_identity", strict_ok and tested > 0,
                       f"identity held at {tested} states, strict decrease {strict_ok}")


def check_kkt_residuals(cfg: FilterConfig, bundle: ScenarioBundle, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    solved = active = 0
    for x in _sample_safe(bundle, KKT_SAMPLES, rng):
        sol = solve_qp(s_cbf_qp_spec(cfg, evaluate(cfg, x)))
        if sol.optimal:
            solved += 1
            active += bool(sol.active_set)
            worst = max(worst, sol.kkt_residual)
    return CheckResult("kkt_residuals", solved > 0 and worst <= 1e-7,
                       f"{solved} filter QPs ({active} with an active row), "
                       f"worst residual {worst:.2e}")


def check_closed_form(cfg: FilterConfig, bundle: ScenarioBundle, seed: int) -> CheckResult:
    if cfg.sys.m != 1 or len(cfg.safe_set) != 1:
        return CheckResult("closed_form_equivalence", True,
                           "skipped (needs m=1 and a single barrier)")
    rng = np.random.default_rng(seed)
    worst = 0.0
    found = 0
    for x in _sample_safe(bundle, 20 * CLOSED_FORM_SAMPLES, rng):
        if found >= CLOSED_FORM_SAMPLES:
            break
        label = classify_region(cfg, x)
        if label.value != Region.R2:
            continue
        try:
            u_formula, _ = closed_form_ustar(cfg, x)
            u_qp = s_cbf_qp_filter(cfg, x)
        except SafeStabError:
            continue
        found += 1
        worst = max(worst, float(np.abs(u_formula - u_qp).max()))
    return CheckResult("closed_form_equivalence", found > 0 and worst <= 1e-8,
                       f"{found} R2 states, worst |u_formula - u_qp| = {worst:.2e}")


def check_local_clf(bundle: ScenarioBundle, seed: int) -> CheckResult:
    ok, witness = is_valid_local_clf(bundle.sys, bundle.clf, LOCAL_CLF_RADIUS, seed=seed)
    detail = "no counterexample" if ok else f"witness {witness}"
    return CheckResult("local_clf_validity", ok, detail)


def check_r1_proper(cfg: FilterConfig, seed: int) -> CheckResult:
    """Numerical stand-in for the assumption that R1 contains x_e in its
    interior: a small ball around x_e must classify R1 throughout."""
    rng = np.random.default_rng(seed)
    x_e = cfg.clf.equilibrium.x_e
    from .core import sample_ball
    for x in sample_ball(x_e, R1_RADIUS, R1_SAMPLES, rng):
        if cfg.safe_set.min_value(x) < 0.0:
            return CheckResult("r1_proper", False, f"safe set excludes {x}")
        if classify_region(cfg, x).value != Region.R1:
            return CheckResult("r1_proper", False, f"R2 state at distance {np.linalg.norm(x - x_e):.1e}")
    return CheckResult("r1_proper", True, f"ball radius {R1_RADIUS} all R1")


def check_barrier_positive_at_eq(bundle: ScenarioBundle) -> CheckResult:
    vals = bundle.safe_set.values(bundle.eq.x_e)
    return CheckResult("barriers_positive_at_xe", bool(vals.min() > 0.0),
                       f"h(x_e) = {np.round(vals, 6).tolist()}")


def run_checks(bundle: ScenarioBundle, seed: int = 0, gamma: float = 1.0) -> List[CheckResult]:
    cfg = make_filter_config(bundle.sys, bundle.clf, bundle.safe_set, gamma=gamma)
    return [
        check_equilibrium(bundle),
        check_clf_matrix(bundle),
        check_barrier_positive_at_eq(bundle),
        check_clf_gradient(bundle, seed),
        check_barrier_gradients(bundle, seed + 1),
        check_decrease_identity(cfg, bundle, seed + 2),
        check_kkt_residuals(cfg, bundle, seed + 3),
        check_closed_form(cfg, bundle, seed + 4),
        check_local_clf(bundle, seed + 5),
        check_r1_proper(cfg, seed + 6),
    ]
