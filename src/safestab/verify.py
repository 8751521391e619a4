"""Runtime verification suite: gradient checks, decrease identity, KKT
residuals, closed-form equivalence, and scenario invariants, reported as one
pass, fail or skip (the check does not apply to the scenario) per check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .core import (equilibrium_residual, fd_gradient, is_valid_local_clf,
                   rejection_sample, sample_ball, sontag_terms, validate_clf_matrix)
from .errors import DecreaseIdentityError, SafeStabError, ScenarioError
from .filters import (FilterConfig, Region, closed_form_of, evaluate, make_filter_config,
                      s_cbf_qp_filter, s_cbf_qp_spec)
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
    skipped: bool = False   # a skipped check passes, so that it fails nothing


def _sample_domain(bundle: ScenarioBundle, count: int, rng) -> np.ndarray:
    return rng.uniform(bundle.domain[:, 0], bundle.domain[:, 1], size=(count, bundle.sys.n))


def _sample_safe(bundle: ScenarioBundle, count: int, rng) -> np.ndarray:
    return rejection_sample(rng, bundle.domain[:, 0], bundle.domain[:, 1],
                            lambda X: bundle.safe_set.min_value(X) >= 0.0,
                            count, SAFE_MAX_TRIES)


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


def _worst_rel_err(g_true: np.ndarray, g_fd: np.ndarray) -> float:
    """The largest |g_true - g_fd|_inf / (1 + |g_true|_inf) over a stack of
    gradients (N, n); NaN if any is NaN."""
    err = np.abs(g_true - g_fd).max(axis=1) / (1.0 + np.abs(g_true).max(axis=1))
    return float(err.max(initial=0.0))


def check_clf_gradient(bundle: ScenarioBundle, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    X = _sample_domain(bundle, GRADIENT_SAMPLES, rng)
    worst = _worst_rel_err(bundle.clf.grad(X), fd_gradient(bundle.clf.value, X))
    return CheckResult("clf_gradient_fd", worst <= 1e-5, f"worst rel err {worst:.2e}")


def check_barrier_gradients(bundle: ScenarioBundle, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    X = _sample_safe(bundle, GRADIENT_SAMPLES, rng)
    worst = float(np.max([_worst_rel_err(bar.grad_h(X), fd_gradient(bar.h, X))
                          for bar in bundle.safe_set.barriers]))
    return CheckResult("barrier_gradient_fd", worst <= 1e-5, f"worst rel err {worst:.2e}")


def check_decrease_identity(cfg: FilterConfig, bundle: ScenarioBundle, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    X = _sample_domain(bundle, DECREASE_SAMPLES, rng)
    _, b = sontag_terms(cfg.sys, cfg.clf, X)
    X = X[~(np.linalg.norm(b, axis=1) <= 1e-8)]
    try:
        rates = sontag_decrease_rate(cfg, X)
    except DecreaseIdentityError as exc:
        return CheckResult("sontag_decrease_identity", False, str(exc))
    away = np.linalg.norm(X - cfg.clf.equilibrium.x_e, axis=1) > 1e-9
    strict_ok = not (away & (rates >= 0.0)).any()
    return CheckResult("sontag_decrease_identity", strict_ok and X.shape[0] > 0,
                       f"identity held at {X.shape[0]} states, strict decrease {strict_ok}")


def check_kkt_residuals(cfg: FilterConfig, bundle: ScenarioBundle, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    ev = evaluate(cfg, _sample_safe(bundle, KKT_SAMPLES, rng))
    residuals, active = [], 0
    for i in range(ev.x.shape[0]):
        sol = solve_qp(s_cbf_qp_spec(cfg, ev.row(i)))
        if sol.optimal:
            active += bool(sol.active_set)
            residuals.append(sol.kkt_residual)
    worst = float(np.max(residuals, initial=0.0))
    return CheckResult("kkt_residuals", bool(residuals) and worst <= 1e-7,
                       f"{len(residuals)} filter QPs ({active} with an active row), "
                       f"worst residual {worst:.2e}")


def check_closed_form(cfg: FilterConfig, bundle: ScenarioBundle, seed: int) -> CheckResult:
    if cfg.sys.m != 1 or len(cfg.safe_set) != 1:
        return CheckResult("closed_form_equivalence", True,
                           "needs m=1 and a single barrier", skipped=True)
    rng = np.random.default_rng(seed)
    errs = []
    pts = _sample_safe(bundle, 20 * CLOSED_FORM_SAMPLES, rng)
    ev = evaluate(cfg, pts)
    for i in np.flatnonzero(ev.label.value == Region.R2):
        if len(errs) >= CLOSED_FORM_SAMPLES:
            break
        try:
            u_formula, _ = closed_form_of(cfg, ev.row(i))
            u_qp = s_cbf_qp_filter(cfg, pts[i])
        except SafeStabError:
            continue
        errs.append(np.abs(u_formula - u_qp).max())
    # np.max, unlike max, keeps a NaN error
    worst = float(np.max(errs, initial=0.0))
    return CheckResult("closed_form_equivalence", bool(errs) and worst <= 1e-8,
                       f"{len(errs)} R2 states, worst |u_formula - u_qp| = {worst:.2e}")


def check_local_clf(bundle: ScenarioBundle, seed: int) -> CheckResult:
    ok, witness = is_valid_local_clf(bundle.sys, bundle.clf, LOCAL_CLF_RADIUS, seed=seed)
    detail = "no counterexample" if ok else f"witness {witness}"
    return CheckResult("local_clf_validity", ok, detail)


def check_r1_proper(cfg: FilterConfig, seed: int) -> CheckResult:
    """Numerical stand-in for the assumption that R1 contains x_e in its
    interior: a small ball around x_e must classify R1 throughout."""
    rng = np.random.default_rng(seed)
    x_e = cfg.clf.equilibrium.x_e
    pts = sample_ball(x_e, R1_RADIUS, R1_SAMPLES, rng)
    ev = evaluate(cfg, pts)
    for x, x_unsafe, x_r2 in zip(pts, ev.h.min(axis=1) < 0.0, ev.label.value != Region.R1):
        if x_unsafe:
            return CheckResult("r1_proper", False, f"safe set excludes {x}")
        if x_r2:
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
