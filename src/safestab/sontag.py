"""Modified Sontag universal feedback with convergence-rate gain gamma and
support for non-zero equilibrium inputs.

u(x) = u_e + kappa(x),   kappa = b' * (-a - gamma*sqrt(a^2 + |b'|^4)) / |b'|^2,

with a = gradW'(f + g u_e), b = gradW' g, and kappa := 0 wherever |b| falls
to core.B_FLOOR or below (the small-control convention at the equilibrium).
The formula has one body, core.kappa, which filters.evaluate applies and
sontag_control reads. sontag_decrease_rate checks its decrease identity on an
independent path (sontag_terms, clf.grad), so it takes any CLF-like object.
"""
from __future__ import annotations

import numpy as np

from .core import B_FLOOR, affine_of, dot_of, kappa, sontag_terms, state_parts
from .errors import DecreaseIdentityError
# sontag_control, defined in filters, stays bound: the package exports it from
# here, and the benchmark's tracer (bench/instrument.py) wraps it in this module
from .filters import FilterConfig, sontag_control  # noqa: F401


def sontag_decrease_rate(cfg: FilterConfig, x):
    """dW/dt along the closed loop, checked against -gamma*sqrt(a^2 + |b|^4):
    a float for one state, an (N,) array for a stack (N, n).

    a and b come from sontag_terms; dW/dt from a second call of clf.grad and
    of the system's fg, as the explicit sum gradW . (f + g u) on floats or
    columns (from the gradient behind a and b, the identity would hold by
    construction and check nothing), with u from core.kappa. Raises
    DecreaseIdentityError when the algebraic identity from the universal
    formula fails beyond rounding, and ValueError when evaluated where b
    vanishes away from the equilibrium (the identity does not apply there);
    on a stack, for the first such state in its order. Either error names
    the state.
    """
    x, part = state_parts(cfg.sys, x)
    n, m = cfg.sys.n, cfg.sys.m
    a, b = sontag_terms(cfg.sys, cfg.clf, x)
    b = part(b)
    bb = dot_of(m)(b, b)
    u = [ue + k for ue, k in zip(cfg.clf.equilibrium.u_e.tolist(), kappa(cfg.gamma, a, b, bb))]
    wdot = dot_of(n)(part(cfg.clf.grad(x)), affine_of(n, m)(*cfg.sys.fg(part(x)), u))
    target = -cfg.gamma * np.sqrt(a * a + bb * bb)
    tol = 1e-9 * (1.0 + np.abs(a) + bb) * max(1.0, cfg.gamma)
    vanish = np.sqrt(bb) <= B_FLOOR
    undefined = vanish & (np.linalg.norm(x - cfg.clf.equilibrium.x_e, axis=-1) > 1e-9)
    violated = ~vanish & (np.abs(wdot - target) > tol)
    failed = np.atleast_1d(undefined | violated)
    if failed.any():
        i = int(np.argmax(failed))
        at = np.atleast_2d(x)[i].tolist()
        if np.atleast_1d(undefined)[i]:
            raise ValueError(f"decrease rate undefined where b vanishes away from x_e, "
                             f"at x={at}")
        w, t = (float(np.atleast_1d(v)[i]) for v in (wdot, target))
        raise DecreaseIdentityError(
            f"decrease identity violated at x={at}: dW/dt={w!r}, expected {t!r}")
    rate = np.where(vanish, 0.0, wdot)
    return rate if x.ndim == 2 else float(rate)
