"""Modified Sontag universal feedback with convergence-rate gain gamma and
support for non-zero equilibrium inputs.

u(x) = u_e + kappa(x),   kappa = b' * (-a - gamma*sqrt(a^2 + |b'|^4)) / |b'|^2,

with a = gradW'(f + g u_e), b = gradW' g, and kappa := 0 wherever |b| falls
to core.B_FLOOR or below (the small-control convention at the equilibrium).
sontag_control and sontag_decrease_rate read the system, the CLF and gamma
from a filters.FilterConfig.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .core import B_FLOOR, as_vector, columns, dot_of, sontag_terms
from .errors import DecreaseIdentityError

if TYPE_CHECKING:
    from .filters import FilterConfig


def sontag_kappa(gamma: float, a, b):
    """Correction term of the universal formula with gain gamma for the terms
    a and b; zero when b (nearly) vanishes. b is a list of m floats, or of m
    columns with a a column, and so is the result; an array b, (m,) or
    (N, m), gives an array. |b|^2 is the explicit sum dot_of(m)(b, b)."""
    if isinstance(b, np.ndarray):
        if b.ndim == 1:
            return np.array(sontag_kappa(gamma, a, b.tolist()))
        return np.stack(sontag_kappa(gamma, a, columns(b)), axis=1)
    bb = dot_of(len(b))(b, b)
    if isinstance(bb, float):
        if math.sqrt(bb) <= B_FLOOR:
            return [0.0] * len(b)
        r = (-a - gamma * math.sqrt(a * a + bb * bb)) / bb
        return [bj * r for bj in b]
    on = ~(np.sqrt(bb) <= B_FLOOR)   # NaN takes the formula, as above
    a, bb = a[on], bb[on]
    r = (-a - gamma * np.sqrt(a * a + bb * bb)) / bb
    kappa = [np.zeros(on.shape) for _ in b]
    for k, bj in zip(kappa, b):
        k[on] = bj[on] * r
    return kappa


def sontag_control(cfg: FilterConfig, x) -> np.ndarray:
    a, b = sontag_terms(cfg.sys, cfg.clf, x)
    return cfg.clf.equilibrium.u_e + sontag_kappa(cfg.gamma, a, b)


def sontag_decrease_rate(cfg: FilterConfig, x) -> float:
    """dW/dt along the closed loop, checked against -gamma*sqrt(a^2 + |b|^4).

    Raises DecreaseIdentityError when the algebraic identity from the
    universal formula fails beyond rounding, and ValueError when evaluated
    where b vanishes away from the equilibrium (the identity does not apply
    there).
    """
    x = as_vector(x, cfg.sys.n)
    a, b = sontag_terms(cfg.sys, cfg.clf, x)
    bb = dot_of(b.size)(b.tolist(), b.tolist())
    if math.sqrt(bb) <= B_FLOOR:
        if np.linalg.norm(x - cfg.clf.equilibrium.x_e) <= 1e-9:
            return 0.0
        raise ValueError("decrease rate undefined where b vanishes away from x_e")
    u = cfg.clf.equilibrium.u_e + sontag_kappa(cfg.gamma, a, b)
    wdot = float(cfg.clf.grad(x) @ cfg.sys.xdot(x, u))
    target = -cfg.gamma * math.sqrt(a * a + bb * bb)
    tol = 1e-9 * (1.0 + abs(a) + bb) * max(1.0, cfg.gamma)
    if abs(wdot - target) > tol:
        raise DecreaseIdentityError(
            f"decrease identity violated: dW/dt={wdot!r}, expected {target!r}")
    return wdot
