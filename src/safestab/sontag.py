"""Modified Sontag universal feedback with convergence-rate gain gamma and
support for non-zero equilibrium inputs.

u(x) = u_e + kappa(x),   kappa = b' * (-a - gamma*sqrt(a^2 + |b'|^4)) / |b'|^2,

with a = gradW'(f + g u_e), b = gradW' g, and kappa := 0 wherever |b| falls
below b_floor (the small-control convention at the equilibrium).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ControlAffineSystem, QuadraticCLF, as_vector, sontag_terms
from .errors import DecreaseIdentityError


@dataclass
class SontagLaw:
    sys: ControlAffineSystem
    clf: QuadraticCLF
    gamma: float = 1.0
    b_floor: float = 1e-10

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if not self.b_floor > 0.0:
            raise ValueError("b_floor must be positive")


def sontag_kappa(law: SontagLaw, a: float, b: np.ndarray) -> np.ndarray:
    """Correction term of the universal formula for the terms a and b (an
    m-array); zero when b (nearly) vanishes."""
    bb = float(b @ b)
    if math.sqrt(bb) <= law.b_floor:
        return np.zeros(law.sys.m)
    return b * ((-a - law.gamma * math.sqrt(a * a + bb * bb)) / bb)


def sontag_control(law: SontagLaw, x) -> np.ndarray:
    a, b = sontag_terms(law.sys, law.clf, x)
    return law.clf.equilibrium.u_e + sontag_kappa(law, a, b)


def sontag_decrease_rate(law: SontagLaw, x) -> float:
    """dW/dt along the closed loop, checked against -gamma*sqrt(a^2 + |b|^4).

    Raises DecreaseIdentityError when the algebraic identity from the
    universal formula fails beyond rounding, and ValueError when evaluated
    where b vanishes away from the equilibrium (the identity does not apply
    there).
    """
    x = as_vector(x, law.sys.n)
    a, b = sontag_terms(law.sys, law.clf, x)
    bb = float(b @ b)
    if math.sqrt(bb) <= law.b_floor:
        if np.linalg.norm(x - law.clf.equilibrium.x_e) <= 1e-9:
            return 0.0
        raise ValueError("decrease rate undefined where b vanishes away from x_e")
    u = law.clf.equilibrium.u_e + sontag_kappa(law, a, b)
    wdot = float(law.clf.grad(x) @ law.sys.xdot(x, u))
    target = -law.gamma * math.sqrt(a * a + bb * bb)
    tol = 1e-9 * (1.0 + abs(a) + bb) * max(1.0, law.gamma)
    if abs(wdot - target) > tol:
        raise DecreaseIdentityError(
            f"decrease identity violated: dW/dt={wdot!r}, expected {target!r}")
    return wdot
