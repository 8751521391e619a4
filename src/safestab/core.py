"""Control-affine systems, quadratic CLFs, barriers, and Sontag's scalar
terms (a, b); filters.evaluate combines them with the barrier rows
(L_f h, L_g h) that every controller downstream consumes.

Conventions
-----------
* States, inputs and gradients are 1-D float arrays; g(x) is (n, m).
* ControlAffineSystem.rhs(xs, us) is the one-state derivative f(x) + g(x) u
  on Python floats: xs and us are lists of floats, the result is a list. The
  RK4 stages call only rhs. A bundled dynamics kind supplies it from the
  float expressions of its one-state f and g, equal to the numpy form bit for
  bit; a system built from f and g alone gets the adapter, which evaluates
  f(y) + g(y) @ u in numpy and returns .tolist().
* The scenario closures (f, g, h, grad h), QuadraticCLF.value/grad,
  SafeSet.values/min_value/contains and clf_lie_terms also accept a stack
  X of shape (N, n) and then return their results with a leading axis of N
  (g(X) is (N, n, m)). Each chooses its body from x.ndim: the one-state body
  is the per-step path, the stack body serves the many-state callers (doa,
  verify) and rounds exactly as N one-state calls do, because it writes every
  dot product and quadratic form as a stacked matmul.
* The Lyapunov candidate is W(x) = (x - x_e)' P (x - x_e) so that its gradient
  vanishes at a non-zero equilibrium.
* All objects are treated as immutable after construction and every operation
  is a pure function of its arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import ScenarioError


def as_vector(x, size: Optional[int] = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        v = v.ravel()
    if size is not None and v.size != size:
        raise ValueError(f"expected vector of length {size}, got {v.size}")
    return v


# relative step of the central differences: step_i = FD_REL_STEP * max(1, |x_i|)
FD_REL_STEP = 1e-6
# |b(x)| at or below this counts as a vanishing input direction (Sontag's
# small-control convention at the equilibrium, and the local CLF check)
B_FLOOR = 1e-10
# states sampled by is_valid_local_clf
LOCAL_CLF_SAMPLES = 200
# largest stack of states one rejection_sample draw makes
SAMPLE_BLOCK = 1024


def fd_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of a scalar map: the one row of
    fd_jacobian."""
    return fd_jacobian(fn, x)[0]


def fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobian of a vector map, one column per axis."""
    x = as_vector(x)
    cols = []
    for i in range(x.size):
        step = FD_REL_STEP * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        cols.append((as_vector(fn(xp)) - as_vector(fn(xm))) / (2.0 * step))
    return np.stack(cols, axis=1)


@dataclass
class ControlAffineSystem:
    """System x' = f(x) + g(x) u with state dimension n and input dimension m.

    rhs(xs, us) gives f(x) + g(x) u on float lists; when it is not supplied,
    the numpy adapter _affine_rhs serves, reading f and g at each call."""

    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    name: str = "system"
    rhs: Optional[Callable[[List[float], List[float]], List[float]]] = field(
        default=None, repr=False)

    def __post_init__(self):
        if self.rhs is None:
            self.rhs = self._affine_rhs

    def _affine_rhs(self, xs: List[float], us: List[float]) -> List[float]:
        y = np.array(xs)
        return (self.f(y) + self.g(y) @ np.array(us)).tolist()

    def drift(self, x) -> np.ndarray:
        return as_vector(self.f(as_vector(x, self.n)), self.n)

    def input_map(self, x) -> np.ndarray:
        G = np.asarray(self.g(as_vector(x, self.n)), dtype=float)
        if G.shape != (self.n, self.m):
            raise ValueError(f"g(x) must be ({self.n}, {self.m}), got {G.shape}")
        return G

    def xdot(self, x, u) -> np.ndarray:
        return self.drift(x) + self.input_map(x) @ as_vector(u, self.m)


@dataclass
class EquilibriumPair:
    """Pair (x_e, u_e); validity against a system is checked by equilibrium_residual."""

    x_e: np.ndarray
    u_e: np.ndarray

    def __post_init__(self):
        self.x_e = as_vector(self.x_e)
        self.u_e = as_vector(self.u_e)


def equilibrium_residual(sys: ControlAffineSystem, eq: EquilibriumPair) -> float:
    """max-norm of f(x_e) + g(x_e) u_e."""
    return float(np.abs(sys.xdot(eq.x_e, eq.u_e)).max())


@dataclass
class QuadraticCLF:
    """W(x) = (x - x_e)' P (x - x_e) with P symmetric positive definite."""

    P: np.ndarray
    equilibrium: EquilibriumPair

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        n = self.equilibrium.x_e.size
        if self.P.shape != (n, n):
            raise ScenarioError(f"P must be ({n}, {n}), got {self.P.shape}")
        validate_clf_matrix(self.P)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            D = x - self.equilibrium.x_e
            return (D[:, None, :] @ self.P @ D[:, :, None])[:, 0, 0]
        d = as_vector(x) - self.equilibrium.x_e
        return float(d @ self.P @ d)

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return 2.0 * (self.P @ (x - self.equilibrium.x_e)[:, :, None])[:, :, 0]
        return 2.0 * (self.P @ (as_vector(x) - self.equilibrium.x_e))


def validate_clf_matrix(P: np.ndarray) -> None:
    """Raise unless P is symmetric with strictly positive eigenvalues."""
    P = np.asarray(P, dtype=float)
    scale = 1.0 + np.abs(P).max()
    if np.abs(P - P.T).max() > 1e-9 * scale:
        raise ScenarioError("CLF matrix is not symmetric")
    eigs = np.linalg.eigvalsh(P)
    if eigs.min() <= 0.0:
        raise ScenarioError(f"CLF matrix is not positive definite (eigenvalues {eigs})")


@dataclass
class Barrier:
    """Scalar barrier h with safe side h >= 0, its gradient, and the rate
    alpha of the linear class-K function alpha * h in its barrier row."""

    h: Callable[[np.ndarray], float]
    alpha: float
    grad_h: Callable[[np.ndarray], np.ndarray]
    name: str = "h"

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ScenarioError(f"class-K rate alpha must be positive and finite, got {self.alpha}")

    def value(self, x) -> float:
        return float(self.h(as_vector(x)))

    def gradient(self, x) -> np.ndarray:
        return as_vector(self.grad_h(as_vector(x)))


@dataclass
class SafeSet:
    """Intersection of h_i >= 0 over an ordered list of barriers."""

    barriers: tuple

    def __post_init__(self):
        self.barriers = tuple(self.barriers)
        if not self.barriers:
            raise ScenarioError("safe set needs at least one barrier")

    def __len__(self) -> int:
        return len(self.barriers)

    def values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.stack([b.h(x) for b in self.barriers], axis=1)
        x = as_vector(x)
        return np.array([b.value(x) for b in self.barriers])

    def min_value(self, x):
        vals = self.values(x)
        if vals.ndim == 2:
            return vals.min(axis=1)
        return float(vals.min())

    def contains(self, x, tol: float = 0.0):
        return self.min_value(x) >= -tol


def sontag_terms(sys: ControlAffineSystem, clf: QuadraticCLF, x):
    """Return (a, b) with a = gradW'(f + g u_e) and b = gradW' g (an m-row)."""
    x = as_vector(x, sys.n)
    _, a, b = clf_lie_terms(clf, x, sys.drift(x), sys.input_map(x))
    return a, b


def clf_lie_terms(clf: QuadraticCLF, x: np.ndarray, f: np.ndarray, G: np.ndarray):
    """Return (gradW, a, b) at the state vector x from f = f(x) and G = g(x),
    with a = gradW'(f + G u_e) and b = gradW' G; for a stack x, f (N, n) and
    G (N, n, m), the same with a leading axis."""
    grad_w = clf.grad(x)
    if x.ndim == 2:
        row = grad_w[:, None, :]
        drift = f + G @ clf.equilibrium.u_e
        return grad_w, (row @ drift[:, :, None])[:, 0, 0], (row @ G)[:, 0, :]
    return grad_w, float(grad_w @ (f + G @ clf.equilibrium.u_e)), grad_w @ G


def linearize(sys: ControlAffineSystem, eq: EquilibriumPair) -> np.ndarray:
    """Jacobian of x -> f(x) + g(x) u_e at x_e by central differences."""
    def closed(x):
        return sys.drift(x) + sys.input_map(x) @ eq.u_e

    jac = fd_jacobian(closed, eq.x_e)
    if not np.all(np.isfinite(jac)):
        raise ScenarioError("linearization produced non-finite entries")
    return jac


def sample_ball(center: np.ndarray, radius: float, count: int,
                rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the open ball of given radius around center."""
    center = as_vector(center)
    n = center.size
    dirs = rng.normal(size=(count, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=(count, 1)) ** (1.0 / n)
    return center + dirs * radii


def rejection_sample(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray,
                     accept: Callable[[np.ndarray], np.ndarray], count: int,
                     max_tries: int) -> np.ndarray:
    """The first count of at most max_tries uniform draws from the box
    [lo, hi] that accept keeps, in draw order; fewer when the draws run out,
    and none drawn for count 0. accept maps a stack (B, n) to a boolean array.
    The draws come in blocks of at most SAMPLE_BLOCK states, which give the
    same states as one draw at a time."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    kept, found, drawn = [], 0, 0
    while found < count and drawn < max_tries:
        X = rng.uniform(lo, hi, size=(min(SAMPLE_BLOCK, max_tries - drawn), lo.size))
        drawn += X.shape[0]
        kept.append(X[accept(X)][:count - found])
        found += kept[-1].shape[0]
    return np.concatenate(kept) if kept else np.empty((0, lo.size))


def is_valid_local_clf(sys: ControlAffineSystem, clf: QuadraticCLF, radius: float,
                       seed: int = 0):
    """Sample LOCAL_CLF_SAMPLES states of the ball around x_e and look for a state at which no input
    (searched through the Sontag feedback) strictly decreases W.

    Returns (ok, witness); witness is the first failing state or None.
    A state fails only when b(x) vanishes while a(x) >= 0, because otherwise
    the Sontag input of any gain gamma > 0 already yields
    dW/dt = -gamma*sqrt(a^2 + |b|^4) < 0.
    """
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    x_e = clf.equilibrium.x_e
    samples = sample_ball(x_e, radius, LOCAL_CLF_SAMPLES, rng)
    for x in samples:
        if np.linalg.norm(x - x_e) < 1e-12:
            continue
        a, b = sontag_terms(sys, clf, x)
        if math.sqrt(float(b @ b)) > B_FLOOR:
            continue
        if a >= 0.0:
            return False, x
    return True, None
