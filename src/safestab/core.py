"""Control-affine systems, quadratic CLFs, barriers, Sontag's terms (a, b)
and formula (kappa); filters.evaluate combines them with the barrier rows
(L_f h, L_g h) that every controller downstream consumes.

Conventions
-----------
* States, inputs and gradients are 1-D float arrays; g(x) is (n, m).
* Every dot product, matrix-vector product and quadratic form behind the
  pointwise quantities (W and its gradient, Sontag's a and b, the barrier
  values, gradients and rows, the row margins and activation flags) is an
  explicit sum that starts from +0.0 and adds its terms left to right, with no
  BLAS call. Each is generated source, compiled once per size: dot_of,
  matvec_of and affine_of, lie_of (grad W, W, a and b of
  QuadraticCLF.lie_terms in one body) and lie_sums_of (a and b from a given
  gradient, the same text), and the per-step kernels built on them, filters'
  evaluate kernel and sim.rk4_of's stages. For one state these sums run on
  Python floats, for a stack the same expressions run on numpy columns, so the
  two agree bit for bit (up to the sign and payload of a NaN, which IEEE 754
  leaves open), and neither depends on which kernel the CPU's BLAS dispatches
  to. The QP layer sums the same way (solve_qp, QPSpec's factor, the KKT
  residual computed when read and the filters' per-step specs), and so do
  closed_form_ustar and verify's decrease identity (sontag_decrease_rate).
* The float forms are the only bodies a scenario writes: a system's fg(xs)
  gives f(x) as a list of n floats and g(x) as a list of m columns of n
  floats, a barrier's hgrad(xs) its value and gradient (a list); on the
  columns of a stack they give columns, a constant entry staying a float.
  array_of is the one rule by which such outputs become arrays (a stack's
  columns on a leading axis of N); ControlAffineSystem.from_fg and
  Barrier.from_hgrad derive the numpy f, g, h and grad_h from the forms
  through it (_numpy_part). f(x) + g(x) u has one row text,
  f_i + (0.0 + g_i1 u_1 + ... + g_im u_m) (affine_row), which
  ControlAffineSystem.xdot sums on fg's floats (affine_of) and
  sim.rk4_of's stages write out. A system or barrier built from numpy
  closures alone gets adapters as float forms (fg reads f and g, hgrad
  reads h and grad_h, on one state or a stack). An f, g, h, grad_h or
  QuadraticCLF.grad assigned to an object after construction takes over its
  float form through the adapter, so the per-step path calls what was
  assigned.
* The scenario closures (f, g, h, grad h), QuadraticCLF.value/grad and
  SafeSet.values/min_value/contains also accept a stack X of shape (N, n)
  and then return their results with a leading axis of N (g(X) is
  (N, n, m)). state_parts(n, x) is the one rule by which every reader and
  numpy adapter tells one state from a stack: a 2-D x is a stack, any other
  x one state, and where the reader knows the state length n, a state or
  stack of another length raises ValueError. filters.evaluate runs the
  float forms on one state, the per-step path, or on a stack's columns for
  the many-state callers (doa, verify, the simulator's records). SafeSet's
  membership reads the float forms the same way: each barrier's hgrad once
  on the floats or columns, the least value by min_first, evaluate's rule
  for its least slack, so doa's grids and ray casts and verify's samplers
  call no numpy closure. fd_gradient, sontag_terms and
  sontag.sontag_decrease_rate take a stack too, so that verify runs each
  sample set in one pass.
* The Lyapunov candidate is W(x) = (x - x_e)' P (x - x_e) so that its gradient
  vanishes at a non-zero equilibrium. lie_of sums W as QuadraticCLF.value
  does, so the W of filters.evaluate, which every layer reads, has its bits.
  Sontag's universal formula has one body too, kappa, beside B_FLOOR.
* Apart from the assignments above, all objects are treated as immutable
  after construction, and every operation is a pure function of its
  arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

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


def kappa(gamma: float, a, b, bb):
    """Sontag's correction b' (-a - gamma sqrt(a^2 + |b|^4)) / |b|^2, zero
    where sqrt(|b|^2) <= B_FLOOR, for b a list of m floats (or of m columns,
    a a column) whose |b|^2 bb is already summed; a list like b."""
    if isinstance(bb, float):
        if math.sqrt(bb) <= B_FLOOR:
            return [0.0] * len(b)
        r = (-a - gamma * math.sqrt(a * a + bb * bb)) / bb
        return [bj * r for bj in b]
    on = ~(np.sqrt(bb) <= B_FLOOR)   # NaN takes the formula, as above
    a, bb = a[on], bb[on]
    r = (-a - gamma * np.sqrt(a * a + bb * bb)) / bb
    out = [np.zeros(on.shape) for _ in b]
    for k, bj in zip(out, b):
        k[on] = bj[on] * r
    return out


def _sum(terms) -> str:
    return "(0.0" + "".join(" + " + t for t in terms) + ")"


# The explicit sums, unrolled for their sizes (a loop costs about three times
# as much on floats). Their entries are Python floats for one state or numpy
# columns for a stack, so both bodies run the same additions in the same
# order.
@lru_cache(maxsize=None)
def dot_of(n: int) -> Callable:
    """u, v -> 0.0 + u[0]*v[0] + ... + u[n-1]*v[n-1], added left to right."""
    return eval(f"lambda u, v: {_sum(f'u[{i}] * v[{i}]' for i in range(n))}")


@lru_cache(maxsize=None)
def matvec_of(r: int, n: int) -> Callable:
    """M, v -> [dot_of(n)(M[0], v), ..., dot_of(n)(M[r-1], v)] for r rows
    of n entries."""
    rows = (_sum(f"M[{k}][{i}] * v[{i}]" for i in range(n)) for k in range(r))
    return eval(f"lambda M, v: [{', '.join(rows)}]")


def affine_row(i: int, m: int) -> str:
    """Row i of f + G u, G given as its m columns, in the names f, G and u:
    f[i] + (0.0 + G[0][i]*u[0] + ... + G[m-1][i]*u[m-1]). affine_of, the
    RK4 stages (sim.rk4_of) and Sontag's a (lie_of) all sum it so."""
    return f"f[{i}] + " + _sum(f"G[{j}][{i}] * u[{j}]" for j in range(m))


@lru_cache(maxsize=None)
def affine_of(n: int, m: int) -> Callable:
    """f, G, u -> f + G u for G given as its m columns of n entries, the
    rows of affine_row."""
    return eval(f"lambda f, G, u: [{', '.join(affine_row(i, m) for i in range(n))}]")


def _def(args: str, lines, result: Optional[str], **names) -> Callable:
    """The function of args that runs the statement lines and returns
    result (lines that end in their own return or raise give None),
    compiled once; names are its globals."""
    exec("def body(" + args + "):\n" + "".join(f"    {s}\n" for s in lines)
         + (f"    return {result}\n" if result else ""), names)
    return names["body"]


def _lie_ab(n: int, m: int, grad) -> str:
    """a, [b_1, ..., b_m] from the gradient entries named in grad, f, the
    columns G of g and u = u_e: a = grad . (f + G u), its factor a row of
    affine_of, and b_j = G_j . grad."""
    a = _sum(f"{grad[i]} * ({affine_row(i, m)})" for i in range(n))
    b = (_sum(f"G[{j}][{i}] * {grad[i]}" for i in range(n)) for j in range(m))
    return f"{a}, [{', '.join(b)}]"


@lru_cache(maxsize=None)
def lie_sums_of(n: int, m: int) -> Callable:
    """grad, f, G, u_e -> (a, b), Sontag's terms from a given gradient (b a
    list), summed as in lie_of."""
    return eval(f"lambda g, f, G, u: ({_lie_ab(n, m, [f'g[{i}]' for i in range(n)])})")


@lru_cache(maxsize=None)
def lie_of(n: int, m: int) -> Callable:
    """P, x_e, u_e, x, f, G -> (grad W, W, a, b) for P's rows: d = x - x_e,
    p = P d (rows of matvec_of), grad W = 2 p, W = d . p (dot_of, as
    QuadraticCLF.value sums it), then (a, b) as lie_sums_of sums them."""
    g = [f"g{i}" for i in range(n)]
    return _def("P, e, u, x, f, G",
                [f"d{i} = x[{i}] - e[{i}]" for i in range(n)]
                + [f"p{i} = {_sum(f'P[{i}][{l}] * d{l}' for l in range(n))}" for i in range(n)]
                + [f"g{i} = 2.0 * p{i}" for i in range(n)],
                f"[{', '.join(g)}], {_sum(f'd{i} * p{i}' for i in range(n))}, "
                f"{_lie_ab(n, m, g)}")


def columns(X: np.ndarray) -> list:
    """The columns X[:, i] of a stack, the entries a stack body sums."""
    return list(X.T)


def exp(v):
    """np.exp on a Python float, as a Python float, or on a column: the same
    bits either way, and a float body's sums stay on Python floats."""
    e = np.exp(v)
    return e if e.ndim else float(e)


def array_of(x, values) -> np.ndarray:
    """What a float form gave at x as an array: np.array(values) for one
    state x (n,); for a stack x (N, n), its columns on a leading axis of N,
    a float filling its column (a bare column or float as a read-only (N,)
    view). The one rule by which float-form outputs become arrays."""
    if x.ndim == 1:
        return np.array(values)
    N = x.shape[0]

    def stacked(v):
        if isinstance(v, list):
            return np.stack([stacked(e) for e in v], axis=1)
        return np.broadcast_to(v, (N,))
    return stacked(values)


def state_parts(n: Optional[int], x):
    """(x, part): x as one state (n,) or a stack (N, n), and the map from an
    array of x's leading shape to what a float form reads, its Python floats
    for one state or its columns for a stack. The one rule by which a
    caller's x is told apart: a 2-D x is a stack, any other x one state,
    raveled as as_vector does. n is the length of a state, and a state or
    stack of another length raises ValueError naming both; None, where the
    reader does not know it, checks none. A float (n,) array is returned as
    it is."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        if n is not None and x.shape[1] != n:
            raise ValueError(f"expected states of length {n}, got {x.shape[1]}")
        return x, columns
    return as_vector(x, n), np.ndarray.tolist


def _numpy_part(form, k: int) -> Callable:
    """The numpy closure of part k of a float form (fg or hgrad), for one
    state (n,) or a stack (N, n): array_of's array of the part as a fresh
    float array, converted once, its axes after a leading N for a stack
    reversed, so that g(x) is (n, m) and g(X) is (N, n, m); a float part at
    one state is returned as it is. The closure calls this form, not an
    instance's, so that a closure assigned later may wrap it."""
    def closure(x):
        x, part = state_parts(None, x)
        out = form(part(x))[k]
        if x.ndim == 1:
            return np.array(out, dtype=float).T if isinstance(out, list) else out
        out = array_of(x, out)
        # np.stack's array is fresh; array_of's read-only view of a bare
        # column (perhaps one of x's) or float is copied
        out = out.astype(float, copy=not out.flags.writeable)
        return out.transpose(0, *range(out.ndim - 1, 0, -1))
    return closure


def fd_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of a scalar map: (n,) for one state
    (n,), or (N, n) for a stack (N, n), on which fn is called twice per axis
    and gives one value per state. Each state steps by
    FD_REL_STEP * max(1, |x_i|) along axis i, so a stack row has the bits of
    its one-state call."""
    x, _ = state_parts(None, x)
    steps = FD_REL_STEP * np.maximum(1.0, np.abs(x))
    cols = []
    for i in range(x.shape[-1]):
        xp = x.copy()
        xm = x.copy()
        xp[..., i] += steps[..., i]
        xm[..., i] -= steps[..., i]
        diff = np.asarray(fn(xp), dtype=float) - np.asarray(fn(xm), dtype=float)
        cols.append(diff / (2.0 * steps[..., i]))
    return np.stack(cols, axis=-1)


@dataclass
class ControlAffineSystem:
    """System x' = f(x) + g(x) u with state dimension n and input dimension m.

    fg(xs) gives f(x) and the m columns of g(x) on Python floats; from_fg
    builds a system from it alone. Built from f and g alone, fg is an
    adapter over them, which checks g's shape. xdot(x, u) sums f + g u on
    fg's floats either way (see the module's Conventions). An f or g
    assigned after construction replaces fg by the adapter over it."""

    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    name: str = "system"
    fg: Optional[Callable[[List[float]], Tuple[List[float], List[List[float]]]]] = field(
        default=None, repr=False)

    def __post_init__(self):
        if self.fg is None:
            self.fg = self._numpy_fg

    @classmethod
    def from_fg(cls, fg, n: int, m: int, name: str = "system") -> "ControlAffineSystem":
        """The system of the float form fg alone, with f and g derived from it
        (_numpy_part)."""
        return cls(n=n, m=m, f=_numpy_part(fg, 0), g=_numpy_part(fg, 1), name=name, fg=fg)

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        # f or g assigned after construction takes over the float form, so
        # that evaluate and the RK4 stages call what was assigned
        if name in ("f", "g") and "fg" in self.__dict__:
            super().__setattr__("fg", self._numpy_fg)

    def _numpy_fg(self, xs):
        x, part = state_parts(self.n, np.array(xs).T)   # xs: floats or columns
        G = np.asarray(self.g(x), dtype=float)
        shape = x.shape[:-1] + (self.n, self.m)
        if G.shape != shape:
            raise ValueError(f"g({'x' if x.ndim == 1 else 'X'}) must be {shape}, got {G.shape}")
        return (part(np.asarray(self.f(x), dtype=float)),
                [part(G_j) for G_j in np.moveaxis(G, -1, 0)])

    def xdot(self, x, u) -> np.ndarray:
        """f(x) + g(x) u at one state, from fg's floats as the RK4 stages
        sum it (affine_row)."""
        return np.array(affine_of(self.n, self.m)(*self.fg(as_vector(x, self.n).tolist()),
                                                  as_vector(u, self.m).tolist()), float)


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
    """W(x) = (x - x_e)' P (x - x_e) with P symmetric positive definite,
    summed as d . (P d) with d = x - x_e, and gradient 2 P d. lie_terms
    gives the gradient, W and Sontag's terms from one body (lie_of), or
    takes the gradient from grad once grad is assigned to the instance."""

    P: np.ndarray
    equilibrium: EquilibriumPair

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        n = self.equilibrium.x_e.size
        if self.P.shape != (n, n):
            raise ScenarioError(f"P must be ({n}, {n}), got {self.P.shape}")
        validate_clf_matrix(self.P)
        self._rows = self.P.tolist()
        self._x_e = self.equilibrium.x_e.tolist()
        self._u_e = self.equilibrium.u_e.tolist()
        self._dot, self._pd = dot_of(n), matvec_of(n, n)
        self._lie = lie_of(n, len(self._u_e))

    def _offset_and_pd(self, xs):
        """d = x - x_e and P d, on floats or on columns."""
        d = [xi - ei for xi, ei in zip(xs, self._x_e)]
        return d, self._pd(self._rows, d)

    def value(self, x):
        x, part = state_parts(len(self._x_e), x)
        return self._dot(*self._offset_and_pd(part(x)))

    def grad(self, x) -> np.ndarray:
        x, part = state_parts(len(self._x_e), x)
        return array_of(x, [2.0 * v for v in self._offset_and_pd(part(x))[1]])

    def lie_terms(self, xs, fs, gcols):
        """(gradW, W, a, b) from the float form at one state, or from columns."""
        return self._lie(self._rows, self._x_e, self._u_e, xs, fs, gcols)

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        # a grad assigned to the instance gives lie_terms its gradient, as
        # for ControlAffineSystem's f and g
        if name == "grad":
            super().__setattr__("lie_terms", self._numpy_lie_terms)

    def _numpy_lie_terms(self, xs, fs, gcols):
        x, part = state_parts(len(self._x_e), np.array(xs).T)   # as in _numpy_fg
        grad = part(np.asarray(self.grad(x), dtype=float))
        return (grad, self._dot(*self._offset_and_pd(xs))) + lie_sums_of(
            len(grad), len(gcols))(grad, fs, gcols, self._u_e)


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
    alpha of the linear class-K function alpha * h in its barrier row.

    hgrad(xs) gives h(x) and its gradient (a list) on Python floats from one
    body; when it is not supplied, or h or grad_h is assigned after
    construction, an adapter reads h and grad_h."""

    h: Callable[[np.ndarray], float]
    alpha: float
    grad_h: Callable[[np.ndarray], np.ndarray]
    name: str = "h"
    hgrad: Optional[Callable[[List[float]], Tuple[float, List[float]]]] = field(
        default=None, repr=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ScenarioError(f"class-K rate alpha must be positive and finite, got {self.alpha}")
        if self.hgrad is None:
            self.hgrad = self._numpy_hgrad

    @classmethod
    def from_hgrad(cls, hgrad, alpha: float, name: str = "h") -> "Barrier":
        """The barrier of the float form hgrad alone, with h and grad_h
        derived from it (_numpy_part)."""
        return cls(h=_numpy_part(hgrad, 0), alpha=alpha, grad_h=_numpy_part(hgrad, 1), name=name,
                   hgrad=hgrad)

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        # as for ControlAffineSystem's f and g
        if name in ("h", "grad_h") and "hgrad" in self.__dict__:
            super().__setattr__("hgrad", self._numpy_hgrad)

    def _numpy_hgrad(self, xs):
        x, part = state_parts(None, np.array(xs).T)   # as in ControlAffineSystem._numpy_fg
        h = np.asarray(self.h(x), dtype=float)
        return (float(h) if x.ndim == 1 else h), part(np.asarray(self.grad_h(x), dtype=float))


def min_first(values):
    """The least value, NaN if any is NaN, as numpy's min; on floats or on
    columns (elementwise). The first value decides which: a float first
    value is compared as a float."""
    least = values[0]
    if isinstance(least, float):
        for v in values[1:]:
            if v < least or v != v:
                least = v
        return least
    for v in values[1:]:
        least = np.where((v < least) | (v != v), v, least)
    return least


@dataclass
class SafeSet:
    """Intersection of h_i >= 0 over an ordered list of barriers. contains
    is the one membership test: min_i h_i >= 0, false where the least value
    is NaN. values, min_value and contains read the float forms: each
    barrier's hgrad runs once, on the Python floats of one state or the
    columns of a stack, and min_first takes the least value, so a stack row
    has the bits of its one-state call."""

    barriers: tuple

    def __post_init__(self):
        self.barriers = tuple(self.barriers)
        if not self.barriers:
            raise ScenarioError("safe set needs at least one barrier")

    def __len__(self) -> int:
        return len(self.barriers)

    def _values(self, x):
        """x and h_i(x) from each barrier's hgrad, as floats for one state,
        as (N,) columns for a stack (a float h filling its column)."""
        x, part = state_parts(None, x)
        xs = part(x)
        hs = [b.hgrad(xs)[0] for b in self.barriers]
        if x.ndim == 2:
            hs = [np.full(x.shape[:1], h) if isinstance(h, float) else h for h in hs]
        return x, hs

    def values(self, x) -> np.ndarray:
        return array_of(*self._values(x))

    def min_value(self, x):
        x, hs = self._values(x)
        least = min_first(hs)
        return least if x.ndim == 1 else np.array(least, dtype=float)

    def contains(self, x):
        return self.min_value(x) >= 0.0


def sontag_terms(sys: ControlAffineSystem, clf: QuadraticCLF, x):
    """Return (a, b) with a = gradW'(f + g u_e) and b = gradW' g (an m-array),
    f and g from the system's float form; for a stack (N, n), a is (N,) and
    b (N, m), from one call of clf.grad and one of fg on the stack. clf needs
    only grad and equilibrium: the checks that call this take any such
    object, a QuadraticCLF's lie_terms being the per-step path."""
    x, part = state_parts(sys.n, x)
    a, b = lie_sums_of(sys.n, sys.m)(part(clf.grad(x)), *sys.fg(part(x)),
                                     clf.equilibrium.u_e.tolist())
    return a, array_of(x, b)


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

    Returns (ok, witness); witness is the first failing state in draw order,
    or None. A state fails only when b(x) vanishes while a(x) >= 0, because
    otherwise the Sontag input of any gain gamma > 0 already yields
    dW/dt = -gamma*sqrt(a^2 + |b|^4) < 0. The samples are one stack, and
    the terms come from one sontag_terms call on it.
    """
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    x_e = clf.equilibrium.x_e
    samples = sample_ball(x_e, radius, LOCAL_CLF_SAMPLES, rng)
    samples = samples[~(np.linalg.norm(samples - x_e, axis=1) < 1e-12)]
    a, b = sontag_terms(sys, clf, samples)
    bcols = columns(b)
    failed = ~(np.sqrt(dot_of(sys.m)(bcols, bcols)) > B_FLOOR) & (a >= 0.0)
    if failed.any():
        return False, samples[np.argmax(failed)]
    return True, None
