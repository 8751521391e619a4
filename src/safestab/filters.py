"""Pointwise QP controllers and the hybrid switching law.

Every controller reads the same pointwise quantities, which `evaluate`
computes from one call of the system's float form fg (f and the columns of
g), on the Python floats of one state or the columns of a stack: W, Sontag's
terms a, b and input u_son, the barrier rows L_f h_i + L_g h_i u >=
-alpha_i(h_i) stacked as A u >= lb, the barrier values h, and the R1/R2
label. Its body is one kernel written out for the sizes (n, m, k) of the
configuration, the same for one state and for a stack; the Evaluation holds
the floats (or columns) the kernel gives and builds an array field only when
it is read, and the laws read the floats. Three filters share the rows:

* cbf_qp_filter      minimizes |u - u_nom|^2 (nominal defaults to Sontag),
* clf_cbf_qp_filter  minimizes |u|^2 + p*delta^2 with a slacked CLF row,
* s_cbf_qp_filter    minimizes |u - u_son|^2 weighted by Q(x) = b'b,
                     the rank-one Gram matrix of b = gradW' g.

The hybrid law applies Sontag's input wherever it already satisfies every
barrier row (region R1) and the Sontag-weighted QP elsewhere (region R2).

The costs of cbf_qp (2I) and clf_cbf_qp (diag(2, .., 2, 2p)) do not depend on
the state, so make_controller builds each one QPSpec, factored once, and every
step adds its rows with QPSpec.with_rows; the Sontag-weighted cost 2 b'b
changes with the state and is built at each solve. Each step's rows, bounds
(lb - A u_nom) and weight 2 b'b are built on Python floats with the explicit
sums of core, and solve_qp runs on floats too, so no BLAS call sits on the
per-step path. No controller reads the solution's KKT residual, which is
computed only when read (verify does).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

# sontag_terms is unused here but stays bound: the benchmark's tracer
# (bench/instrument.py) wraps it in this module, as it does sontag_control
from .core import (ControlAffineSystem, QuadraticCLF, SafeSet, _def, _sum, as_vector,  # noqa: F401
                   columns, dot_of, kappa, matvec_of, sontag_terms)
from .errors import (DegenerateConstraintError, IndefiniteQPError, InfeasibleQPError,
                     SafeStabError)
from .qp import QPSpec, solve_qp

CONTROLLER_NAMES = ("sontag", "cbf-qp", "clf-cbf-qp", "s-cbf-qp", "hybrid")

# rate of the CLF-decrease row of the CLF-CBF-QP: alpha_W(W) = ALPHA_W * W
ALPHA_W = 1.0
# a barrier row counts as active when its slack is at most ACTIVE_TOL times
# its scale
ACTIVE_TOL = 1e-6


class Region(IntEnum):
    R1 = 0
    R2 = 1


@dataclass
class RegionLabel:
    """R1/R2 and the smallest row slack at u_son; for a stack, arrays of
    Region values and of slacks."""

    value: Region
    margin: float


@dataclass
class FilterConfig:
    """What every controller reads: the system, the CLF, the safe set,
    Sontag's rate gain gamma and the CLF-CBF-QP's slack weight p."""

    sys: ControlAffineSystem
    clf: QuadraticCLF
    safe_set: SafeSet
    gamma: float = 1.0
    p: float = 10.0

    def __post_init__(self):
        for name, val in (("gamma", self.gamma), ("slack weight p", self.p)):
            if not 0.0 < val < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {val}")
        # evaluate's body for these sizes, looked up once
        self._kernel = _kernel_of(self.sys.n, self.sys.m, len(self.safe_set))


make_filter_config = FilterConfig


class Evaluation:
    """Pointwise quantities at one state, from one call of the system's float
    form fg, held as the evaluate kernel gives them: Python floats for one
    state, columns for a stack of N states (a float constant standing for
    its column). fg is (f, columns of g); w, grad, a, bs, us, As, lbs and hs
    are W, grad W, a = gradW'(f + g u_e), b = gradW' g, the Sontag input
    u_son and the barrier rows A u >= lb (A_i = L_g h_i, lb_i = -alpha_i(h_i)
    - L_f h_i) with the barrier values h_i(x), as lists. The array fields f,
    grad_w, b, u_son, A, lb and h are built from them when first read, with
    a leading axis of N for a stack. label is R1 iff u_son satisfies every
    row."""

    __slots__ = ("x", "fg", "grad", "w", "a", "bs", "us", "As", "lbs", "hs", "label", "_arrays")

    def __init__(self, x, fg, grad, w, a, bs, us, As, lbs, hs, margin):
        self.x, self.fg, self.grad, self.w, self.a, self.bs, self.us = x, fg, grad, w, a, bs, us
        self.As, self.lbs, self.hs, self._arrays = As, lbs, hs, {}
        if x.ndim == 1:
            self.label = RegionLabel(Region.R1 if margin >= 0.0 else Region.R2, margin)
        else:
            self.label = RegionLabel(np.where(margin >= 0.0, Region.R1, Region.R2), margin)

    def _built(self, name, values):
        """The array field name of the floats or columns values, kept once
        built."""
        if name not in self._arrays:
            if self.x.ndim == 1:
                self._arrays[name] = np.array(values)
            else:
                N = self.x.shape[0]

                def stacked(v):
                    if isinstance(v, list):
                        return np.stack([stacked(e) for e in v], axis=1)
                    return np.broadcast_to(v, (N,))
                self._arrays[name] = stacked(values)
        return self._arrays[name]

    f = property(lambda self: self._built("f", self.fg[0]))
    grad_w = property(lambda self: self._built("grad_w", self.grad))
    b = property(lambda self: self._built("b", self.bs))
    u_son = property(lambda self: self._built("u_son", self.us))
    A = property(lambda self: self._built("A", self.As))
    lb = property(lambda self: self._built("lb", self.lbs))
    h = property(lambda self: self._built("h", self.hs))

    @property
    def lfw(self) -> float:
        """L_f W = gradW' f, the drift term of the CLF-decrease row."""
        return dot_of(len(self.grad))(self.grad, self.fg[0])

    def row(self, i: int) -> "Evaluation":
        """State i of a stack's evaluation, with the fields and bits that
        evaluate gives for that state alone."""
        def entry(v):   # a column's entry i; a float constant stays itself
            if isinstance(v, list):
                return [entry(e) for e in v]
            return v if isinstance(v, float) else float(v[i])

        fs, gcols = self.fg
        return Evaluation(self.x[i], (entry(fs), entry(gcols)), entry(self.grad),
                          *entry([self.w, self.a, self.bs, self.us, self.As, self.lbs, self.hs]),
                          float(self.label.margin[i]))


@lru_cache(maxsize=None)
def _kernel_of(n: int, m: int, k: int) -> Callable:
    """evaluate's body for n states, m inputs and k barriers, written out
    once: sys, clf, barriers, gamma, x -> Evaluation's fields after x and
    the least row margin. sys.fg, clf.lie_terms and each hgrad are read from
    the objects at every call, so that a form assigned later runs. With
    (h_i, q) = hgrad_i(x): A_i = (G_1 . q, ..., G_m . q), lb_i = -alpha_i h_i
    - f . q and margin_i = A_i . u_son - lb_i, explicit sums as in core;
    kappa and _min_first branch on floats or columns."""
    lines = ["fg = f, G = sys.fg(x)", "grad, w, a, b = clf.lie_terms(x, f, G)",
             f"c = kappa(gamma, a, b, {_sum(f'b[{j}] * b[{j}]' for j in range(m))})",
             "e = clf._u_e", f"u = [{', '.join(f'e[{j}] + c[{j}]' for j in range(m))}]"]
    row = ", ".join(_sum(f"G[{j}][{l}] * q[{l}]" for l in range(n)) for j in range(m))
    lfh = _sum(f"f[{l}] * q[{l}]" for l in range(n))
    for i in range(k):
        lines += [f"h{i}, q = bars[{i}].hgrad(x)", f"A{i} = [{row}]",
                  f"lb{i} = -bars[{i}].alpha * h{i} - {lfh}"]
    margins = ", ".join(_sum(f"A{i}[{j}] * u[{j}]" for j in range(m)) + f" - lb{i}"
                        for i in range(k))
    A, lb, h = ("[" + ", ".join(f"{name}{i}" for i in range(k)) + "]" for name in ("A", "lb", "h"))
    return _def("sys, clf, bars, gamma, x", lines,
                f"fg, grad, w, a, b, u, {A}, {lb}, {h}, _min_first([{margins}])",
                kappa=kappa, _min_first=_min_first)


def _margins(A, lb, u):
    """The slack A_i . u - lb_i of each row, on floats or on columns."""
    return [v - lb_i for v, lb_i in zip(matvec_of(len(A), len(u))(A, u), lb)]


def _min_first(values):
    """The least value, NaN if any is NaN, as numpy's min; on floats or on
    columns (elementwise)."""
    least = values[0]
    if isinstance(least, float):
        for v in values[1:]:
            if v < least or v != v:
                least = v
        return least
    for v in values[1:]:
        least = np.where((v < least) | (v != v), v, least)
    return least


def evaluate(cfg: FilterConfig, x) -> Evaluation:
    """The one pointwise evaluation behind every controller, the simulator's
    bookkeeping, control sharing and verify.

    It runs cfg's kernel (_kernel_of), which calls the system's fg and each
    barrier's hgrad once, on the Python floats of one state (n,) or the
    columns of a stack (N, n), and sums every product written out, so a
    stack row has the bits of its one-state call. The Evaluation holds what
    the kernel gives and builds its array fields on read."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        if x.shape[1] != cfg.sys.n:
            raise ValueError(f"expected states of length {cfg.sys.n}, got {x.shape[1]}")
        xs = columns(x)
    else:
        x = as_vector(x, cfg.sys.n)
        xs = x.tolist()
    return Evaluation(x, *cfg._kernel(cfg.sys, cfg.clf, cfg.safe_set.barriers, cfg.gamma, xs))


def sontag_control(cfg: FilterConfig, x) -> np.ndarray:
    """Sontag's input at one state (m,) or a stack (N, m): evaluate's u_son."""
    return evaluate(cfg, x).u_son


def cbf_rows(cfg: FilterConfig, x) -> Tuple[np.ndarray, np.ndarray]:
    """Stack the barrier rows as A u >= lb with A_i = L_g h_i and
    lb_i = -alpha_i(h_i) - L_f h_i."""
    ev = evaluate(cfg, x)
    return ev.A, ev.lb


def classify_region(cfg: FilterConfig, x) -> RegionLabel:
    """R1 where the Sontag input satisfies every barrier row (minimum slack
    >= 0, ties assigned to R1), R2 otherwise."""
    return evaluate(cfg, x).label


def row_margins(A: np.ndarray, lb: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Slack of each barrier row at the input u (nonnegative means satisfied);
    for stacks A (N, k, m), lb (N, k) and u (N, m), an (N, k) array. Each
    A_i . u is an explicit sum, on floats for one state and on columns for a
    stack, so a stack row equals its one-state call bit for bit."""
    if A.ndim == 3:
        return np.stack(_margins([columns(A_i) for A_i in A.transpose(1, 0, 2)],
                                 columns(lb), columns(u)), axis=1)
    return np.array(_margins(A.tolist(), lb.tolist(), u.tolist()))


def _flags(A, lb, u):
    """_margins_i <= ACTIVE_TOL * ((1 + |lb_i|) + |A_i| . |u|), on floats or
    on columns."""
    scale = matvec_of(len(A), len(u))([[abs(v) for v in row] for row in A], [abs(v) for v in u])
    return [r <= ACTIVE_TOL * ((1.0 + abs(lb_i)) + s)
            for r, lb_i, s in zip(_margins(A, lb, u), lb, scale)]


def active_flags(A: np.ndarray, lb: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rows whose slack at u is at most ACTIVE_TOL relative to the row scale
    1 + |lb_i| + |A_i| . |u|; for stacks A (N, k, m), lb (N, k) and u (N, m),
    an (N, k) array. The sums are explicit, as in row_margins, so a stack row
    equals its one-state call bit for bit."""
    if A.ndim == 3:
        return np.stack(_flags([columns(A_i) for A_i in A.transpose(1, 0, 2)],
                               columns(lb), columns(u)), axis=1)
    return np.array(_flags(A.tolist(), lb.tolist(), u.tolist()))


def _solve_or_raise(spec: QPSpec, what: str, x):
    sol = solve_qp(spec)
    if not sol.optimal:
        raise InfeasibleQPError(f"{what} infeasible at x={np.asarray(x).tolist()}")
    return sol


def _cbf_qp_cost(m: int) -> QPSpec:
    """min |v|^2 over the shift v = u - u_nom, factored once; each step adds
    its rows with QPSpec.with_rows."""
    return QPSpec(2.0 * np.eye(m), np.zeros(m), np.zeros((0, m)), np.zeros(0))


def _shifted_bounds(ev: Evaluation, u: list) -> list:
    """lb - A u, the bounds of the barrier rows A v >= lb - A u on the shift
    v of the input from u (floats); each A_i . u is an explicit sum."""
    return [lb_i - v for lb_i, v in zip(ev.lbs, matvec_of(len(ev.As), len(u))(ev.As, u))]


def _cbf_qp(cost: QPSpec, ev: Evaluation, u_nom: np.ndarray) -> np.ndarray:
    spec = cost.with_rows(ev.As, _shifted_bounds(ev, u_nom.tolist()))
    return u_nom + _solve_or_raise(spec, "CBF-QP", ev.x).z_star


def cbf_qp_filter(cfg: FilterConfig, x, u_nom=None) -> np.ndarray:
    """Minimum-deviation safety filter: min |u - u_nom|^2 s.t. barrier rows.

    Solved in the shifted variable v = u - u_nom so the Tikhonov term is
    centered at the nominal input and a feasible nominal is returned
    unchanged."""
    ev = evaluate(cfg, x)
    u_nom = ev.u_son if u_nom is None else as_vector(u_nom, cfg.sys.m)
    return _cbf_qp(_cbf_qp_cost(cfg.sys.m), ev, u_nom)


def _clf_cbf_qp_law(cfg: FilterConfig) -> Callable[[Evaluation], Tuple[np.ndarray, float]]:
    """The CLF-CBF-QP as a map from an evaluation to (u, delta). Its cost
    diag(2, .., 2, 2p) does not depend on the state, so it is factored here
    once, with cfg.p as it is now; each call builds its rows as floats, the
    delta column being 1 in the CLF row and 0 in the barrier rows."""
    m = cfg.sys.m
    H = np.zeros((m + 1, m + 1))
    H[:m, :m] = 2.0 * np.eye(m)
    H[m, m] = 2.0 * cfg.p
    cost = QPSpec(H, np.zeros(m + 1), np.zeros((0, m + 1)), np.zeros(0))

    def clf_cbf_qp(ev: Evaluation) -> Tuple[np.ndarray, float]:
        A = [[-v for v in ev.bs] + [1.0]] + [row + [0.0] for row in ev.As]
        lb = [ev.lfw + ALPHA_W * ev.w] + ev.lbs
        z = _solve_or_raise(cost.with_rows(A, lb), "CLF-CBF-QP", ev.x).z_star
        return z[:m], float(z[m])

    return clf_cbf_qp


def clf_cbf_qp_filter(cfg: FilterConfig, x) -> Tuple[np.ndarray, float]:
    """Slack-relaxed combined filter over (u, delta):

        min |u|^2 + p*delta^2
        s.t. gradW'f + gradW'g u <= -alpha_W(W) + delta,  barrier rows.

    Returns (u, delta)."""
    return _clf_cbf_qp_law(cfg)(evaluate(cfg, x))


def s_cbf_qp_spec(cfg: FilterConfig, ev: Evaluation) -> QPSpec:
    """The Sontag-weighted filter QP in the shifted variable v = u - u_son:
    min v'(Q + reg*I)v with Q = b'b, s.t. A v >= lb - A u_son, where reg is
    QPSpec's default (1e-9), as in the other two filters."""
    b = ev.bs
    return QPSpec([[2.0 * (b_i * b_j) for b_j in b] for b_i in b], np.zeros(cfg.sys.m),
                  ev.As, _shifted_bounds(ev, ev.us))


def _s_cbf_qp(cfg: FilterConfig, ev: Evaluation) -> np.ndarray:
    try:
        spec = s_cbf_qp_spec(cfg, ev)
    except IndefiniteQPError as exc:
        raise IndefiniteQPError(f"S-CBF-QP cost at x={ev.x.tolist()}, |b|^2="
                                f"{dot_of(len(ev.bs))(ev.bs, ev.bs)!r}: "
                                f"{exc}") from None
    return ev.u_son + _solve_or_raise(spec, "S-CBF-QP", ev.x).z_star


def s_cbf_qp_filter(cfg: FilterConfig, x) -> np.ndarray:
    """Sontag-weighted safety filter: min |u - u_son|^2_{Q+reg*I} s.t. barrier
    rows, with Q = b'b. Solved in the shifted variable v = u - u_son so the
    Tikhonov term is centered at the nominal input."""
    return _s_cbf_qp(cfg, evaluate(cfg, x))


def closed_form_ustar(cfg: FilterConfig, x, barrier_index: int = 0
                      ) -> Tuple[np.ndarray, float]:
    """Single-active-row solution of the Sontag-weighted filter and its
    multiplier:

        u* = -(L_f h + alpha(h)) / |L_g h'|^2 * L_g h',
        lam = (u* - u_son)' Q L_g h' / |L_g h'|^2.

    Raises DegenerateConstraintError when L_g h vanishes, and SafeStabError
    when the multiplier comes out negative at a state classified R2."""
    return closed_form_of(cfg, evaluate(cfg, x), barrier_index)


def closed_form_of(cfg: FilterConfig, ev: Evaluation, barrier_index: int = 0
                   ) -> Tuple[np.ndarray, float]:
    """closed_form_ustar at the state of the one-state evaluation ev."""
    lgh = ev.A[barrier_index]
    nrm2 = float(lgh @ lgh)
    if math.sqrt(nrm2) <= 1e-12:
        name = cfg.safe_set.barriers[barrier_index].name
        raise DegenerateConstraintError(
            f"L_g h ~ 0 for barrier {name!r}; closed form undefined")
    rate = -ev.lb[barrier_index]   # L_f h + alpha(h)
    u_star = -(rate / nrm2) * lgh
    Q = np.outer(ev.b, ev.b)
    lam = float((u_star - ev.u_son) @ Q @ lgh) / nrm2
    if ev.label.value == Region.R2 and lam < -1e-9 * (1.0 + abs(lam)):
        raise SafeStabError(f"negative multiplier {lam} on R2 at x={ev.x.tolist()}")
    return u_star, lam


def _hybrid(cfg: FilterConfig, ev: Evaluation) -> np.ndarray:
    return ev.u_son if ev.label.value == Region.R1 else _s_cbf_qp(cfg, ev)


def hybrid_control(cfg: FilterConfig, x) -> Tuple[np.ndarray, RegionLabel]:
    """Sontag input on R1, Sontag-weighted QP on R2."""
    ev = evaluate(cfg, x)
    return _hybrid(cfg, ev), ev.label


def _law(cfg: FilterConfig, name: str) -> Callable[[Evaluation], np.ndarray]:
    """The map from an evaluation to the input u of controller `name`; the
    filters whose cost does not depend on the state factor it here, once."""
    if name == "sontag":
        return lambda ev: ev.u_son
    if name == "cbf-qp":
        cost = _cbf_qp_cost(cfg.sys.m)
        return lambda ev: _cbf_qp(cost, ev, ev.u_son)
    if name == "clf-cbf-qp":
        clf_cbf_qp = _clf_cbf_qp_law(cfg)
        return lambda ev: clf_cbf_qp(ev)[0]
    if name == "s-cbf-qp":
        return lambda ev: _s_cbf_qp(cfg, ev)
    if name == "hybrid":
        return lambda ev: _hybrid(cfg, ev)
    raise ValueError(f"unknown controller {name!r}; choose from {CONTROLLER_NAMES}")


def make_controller(cfg: FilterConfig, name: str
                    ) -> Callable[[np.ndarray], Tuple[np.ndarray, Evaluation]]:
    """Controller factory for the tags accepted by the CLI. The controller
    maps a state x to (u, ev): its input and the evaluation it was computed
    from, whose rows, label and barrier values the simulator logs."""
    law = _law(cfg, name)

    def control(x):
        ev = evaluate(cfg, x)
        return law(ev), ev

    control.__name__ = f"{name}_controller"
    return control
