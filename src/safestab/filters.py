"""Pointwise QP controllers and the hybrid switching law.

Every controller reads the same pointwise quantities, which `evaluate`
computes from one call of the system's float form fg (f and the columns of
g), on the Python floats of one state or the columns of a stack: W, Sontag's
terms a, b and input u_son, the barrier rows L_f h_i + L_g h_i u >=
-alpha_i(h_i) stacked as A u >= lb, the barrier values h, each row's slack
at u_son and the least of them, which decides the R1/R2 region. Its body is
one kernel written out for the sizes (n, m, k) of the configuration, the
same for one state and for a stack; the Evaluation holds only the floats
(or columns) the kernel gives, the laws read them, and a caller that needs
an array builds it with core.array_of.

make_controller(cfg, name)(x) is the one pointwise entry of each law; three
of them filter Sontag's input through QPs on the shared rows:

* cbf-qp      minimizes |u - u_son|^2,
* clf-cbf-qp  minimizes |u|^2 + p*delta^2 with a slacked CLF row,
* s-cbf-qp    minimizes |u - u_son|^2 weighted by Q(x) = b'b,
              the rank-one Gram matrix of b = gradW' g,

and the hybrid law applies Sontag's input wherever it already satisfies
every barrier row (region R1) and the Sontag-weighted QP elsewhere (region
R2). s_cbf_qp_filter, the S-CBF-QP at one state, is verify's reference.

The laws run on floats from the evaluation to the input: the costs 2I and
diag(2, .., 2, 2p) do not depend on the state, so make_controller builds
each as one QPSpec of float lists, factored once, to which every step adds
its rows with QPSpec.with_rows; the Sontag-weighted spec, whose cost 2 b'b
changes with the state, is built from floats at each R2 step. Rows and
weights are explicit sums (core), the bounds lb - A u_son are the negated
slacks of the evaluation, solve_qp returns floats, and u_son + z becomes the
step's one array. No controller reads the solution's KKT residual, which is
computed only when read.
closed_form_ustar, verify's cross-check for m = 1, reads the evaluation's
floats too, through closed_form_floats, which verify also calls on the rows
of a stacked evaluation.
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
from .core import (ControlAffineSystem, QuadraticCLF, SafeSet, _def, _sum,  # noqa: F401
                   array_of, columns, dot_of, kappa, matvec_of, min_first, sontag_terms,
                   state_parts)
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
    - L_f h_i) with the barrier values h_i(x), as lists. slacks are the row
    slacks s_i = A_i . u_son - lb_i, and margin the least of them (a float,
    or a column). No array form is kept: array_of(ev.x, ev.As), for one,
    builds the rows as an array, with a leading axis of N for a stack."""

    __slots__ = ("x", "fg", "grad", "w", "a", "bs", "us", "As", "lbs", "hs", "slacks", "margin")

    def __init__(self, x, fg, grad, w, a, bs, us, As, lbs, hs, slacks, margin):
        self.x, self.fg, self.grad, self.w, self.a, self.bs, self.us = x, fg, grad, w, a, bs, us
        self.As, self.lbs, self.hs, self.slacks, self.margin = As, lbs, hs, slacks, margin

    @property
    def region(self):
        """Region.R1 iff u_son satisfies every row, margin >= 0 (a NaN margin
        is R2); for a stack, the array of Region values."""
        if self.x.ndim == 1:
            return Region.R1 if self.margin >= 0.0 else Region.R2
        return np.where(self.margin >= 0.0, Region.R1, Region.R2)

    @property
    def lfw(self) -> float:
        """L_f W = gradW' f, the drift term of the CLF-decrease row."""
        return dot_of(len(self.grad))(self.grad, self.fg[0])


@lru_cache(maxsize=None)
def _kernel_of(n: int, m: int, k: int) -> Callable:
    """evaluate's body for n states, m inputs and k barriers, written out
    once: sys, clf, barriers, gamma, x -> Evaluation's fields after x and
    the row slacks and the least of them. sys.fg, clf.lie_terms and each
    hgrad are read from the objects at every call, so that a form assigned
    later runs. With (h_i, q) = hgrad_i(x): A_i = (G_1 . q, ..., G_m . q),
    lb_i = -alpha_i h_i - f . q and s_i = A_i . u_son - lb_i, explicit sums
    as in core; kappa and core.min_first branch on floats or columns."""
    lines = ["fg = f, G = sys.fg(x)", "grad, w, a, b = clf.lie_terms(x, f, G)",
             f"c = kappa(gamma, a, b, {_sum(f'b[{j}] * b[{j}]' for j in range(m))})",
             "e = clf._u_e", f"u = [{', '.join(f'e[{j}] + c[{j}]' for j in range(m))}]"]
    row = ", ".join(_sum(f"G[{j}][{l}] * q[{l}]" for l in range(n)) for j in range(m))
    lfh = _sum(f"f[{l}] * q[{l}]" for l in range(n))
    for i in range(k):
        lines += [f"h{i}, q = bars[{i}].hgrad(x)", f"A{i} = [{row}]",
                  f"lb{i} = -bars[{i}].alpha * h{i} - {lfh}"]
    slacks = ", ".join(_sum(f"A{i}[{j}] * u[{j}]" for j in range(m)) + f" - lb{i}"
                       for i in range(k))
    A, lb, h = ("[" + ", ".join(f"{name}{i}" for i in range(k)) + "]" for name in ("A", "lb", "h"))
    return _def("sys, clf, bars, gamma, x", lines + [f"s = [{slacks}]"],
                f"fg, grad, w, a, b, u, {A}, {lb}, {h}, s, min_first(s)",
                kappa=kappa, min_first=min_first)


def _margins(A, lb, u):
    """The slack A_i . u - lb_i of each row, on floats or on columns."""
    return [v - lb_i for v, lb_i in zip(matvec_of(len(A), len(u))(A, u), lb)]


def evaluate(cfg: FilterConfig, x) -> Evaluation:
    """The one pointwise evaluation behind every controller, the simulator's
    bookkeeping, control sharing and verify.

    It runs cfg's kernel (_kernel_of), which calls the system's fg and each
    barrier's hgrad once, on the Python floats of one state (n,) or the
    columns of a stack (N, n), and sums every product written out, so a
    stack row has the bits of its one-state call. The Evaluation holds what
    the kernel gives."""
    x, part = state_parts(cfg.sys.n, x)
    return Evaluation(x, *cfg._kernel(cfg.sys, cfg.clf, cfg.safe_set.barriers, cfg.gamma, part(x)))


def sontag_control(cfg: FilterConfig, x) -> np.ndarray:
    """Sontag's input at one state (m,) or a stack (N, m): evaluate's u_son."""
    ev = evaluate(cfg, x)
    return array_of(ev.x, ev.us)


def cbf_rows(cfg: FilterConfig, x) -> Tuple[np.ndarray, np.ndarray]:
    """Stack the barrier rows as A u >= lb with A_i = L_g h_i and
    lb_i = -alpha_i(h_i) - L_f h_i."""
    ev = evaluate(cfg, x)
    return array_of(ev.x, ev.As), array_of(ev.x, ev.lbs)


def classify_region(cfg: FilterConfig, x):
    """R1 where the Sontag input satisfies every barrier row (minimum slack
    >= 0, ties assigned to R1), R2 otherwise: evaluate's region, a Region
    for one state and an array of Region values for a stack."""
    return evaluate(cfg, x).region


def _flags(A, lb, u):
    """_margins_i <= ACTIVE_TOL * ((1 + |lb_i|) + |A_i| . |u|), on floats or
    on columns."""
    scale = matvec_of(len(A), len(u))([[abs(v) for v in row] for row in A], [abs(v) for v in u])
    return [r <= ACTIVE_TOL * ((1.0 + abs(lb_i)) + s)
            for r, lb_i, s in zip(_margins(A, lb, u), lb, scale)]


def active_flags(A: np.ndarray, lb: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rows whose slack at u is at most ACTIVE_TOL relative to the row scale
    1 + |lb_i| + |A_i| . |u|; for stacks A (N, k, m), lb (N, k) and u (N, m),
    an (N, k) array. The sums are explicit, on floats for one state and on
    columns for a stack, so a stack row equals its one-state call bit for
    bit."""
    part = columns if A.ndim == 3 else np.ndarray.tolist
    rows = [columns(A_i) for A_i in A.transpose(1, 0, 2)] if A.ndim == 3 else A.tolist()
    return array_of(u, _flags(rows, part(lb), part(u)))


def _solve_or_raise(spec: QPSpec, what: str, x):
    sol = solve_qp(spec)
    if not sol.optimal:
        raise InfeasibleQPError(f"{what} infeasible at x={np.asarray(x).tolist()}")
    return sol


def _diag(values: list) -> list:   # as rows of floats
    return [[v if i == j else 0.0 for j in range(len(values))] for i, v in enumerate(values)]


def _shifted_bounds(ev: Evaluation) -> list:
    """lb - A u_son, the bounds of the barrier rows A v >= lb - A u_son on
    the shift v = u - u_son (floats): the negated slacks, equal to lb_i -
    A_i . u_son, since a difference rounds the same either way round."""
    return [0.0 - s for s in ev.slacks]


def _plus(u: list, v: list) -> np.ndarray:
    return np.array([a + b for a, b in zip(u, v)])


def _cbf_qp(cost: QPSpec, ev: Evaluation) -> np.ndarray:
    """min |u - u_son|^2 s.t. the barrier rows, solved in the shift
    v = u - u_son so that a feasible Sontag input is returned unchanged;
    cost is min |v|^2, factored once."""
    spec = cost.with_rows(ev.As, _shifted_bounds(ev))
    return _plus(ev.us, _solve_or_raise(spec, "CBF-QP", ev.x).zs)


def _clf_cbf_qp_law(cfg: FilterConfig) -> Callable[[Evaluation], Tuple[np.ndarray, float]]:
    """The CLF-CBF-QP as a map from an evaluation to (u, delta):

        min |u|^2 + p*delta^2
        s.t. gradW'f + gradW'g u <= -alpha_W(W) + delta,  barrier rows.

    Its cost diag(2, .., 2, 2p) does not depend on the state, so it is
    factored here once, with cfg.p as it is now; each call builds its rows
    as floats, the delta column being 1 in the CLF row and 0 in the barrier
    rows."""
    m = cfg.sys.m
    cost = QPSpec(_diag([2.0] * m + [2.0 * cfg.p]), [0.0] * (m + 1), [], [])

    def clf_cbf_qp(ev: Evaluation) -> Tuple[np.ndarray, float]:
        A = [[-v for v in ev.bs] + [1.0]] + [row + [0.0] for row in ev.As]
        lb = [ev.lfw + ALPHA_W * ev.w] + ev.lbs
        z = _solve_or_raise(cost.with_rows(A, lb), "CLF-CBF-QP", ev.x).zs
        return np.array(z[:m]), z[m]

    return clf_cbf_qp


def s_cbf_qp_spec(cfg: FilterConfig, ev: Evaluation) -> QPSpec:
    """The Sontag-weighted filter QP in the shifted variable v = u - u_son:
    min v'(Q + reg*I)v with Q = b'b, s.t. A v >= lb - A u_son, where reg is
    QPSpec's default (1e-9), as in the other two QPs."""
    b = ev.bs
    return QPSpec([[2.0 * (b_i * b_j) for b_j in b] for b_i in b], [0.0] * cfg.sys.m,
                  ev.As, _shifted_bounds(ev))


def _s_cbf_qp(cfg: FilterConfig, ev: Evaluation) -> np.ndarray:
    try:
        spec = s_cbf_qp_spec(cfg, ev)
    except IndefiniteQPError as exc:
        raise IndefiniteQPError(f"S-CBF-QP cost at x={ev.x.tolist()}, |b|^2="
                                f"{dot_of(len(ev.bs))(ev.bs, ev.bs)!r}: "
                                f"{exc}") from None
    return _plus(ev.us, _solve_or_raise(spec, "S-CBF-QP", ev.x).zs)


def s_cbf_qp_filter(cfg: FilterConfig, x) -> np.ndarray:
    """The S-CBF-QP's input at one state: min |u - u_son|^2_{Q+reg*I} s.t.
    barrier rows, with Q = b'b, solved in the shifted variable v = u - u_son
    so the Tikhonov term is centered at Sontag's input. make_controller's
    "s-cbf-qp" runs the same body; verify calls this one."""
    return _s_cbf_qp(cfg, evaluate(cfg, x))


def closed_form_ustar(cfg: FilterConfig, x, barrier_index: int = 0
                      ) -> Tuple[np.ndarray, float]:
    """The S-CBF-QP's solution for a single input (m = 1) when one barrier
    row is active, and the row's multiplier:

        u* = -(L_f h + alpha(h)) / (L_g h)^2 * L_g h,
        lam = (u* - u_son) b^2 L_g h / (L_g h)^2.

    With m = 1 the binding row holds the single point u*, whatever the
    weight b^2. For m >= 2 the weighted QP's solution is in general not the
    least-norm point on the row, so any m other than 1 raises ValueError.
    Raises DegenerateConstraintError when L_g h vanishes, and SafeStabError
    when the multiplier comes out negative at a state classified R2. It
    reads the evaluation's floats, which closed_form_floats turns into u*
    and lam."""
    if cfg.sys.m != 1:
        raise ValueError(f"closed form holds for m = 1 only, got m = {cfg.sys.m}")
    ev = evaluate(cfg, x)
    u_star, lam = closed_form_floats(ev.As[barrier_index][0], ev.lbs[barrier_index], ev.bs[0],
                                     ev.us[0], ev.margin,
                                     cfg.safe_set.barriers[barrier_index].name, ev.x)
    return np.array([u_star]), lam


def closed_form_floats(lgh: float, lb: float, b: float, u_son: float, margin: float,
                       name: str, x) -> Tuple[float, float]:
    """(u*, lam) of closed_form_ustar from the floats of one state's
    evaluation: the row's L_g h and lb = -(L_f h + alpha(h)), b, u_son and
    the margin; name (the barrier's) and x are for the messages. Each
    product is summed from +0.0, in the order of the numpy expression:
    (L_g h)^2, then v = b^2 (u* - u_son), then lam = v L_g h / (L_g h)^2."""
    nrm2 = 0.0 + lgh * lgh
    if math.sqrt(nrm2) <= 1e-12:
        raise DegenerateConstraintError(
            f"L_g h ~ 0 for barrier {name!r}; closed form undefined")
    u_star = -(-lb / nrm2) * lgh
    lam = (0.0 + (0.0 + b * b * (u_star - u_son)) * lgh) / nrm2
    if not margin >= 0.0 and lam < -1e-9 * (1.0 + abs(lam)):
        raise SafeStabError(f"negative multiplier {lam} on R2 at x={np.asarray(x).tolist()}")
    return u_star, lam


def _hybrid(cfg: FilterConfig, ev: Evaluation) -> np.ndarray:
    return np.array(ev.us, float) if ev.margin >= 0.0 else _s_cbf_qp(cfg, ev)


def _law(cfg: FilterConfig, name: str) -> Callable[[Evaluation], np.ndarray]:
    """The map from an evaluation to the input u of controller `name`; the
    filters whose cost does not depend on the state factor it here, once."""
    if name == "sontag":
        return lambda ev: np.array(ev.us)
    if name == "cbf-qp":
        cost = QPSpec(_diag([2.0] * cfg.sys.m), [0.0] * cfg.sys.m, [], [])
        return lambda ev: _cbf_qp(cost, ev)
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
    from, whose rows, margin and barrier values the simulator logs."""
    law = _law(cfg, name)

    def control(x):
        ev = evaluate(cfg, x)
        return law(ev), ev

    control.__name__ = f"{name}_controller"
    return control
