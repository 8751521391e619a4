"""Pointwise QP controllers and the hybrid switching law.

Every controller reads the same pointwise quantities, which `evaluate`
computes from one call each of f and g: Sontag's terms a, b and input u_son,
the barrier rows L_f h_i + L_g h_i u >= -alpha_i(h_i) stacked as A u >= lb,
the barrier values h, and the R1/R2 label. Three filters share the rows:

* cbf_qp_filter      minimizes |u - u_nom|^2 (nominal defaults to Sontag),
* clf_cbf_qp_filter  minimizes |u|^2 + p*delta^2 with a slacked CLF row,
* s_cbf_qp_filter    minimizes |u - u_son|^2 weighted by Q(x) = b'b,
                     the rank-one Gram matrix of b = gradW' g.

The hybrid law applies Sontag's input wherever it already satisfies every
barrier row (region R1) and the Sontag-weighted QP elsewhere (region R2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .core import ControlAffineSystem, QuadraticCLF, SafeSet, as_vector, clf_lie_terms
from .errors import DegenerateConstraintError, InfeasibleQPError, SafeStabError
from .qp import QPSpec, solve_qp
# sontag_terms and sontag_control are unused here but stay bound: the
# benchmark's tracer (bench/instrument.py) wraps them in this module
from .sontag import sontag_control, sontag_kappa, sontag_terms  # noqa: F401

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


make_filter_config = FilterConfig


class Evaluation(NamedTuple):
    """Pointwise quantities at one state, from one call each of f and g."""

    x: np.ndarray
    f: np.ndarray        # drift f(x)
    grad_w: np.ndarray   # gradient of W
    a: float             # gradW'(f + g u_e)
    b: np.ndarray        # gradW' g, an m-row
    u_son: np.ndarray    # Sontag input
    A: np.ndarray        # barrier rows A u >= lb with A_i = L_g h_i
    lb: np.ndarray       # and lb_i = -alpha_i(h_i) - L_f h_i
    h: np.ndarray        # barrier values h_i(x)
    label: RegionLabel   # R1 iff u_son satisfies every row

    @property
    def lfw(self) -> float:
        """L_f W = gradW' f, the drift term of the CLF-decrease row."""
        return float(self.grad_w @ self.f)


def evaluate(cfg: FilterConfig, x) -> Evaluation:
    """The one pointwise evaluation behind every controller, the simulator's
    bookkeeping, control sharing and verify.

    This is the per-step hot path of the simulator, so the scenario's
    closures are called directly rather than through the validating
    wrappers of ControlAffineSystem and Barrier."""
    x = as_vector(x, cfg.sys.n)
    f = np.asarray(cfg.sys.f(x), dtype=float)
    G = np.asarray(cfg.sys.g(x), dtype=float)
    if G.shape != (cfg.sys.n, cfg.sys.m):   # rk4_step relies on this check
        raise ValueError(f"g(x) must be ({cfg.sys.n}, {cfg.sys.m}), got {G.shape}")
    grad_w, a, b = clf_lie_terms(cfg.clf, x, f, G)
    u_son = cfg.clf.equilibrium.u_e + sontag_kappa(cfg.gamma, a, b)
    barriers = cfg.safe_set.barriers
    k = len(barriers)
    A = np.empty((k, cfg.sys.m))
    lb = np.empty(k)
    h = np.empty(k)
    for i, bar in enumerate(barriers):
        grad = bar.grad_h(x)
        h_i = float(bar.h(x))
        h[i] = h_i
        A[i] = grad @ G
        lb[i] = -bar.alpha * h_i - float(grad @ f)
    margin = float(row_margins(A, lb, u_son).min())
    label = RegionLabel(Region.R1 if margin >= 0.0 else Region.R2, margin)
    return Evaluation(x, f, grad_w, a, b, u_son, A, lb, h, label)


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
    """Slack of each barrier row at the input u (nonnegative means satisfied)."""
    return A @ u - lb


def active_flags(A: np.ndarray, lb: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rows whose slack at u is at most ACTIVE_TOL relative to the row scale."""
    scale = 1.0 + np.abs(lb) + np.abs(A) @ np.abs(u)
    return row_margins(A, lb, u) <= ACTIVE_TOL * scale


def _solve_or_raise(spec: QPSpec, what: str, x):
    sol = solve_qp(spec)
    if not sol.optimal:
        raise InfeasibleQPError(f"{what} infeasible at x={np.asarray(x).tolist()}")
    return sol


def _cbf_qp(cfg: FilterConfig, ev: Evaluation, u_nom: np.ndarray) -> np.ndarray:
    m = cfg.sys.m
    spec = QPSpec(2.0 * np.eye(m), np.zeros(m), ev.A, ev.lb - ev.A @ u_nom)
    return u_nom + _solve_or_raise(spec, "CBF-QP", ev.x).z_star


def cbf_qp_filter(cfg: FilterConfig, x, u_nom=None) -> np.ndarray:
    """Minimum-deviation safety filter: min |u - u_nom|^2 s.t. barrier rows.

    Solved in the shifted variable v = u - u_nom so the Tikhonov term is
    centered at the nominal input and a feasible nominal is returned
    unchanged."""
    ev = evaluate(cfg, x)
    u_nom = ev.u_son if u_nom is None else as_vector(u_nom, cfg.sys.m)
    return _cbf_qp(cfg, ev, u_nom)


def _clf_cbf_qp(cfg: FilterConfig, ev: Evaluation) -> Tuple[np.ndarray, float]:
    m = cfg.sys.m
    H = np.zeros((m + 1, m + 1))
    H[:m, :m] = 2.0 * np.eye(m)
    H[m, m] = 2.0 * cfg.p
    clf_row = np.concatenate([-ev.b, [1.0]])
    A = np.vstack([clf_row, np.hstack([ev.A, np.zeros((len(ev.lb), 1))])])
    lb = np.concatenate([[ev.lfw + ALPHA_W * cfg.clf.value(ev.x)], ev.lb])
    spec = QPSpec(H, np.zeros(m + 1), A, lb)
    z = _solve_or_raise(spec, "CLF-CBF-QP", ev.x).z_star
    return z[:m], float(z[m])


def clf_cbf_qp_filter(cfg: FilterConfig, x) -> Tuple[np.ndarray, float]:
    """Slack-relaxed combined filter over (u, delta):

        min |u|^2 + p*delta^2
        s.t. gradW'f + gradW'g u <= -alpha_W(W) + delta,  barrier rows.

    Returns (u, delta)."""
    return _clf_cbf_qp(cfg, evaluate(cfg, x))


def s_cbf_qp_spec(cfg: FilterConfig, ev: Evaluation) -> QPSpec:
    """The Sontag-weighted filter QP in the shifted variable v = u - u_son:
    min v'(Q + reg*I)v with Q = b'b, s.t. A v >= lb - A u_son, where reg is
    QPSpec's default (1e-9), as in the other two filters."""
    return QPSpec(2.0 * np.outer(ev.b, ev.b), np.zeros(cfg.sys.m),
                  ev.A, ev.lb - ev.A @ ev.u_son)


def _s_cbf_qp(cfg: FilterConfig, ev: Evaluation) -> np.ndarray:
    return ev.u_son + _solve_or_raise(s_cbf_qp_spec(cfg, ev), "S-CBF-QP", ev.x).z_star


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
    ev = evaluate(cfg, x)
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


# controller tag -> law mapping an evaluation to the input u
_LAWS = {
    "sontag": lambda cfg, ev: ev.u_son,
    "cbf-qp": lambda cfg, ev: _cbf_qp(cfg, ev, ev.u_son),
    "clf-cbf-qp": lambda cfg, ev: _clf_cbf_qp(cfg, ev)[0],
    "s-cbf-qp": _s_cbf_qp,
    "hybrid": _hybrid,
}


def make_controller(cfg: FilterConfig, name: str
                    ) -> Callable[[np.ndarray], Tuple[np.ndarray, Evaluation]]:
    """Controller factory for the tags accepted by the CLI. The controller
    maps a state x to (u, ev): its input and the evaluation it was computed
    from, whose rows, label and barrier values the simulator logs."""
    if name not in _LAWS:
        raise ValueError(f"unknown controller {name!r}; choose from {CONTROLLER_NAMES}")
    law = _LAWS[name]

    def control(x):
        ev = evaluate(cfg, x)
        return law(cfg, ev), ev

    control.__name__ = f"{name}_controller"
    return control
