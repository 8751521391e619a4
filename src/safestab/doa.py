"""Control-sharing verification and the certified domain of attraction
A_WC = {W <= c*} intersected with the safe set.

The largest admissible sub-level value c* is found by bisection, where a
candidate c is accepted iff every grid point of {W <= c} inside the safe set
(outside a small ball around the equilibrium) admits one input that satisfies
all barrier rows and strictly decreases W. Grid verification is a sampling
surrogate for the set-inclusion definition; the resolution is configurable
and reported with the estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import as_vector
from .errors import SharingInfeasibleError
# cbf_rows is unused here but stays bound: the benchmark's tracer
# (bench/instrument.py) wraps it in this module
from .filters import FilterConfig, cbf_rows, evaluate  # noqa: F401
from .qp import lp_feasible

# the bisection for c* stops once its bracket is narrower than this fraction
# of its upper end
C_STAR_REL_TOL = 1e-3
# grid points this close to x_e are not checked: b and the required decrease
# both vanish at x_e
EXCLUDE_RADIUS = 1e-3
# rays cast from x_e by largest_clf_sublevel_inside and awc_boundary_points
N_DIRECTIONS = 256
# largest_clf_sublevel_inside treats a ray as unbounded past this parameter
SUBLEVEL_T_MAX = 1e3
# draws sample_states_in_awc makes before it gives up
AWC_MAX_TRIES = 100000


def control_sharing_holds(cfg: FilterConfig, x, eps_share: Optional[float] = None) -> bool:
    """True iff one input satisfies every barrier row and gives
    gradW'(f + g u) <= -eps_share (strict decrease surrogate)."""
    ev = evaluate(cfg, x)
    if eps_share is None:
        eps_share = 1e-9 * (1.0 + cfg.clf.value(ev.x))
    A = np.vstack([ev.A, -ev.b[None, :]])
    lb = np.concatenate([ev.lb, [ev.lfw + eps_share]])
    return lp_feasible(A, lb)


def ray_exit(inside: Callable[[np.ndarray], bool], origin: np.ndarray,
             direction: np.ndarray, t_max: float = 1e6
             ) -> Optional[Tuple[float, float]]:
    """Bracket (lo, hi) of the first exit of origin + t*direction from the
    set `inside`: t doubles from 1 while the point stays inside, up to t_max,
    then 60 bisection steps keep lo inside and hi outside. None when no
    outside point was found up to t_max."""
    lo, hi = 0.0, None
    t = 1.0
    while t <= t_max:
        if not inside(origin + t * direction):
            hi = t
            break
        lo = t
        t *= 2.0
    if hi is None:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if inside(origin + mid * direction):
            lo = mid
        else:
            hi = mid
    return lo, hi


@dataclass
class DoaEstimate:
    """Result of the bisection. first_infeasible_c is the smallest level
    found infeasible (None when c_hi passed), and first_infeasible_violations
    the grid states at or below it that fail control sharing."""

    c_star: float
    grid_resolution: Tuple[int, ...]
    verified_points: int
    tested: List[Tuple[float, bool]] = field(default_factory=list)
    first_infeasible_c: Optional[float] = None
    first_infeasible_violations: List[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not self.c_star > 0.0:
            raise ValueError("c_star must be positive")


def sublevel_bounding_box(cfg: FilterConfig, c: float) -> np.ndarray:
    """Axis-aligned bounding box of {W <= c}: x_e,i +- sqrt(c * (P^-1)_ii)."""
    pinv_diag = np.diag(np.linalg.inv(cfg.clf.P))
    half = np.sqrt(np.maximum(c * pinv_diag, 0.0))
    x_e = cfg.clf.equilibrium.x_e
    return np.stack([x_e - half, x_e + half], axis=1)


def compute_c_star(cfg: FilterConfig, grid_resolution: Sequence[int],
                   c_bounds: Tuple[float, float]) -> DoaEstimate:
    """Bisection for the largest c whose grid points in {W <= c} inside the
    safe set all pass control sharing, down to a bracket of C_STAR_REL_TOL
    times its upper end.

    Sharing at a point does not depend on c, so every candidate (W <= c_hi,
    inside the safe set, farther than EXCLUDE_RADIUS from x_e) is checked
    once, and a level c passes exactly when it lies below the smallest W
    among the failing candidates."""
    c_lo, c_hi = float(c_bounds[0]), float(c_bounds[1])
    if not (0.0 < c_lo < c_hi):
        raise ValueError("c_bounds must satisfy 0 < c_lo < c_hi")
    resolution = tuple(int(r) for r in grid_resolution)
    if len(resolution) != cfg.sys.n or any(r < 2 for r in resolution):
        raise ValueError("grid_resolution needs one count >= 2 per state axis")

    bounds = sublevel_bounding_box(cfg, c_hi)
    axes = [np.linspace(bounds[i, 0], bounds[i, 1], resolution[i])
            for i in range(cfg.sys.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    x_e = cfg.clf.equilibrium.x_e
    w_vals = np.array([cfg.clf.value(p) for p in points])
    near_eq = np.linalg.norm(points - x_e, axis=1) <= EXCLUDE_RADIUS
    idxs = [i for i in np.flatnonzero(~near_eq & (w_vals <= c_hi))
            if cfg.safe_set.min_value(points[i]) >= 0.0]
    failing = np.array([i for i in idxs if not control_sharing_holds(cfg, points[i])],
                       dtype=int)
    w_fail = float(w_vals[failing].min(initial=math.inf))

    if not c_lo < w_fail:
        raise SharingInfeasibleError(
            f"control sharing fails already at c={c_lo}; CLF/CBF incompatible near x_e")
    tested = [(c_lo, True), (c_hi, c_hi < w_fail)]
    lo, hi = (c_hi, c_hi) if c_hi < w_fail else (c_lo, c_hi)
    while hi - lo > C_STAR_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        tested.append((mid, mid < w_fail))
        if mid < w_fail:
            lo = mid
        else:
            hi = mid
    # hi is now the smallest level tested infeasible, unless c_hi passed
    first_bad_c = None if c_hi < w_fail else hi
    first_bad_states = [] if first_bad_c is None else \
        list(points[failing[w_vals[failing] <= first_bad_c]])
    return DoaEstimate(
        c_star=lo,
        grid_resolution=resolution,
        verified_points=len(idxs),
        tested=tested,
        first_infeasible_c=first_bad_c,
        first_infeasible_violations=first_bad_states,
    )


def in_awc(estimate: DoaEstimate, cfg: FilterConfig, x) -> bool:
    """Membership in the closed set {W <= c*} intersect {min_i h_i >= 0}."""
    x = as_vector(x, cfg.sys.n)
    return cfg.clf.value(x) <= estimate.c_star and cfg.safe_set.min_value(x) >= 0.0


def largest_clf_sublevel_inside(cfg: FilterConfig, seed: int = 0) -> float:
    """Line-search estimate of the conservative level c_triv = max{c : {W<=c}
    inside the safe set}: walk rays from x_e to the safe-set boundary and take
    the smallest W found there."""
    rng = np.random.default_rng(seed)
    x_e = cfg.clf.equilibrium.x_e
    best = math.inf
    dirs = rng.normal(size=(N_DIRECTIONS, cfg.sys.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for d in dirs:
        bracket = ray_exit(cfg.safe_set.contains, x_e, d, SUBLEVEL_T_MAX)
        if bracket is None:
            continue  # safe set unbounded along this ray
        best = min(best, cfg.clf.value(x_e + bracket[1] * d))
    if not math.isfinite(best):
        raise SharingInfeasibleError("no safe-set boundary found along any ray")
    return best


def awc_boundary_points(estimate: DoaEstimate, cfg: FilterConfig,
                        seed: int = 0) -> np.ndarray:
    """Ray-cast samples of the boundary of A_WC for plotting."""
    rng = np.random.default_rng(seed)
    x_e = cfg.clf.equilibrium.x_e

    def inside(x):
        return in_awc(estimate, cfg, x)

    dirs = rng.normal(size=(N_DIRECTIONS, cfg.sys.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = []
    for d in dirs:
        bracket = ray_exit(inside, x_e, d)
        if bracket is not None:
            pts.append(x_e + bracket[0] * d)
    return np.array(pts)


def sample_states_in_awc(estimate: DoaEstimate, cfg: FilterConfig, count: int,
                         seed: int = 0) -> np.ndarray:
    """Seeded rejection sampling of states in A_WC (W <= c* inside the safe
    set), at most AWC_MAX_TRIES draws."""
    rng = np.random.default_rng(seed)
    cap = estimate.c_star
    bounds = sublevel_bounding_box(cfg, cap)
    out = []
    for _ in range(AWC_MAX_TRIES):
        x = rng.uniform(bounds[:, 0], bounds[:, 1])
        if cfg.clf.value(x) <= cap and cfg.safe_set.min_value(x) >= 0.0:
            out.append(x)
            if len(out) == count:
                return np.array(out)
    raise SharingInfeasibleError(
        f"could not draw {count} states inside A_WC within {AWC_MAX_TRIES} tries")
