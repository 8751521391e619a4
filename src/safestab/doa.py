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

from .core import as_vector, rejection_sample
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


def control_sharing_holds(cfg: FilterConfig, x):
    """True iff one input satisfies every barrier row and gives
    gradW'(f + g u) <= -eps with eps = 1e-9 * (1 + W(x)) (strict decrease
    surrogate). For a stack of states (N, n), a boolean array (N,) from one
    evaluation and one stacked LP test."""
    ev = evaluate(cfg, x)
    # the CLF row -b u >= L_f W + eps below the barrier rows
    A = np.concatenate([ev.A, -ev.b[..., None, :]], axis=-2)
    lb = np.concatenate([ev.lb, np.expand_dims(ev.lfw + 1e-9 * (1.0 + ev.w), -1)], axis=-1)
    return lp_feasible(A, lb)


def ray_exit(inside: Callable[[np.ndarray], np.ndarray], origin: np.ndarray,
             directions: np.ndarray, t_max: float = 1e6
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Brackets (lo, hi) of the first exit of origin + t*d from the set
    `inside`, for each row d of directions (R, n), all rays in lockstep.
    `inside` maps a stack of states to a boolean array. Along each ray t
    doubles from 1 while the point stays inside, up to t_max, then 60
    bisection steps keep lo inside and hi outside. hi is inf, and lo the last
    inside t, for a ray with no outside point up to t_max."""
    R = directions.shape[0]
    lo = np.zeros(R)
    hi = np.full(R, math.inf)
    going = np.arange(R)
    t = 1.0
    while t <= t_max and going.size:
        inn = inside(origin + t * directions[going])
        hi[going[~inn]] = t
        going = going[inn]
        lo[going] = t
        t *= 2.0
    ends = np.flatnonzero(hi < math.inf)
    d_end = directions[ends]
    for _ in range(60):
        mid = 0.5 * (lo[ends] + hi[ends])
        inn = inside(origin + mid[:, None] * d_end)
        lo[ends[inn]] = mid[inn]
        hi[ends[~inn]] = mid[~inn]
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
    among the failing candidates. Raises ValueError when there is no
    candidate, since c_hi would then pass without a single check."""
    c_lo, c_hi = float(c_bounds[0]), float(c_bounds[1])
    if not (0.0 < c_lo < c_hi < math.inf):
        raise ValueError("c_bounds must satisfy 0 < c_lo < c_hi < inf")
    resolution = tuple(int(r) for r in grid_resolution)
    if len(resolution) != cfg.sys.n or any(r < 2 for r in resolution):
        raise ValueError("grid_resolution needs one count >= 2 per state axis")

    bounds = sublevel_bounding_box(cfg, c_hi)
    axes = [np.linspace(bounds[i, 0], bounds[i, 1], resolution[i])
            for i in range(cfg.sys.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    x_e = cfg.clf.equilibrium.x_e
    w_vals = cfg.clf.value(points)
    near_eq = np.linalg.norm(points - x_e, axis=1) <= EXCLUDE_RADIUS
    cands = np.flatnonzero(~near_eq & (w_vals <= c_hi))
    idxs = cands[cfg.safe_set.min_value(points[cands]) >= 0.0]
    if not idxs.size:
        raise ValueError(
            f"no grid point of {{W <= {c_hi}}} inside the safe set to verify at "
            f"resolution {resolution}")
    failing = idxs[~control_sharing_holds(cfg, points[idxs])]
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
        verified_points=int(idxs.size),
        tested=tested,
        first_infeasible_c=first_bad_c,
        first_infeasible_violations=first_bad_states,
    )


def in_awc(estimate: DoaEstimate, cfg: FilterConfig, x):
    """Membership in the closed set {W <= c*} intersect {min_i h_i >= 0}; for
    a stack (N, n), a boolean array whose barriers are evaluated only where
    W <= c*, as the one-state test does."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        inside = cfg.clf.value(x) <= estimate.c_star
        inside[inside] = cfg.safe_set.min_value(x[inside]) >= 0.0
        return inside
    x = as_vector(x, cfg.sys.n)
    return cfg.clf.value(x) <= estimate.c_star and cfg.safe_set.min_value(x) >= 0.0


def _directions(n: int, seed: int) -> np.ndarray:
    """N_DIRECTIONS seeded unit vectors in R^n."""
    dirs = np.random.default_rng(seed).normal(size=(N_DIRECTIONS, n))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def largest_clf_sublevel_inside(cfg: FilterConfig, seed: int = 0) -> float:
    """Line-search estimate of the conservative level c_triv = max{c : {W<=c}
    inside the safe set}: walk rays from x_e to the safe-set boundary and take
    the smallest W found there."""
    x_e = cfg.clf.equilibrium.x_e
    dirs = _directions(cfg.sys.n, seed)
    _, hi = ray_exit(cfg.safe_set.contains, x_e, dirs, SUBLEVEL_T_MAX)
    ends = hi < math.inf   # the safe set is unbounded along the other rays
    if not ends.any():
        raise SharingInfeasibleError("no safe-set boundary found along any ray")
    return float(cfg.clf.value(x_e + hi[ends, None] * dirs[ends]).min())


def awc_boundary_points(estimate: DoaEstimate, cfg: FilterConfig,
                        seed: int = 0) -> np.ndarray:
    """Ray-cast samples of the boundary of A_WC for plotting, one (n,) row
    per ray that leaves A_WC."""
    x_e = cfg.clf.equilibrium.x_e
    dirs = _directions(cfg.sys.n, seed)
    lo, hi = ray_exit(lambda X: in_awc(estimate, cfg, X), x_e, dirs)
    ends = hi < math.inf
    return x_e + lo[ends, None] * dirs[ends]


def sample_states_in_awc(estimate: DoaEstimate, cfg: FilterConfig, count: int,
                         seed: int = 0) -> np.ndarray:
    """Seeded rejection sampling of count states in A_WC (W <= c* inside
    the safe set), at most AWC_MAX_TRIES draws; an empty (0, n) array for
    count 0 and ValueError for a negative count."""
    rng = np.random.default_rng(seed)
    bounds = sublevel_bounding_box(cfg, estimate.c_star)
    out = rejection_sample(rng, bounds[:, 0], bounds[:, 1],
                           lambda X: in_awc(estimate, cfg, X), count, AWC_MAX_TRIES)
    if len(out) < count:
        raise SharingInfeasibleError(
            f"could not draw {count} states inside A_WC within {AWC_MAX_TRIES} tries")
    return out
