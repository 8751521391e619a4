"""The stack path against the one-state path, bit for bit.

The closures, QuadraticCLF, SafeSet, evaluate, active_flags,
control_sharing_holds, lp_feasible, the finite differences, sontag_terms and
sontag_decrease_rate take a stack of states (N, n) in one numpy pass;
compute_c_star, the lockstep ray_exit, the block samplers, is_valid_local_clf
and verify's sampled checks are built on it. Each test
compares bytes (`tobytes()`) with N one-state calls or with a per-item
reference written here, on both bundled scenarios."""
import math

import numpy as np
import pytest

from safestab import cli, doa, verify
from safestab.core import (B_FLOOR, LOCAL_CLF_SAMPLES, SAMPLE_BLOCK, Barrier,
                           ControlAffineSystem, QuadraticCLF, SafeSet, array_of, fd_gradient,
                           is_valid_local_clf, sample_ball, sontag_terms)
from safestab.doa import (SUBLEVEL_T_MAX, compute_c_star, control_sharing_holds,
                          in_awc, ray_exit, sample_states_in_awc)
from safestab.filters import Region, active_flags, evaluate, make_filter_config
from safestab.qp import lp_feasible
from safestab.sontag import sontag_decrease_rate


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def stack(items):
    return np.array([np.asarray(v, dtype=float) for v in items])


ARRAY_NAMES = ("f", "b", "u_son", "A", "lb", "h")


def arrays(ev):
    """An evaluation's f, b, u_son, A, lb and h as arrays, by core.array_of."""
    return [array_of(ev.x, v) for v in (ev.fg[0], ev.bs, ev.us, ev.As, ev.lbs, ev.hs)]


@pytest.fixture(params=["linear", "tumor"])
def case(request, linear, tumor, linear_cfg, tumor_cfg):
    return (linear, linear_cfg) if request.param == "linear" else (tumor, tumor_cfg)


def probe_states(bundle, count=600, seed=11):
    """Uniform states of the scenario's domain, x_e, states within 1e-12 of
    the surface b = 0 (where the input direction of W vanishes) and states
    where g vanishes; for tumor3d also [9.5, 0.5, 0.5], where L_g h = 0
    while lb > 0."""
    rng = np.random.default_rng(seed)
    lo, hi = bundle.domain[:, 0], bundle.domain[:, 1]
    x_e, P = bundle.eq.x_e, bundle.clf.P
    # b = gradW' g vanishes where (P (x - x_e))_j = 0 for the one row j of g
    # that is not zero
    j = int(np.argmax(np.abs(bundle.sys.g(x_e)[:, 0])))
    near_b0 = []
    for eps in (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9):
        for _ in range(10):
            d = rng.uniform(lo, hi) - x_e
            d[j] = (eps - (P[j] @ d - P[j, j] * d[j])) / P[j, j]
            near_b0.append(x_e + d)
    g_zero = [np.where(np.arange(x_e.size) == i, 0.0, x_e) for i in range(x_e.size)]
    extra = [x_e] + near_b0 + g_zero
    if bundle.sys.n == 3:
        extra.append(np.array([9.5, 0.5, 0.5]))
    return np.vstack([rng.uniform(lo, hi, size=(count, lo.size)), extra])


def test_closures_clf_and_safe_set_match_one_state(case):
    bundle, _ = case
    X = probe_states(bundle)
    sys, clf, safe = bundle.sys, bundle.clf, bundle.safe_set
    assert same(sys.f(X), stack(sys.f(x) for x in X))
    assert same(sys.g(X), stack(sys.g(x) for x in X))
    for bar in safe.barriers:
        assert same(bar.h(X), stack(bar.h(x) for x in X))
        assert same(bar.grad_h(X), stack(bar.grad_h(x) for x in X))
    assert same(clf.value(X), stack(clf.value(x) for x in X))
    assert same(clf.grad(X), stack(clf.grad(x) for x in X))
    assert same(safe.values(X), stack(safe.values(x) for x in X))
    assert same(safe.min_value(X), stack(safe.min_value(x) for x in X))
    assert same(safe.contains(X), np.array([safe.contains(x) for x in X]))


def test_safe_set_membership_keeps_the_bits_of_the_numpy_closures(case):
    # values, min_value and contains run each barrier's hgrad once on the
    # columns; they have the bits of stacking the numpy h closures and
    # taking numpy's min, also on rows with a NaN in the first or last
    # coordinate (a NaN value of some barriers or of all), where contains
    # is false; a least value that is NaN may differ in its sign, which
    # IEEE 754 leaves open
    bundle, _ = case
    safe = bundle.safe_set
    X = probe_states(bundle)
    X[3, 0] = X[4, -1] = math.nan
    old = np.stack([bar.h(X) for bar in safe.barriers], axis=-1)
    assert same(safe.values(X), old)
    least, nan = safe.min_value(X), np.isnan(old).any(axis=1)
    assert same(np.isnan(least), nan) and nan[3] and nan[4]
    assert same(least[~nan], old.min(axis=-1)[~nan])
    assert same(safe.contains(X), old.min(axis=-1) >= 0.0)
    assert not safe.contains(X[3:5]).any()
    finite = ~np.isnan(X).any(axis=1)
    assert same(safe.values(X)[finite], stack(safe.values(x) for x in X[finite]))
    assert same(safe.min_value(X)[finite], stack(safe.min_value(x) for x in X[finite]))
    assert same(safe.contains(X), np.array([safe.contains(x) for x in X]))
    assert all(type(safe.min_value(x)) is float and type(safe.contains(x)) is bool
               for x in X[:5])


def test_a_constant_barrier_fills_its_column_of_the_safe_set(case):
    # a body that gives a float h for a stack still gives (N,) results
    bundle, _ = case
    n = bundle.sys.n
    const = Barrier.from_hgrad(lambda xs: (0.25, [0.0] * n), alpha=1.0)
    X = probe_states(bundle, count=50)
    for barriers in ((const,), bundle.safe_set.barriers + (const,),
                     (const,) + bundle.safe_set.barriers):
        safe = SafeSet(barriers)
        assert same(safe.values(X), stack(safe.values(x) for x in X))
        assert same(safe.min_value(X), stack(safe.min_value(x) for x in X))
        assert same(safe.contains(X), np.array([safe.contains(x) for x in X]))
        assert safe.min_value(X).flags.writeable


def test_closures_return_fresh_writable_float_arrays(case):
    # a caller may write into what f, g, h and grad_h return: it is a float
    # array of its own, also from a form that returns x's columns unchanged
    # (a one-state h is a Python float)
    bundle, _ = case
    n = bundle.sys.n
    echo_sys = ControlAffineSystem.from_fg(lambda xs: (list(xs), [list(xs)]), n, 1)
    echo_bar = Barrier.from_hgrad(lambda xs: (xs[0], list(xs)), alpha=1.0)
    systems, bars = (bundle.sys, echo_sys), bundle.safe_set.barriers + (echo_bar,)
    X = probe_states(bundle, count=5)
    for x in (X[0], X):
        outs = [s.f(x) for s in systems] + [s.g(x) for s in systems] + \
            [bar.grad_h(x) for bar in bars]
        if x.ndim == 1:
            assert all(type(bar.h(x)) is float for bar in bars)
        else:
            outs += [bar.h(x) for bar in bars]
        for out in outs:
            assert out.dtype == np.float64 and out.flags.writeable
            assert not np.shares_memory(out, x)


def test_evaluate_matches_one_state(case):
    bundle, cfg = case
    X = probe_states(bundle)
    ev = evaluate(cfg, X)
    evs = [evaluate(cfg, x) for x in X]
    for name in ("x", "a", "lfw"):
        assert same(getattr(ev, name), stack(getattr(e, name) for e in evs)), name
    for name, got, *want in zip(ARRAY_NAMES, arrays(ev), *map(arrays, evs)):
        assert same(got, stack(want)), name
    f, b, u_son, A, lb, h = arrays(ev)
    assert same(np.stack(ev.grad, axis=1), stack(e.grad for e in evs))
    assert same(np.stack(ev.slacks, axis=1), stack(e.slacks for e in evs))
    assert same(ev.margin, stack(e.margin for e in evs))
    assert same(ev.region, np.array([int(e.region) for e in evs]))
    # the probes reach both regions, zero Sontag corrections, and for tumor3d
    # the row L_g h = 0 with lb > 0
    assert set(ev.region.tolist()) == {0, 1}
    assert (u_son == cfg.clf.equilibrium.u_e).all(axis=1).any()
    if bundle.sys.n == 3:
        assert ((A[:, :, 0] == 0.0) & (lb > 0.0)).any()


def test_the_region_is_r1_iff_the_margin_is_nonnegative(case):
    # a Region for one state, an array of Region values for a stack
    bundle, cfg = case
    X = probe_states(bundle, count=200)
    ev = evaluate(cfg, X)
    assert same(ev.region, np.where(ev.margin >= 0.0, Region.R1, Region.R2))
    for i, x in enumerate(X):
        one = evaluate(cfg, x)
        assert one.region is (Region.R1 if one.margin >= 0.0 else Region.R2)
        assert one.region == ev.region[i]
    # a NaN margin falls on R2, for one state and for a stack
    nan_row = Barrier.from_hgrad(lambda xs: (math.nan, [0.0] * bundle.sys.n), alpha=1.0)
    cfg = make_filter_config(bundle.sys, bundle.clf, SafeSet((nan_row,)))
    ev = evaluate(cfg, X[:5])
    assert np.isnan(ev.margin).all() and (ev.region == Region.R2).all()
    one = evaluate(cfg, X[0])
    assert math.isnan(one.margin) and one.region is Region.R2


def flag_inputs(rng, A, lb, u):
    """Copies of the stacks (A, lb, u) with +-0, +-inf and NaN written into
    some entries of each, and states whose u is 0, -0 or u scaled by 1e300."""
    A, lb, u = A.copy(), lb.copy(), u.copy()
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan])
    N = A.shape[0]
    for arr in (A, lb, u):
        flat = arr.reshape(N, -1)
        rows = rng.choice(N, N // 4, replace=False)
        flat[rows, rng.integers(0, flat.shape[1], rows.size)] = rng.choice(special, rows.size)
    u[:10] = 0.0
    u[10:20] = -0.0
    u[20:30] *= 1e300
    return A, lb, u


def assert_flags_match_one_state(A, lb, u):
    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf, 0 * inf
        got = active_flags(A, lb, u)
        want = np.array([active_flags(A_i, lb_i, u_i) for A_i, lb_i, u_i in zip(A, lb, u)])
    assert same(got, want)
    return got


def test_active_flags_match_one_state(case):
    bundle, cfg = case
    X = probe_states(bundle)
    _, _, u_son, A, lb, _ = arrays(evaluate(cfg, X))
    rng = np.random.default_rng(5)
    # at u_son the violated rows of R2 states are flagged and the rows of
    # most R1 states are not; an input on row 0's boundary flags row 0
    flags = assert_flags_match_one_state(A, lb, u_son)
    A0 = A[:, 0, 0]
    on_row = np.where(A0 != 0.0, lb[:, 0] / np.where(A0 != 0.0, A0, 1.0), 0.0)[:, None]
    assert assert_flags_match_one_state(A, lb, on_row)[:, 0].any()
    assert flags.any() and not flags.all()
    assert_flags_match_one_state(*flag_inputs(rng, A, lb, u_son))


def test_active_flags_match_one_state_for_two_inputs():
    rng = np.random.default_rng(6)
    N, k, m = 800, 3, 2
    A = rng.normal(size=(N, k, m)) * 10.0 ** rng.uniform(-6.0, 6.0, (N, k, m))
    u = rng.normal(size=(N, m)) * 10.0 ** rng.uniform(-6.0, 6.0, (N, m))
    lb = (A @ u[:, :, None])[:, :, 0] - rng.choice([0.0, 1e-9, 1e-3, 1.0], (N, k))
    flags = assert_flags_match_one_state(A, lb, u)
    assert flags.any() and not flags.all()
    assert_flags_match_one_state(*flag_inputs(rng, A, lb, u))


def test_control_sharing_and_awc_membership_match_one_state(case):
    bundle, cfg = case
    X = probe_states(bundle)
    held = control_sharing_holds(cfg, X)
    assert same(held, np.array([control_sharing_holds(cfg, x) for x in X]))
    assert held.any() and not held.all()
    est = compute_c_star(cfg, (21,) * bundle.sys.n, (0.2, 60.0))
    assert same(in_awc(est, cfg, X), np.array([in_awc(est, cfg, x) for x in X]))


@pytest.mark.parametrize("x", [[1.0, 2.0, 3.0, 4.0], [1.0], np.ones((2, 4)), np.ones((3, 1))],
                         ids=["long-state", "short-state", "wide-stack", "narrow-stack"])
def test_the_clf_refuses_a_state_or_stack_of_the_wrong_length(linear, x):
    # a longer state is not read as its first two entries, nor a stack's
    for read in (linear.clf.value, linear.clf.grad):
        with pytest.raises(ValueError, match=f"length 2, got {np.shape(x)[-1]}$"):
            read(x)


def test_awc_membership_refuses_a_stack_of_the_wrong_width(linear_cfg):
    est = doa.DoaEstimate(c_star=1.0, grid_resolution=(2, 2), verified_points=1)
    with pytest.raises(ValueError, match="length 2, got 3$"):
        in_awc(est, linear_cfg, np.zeros((4, 3)))


def interval_feasible(a, b):
    """Some z with a_i z >= b_i for every row: the interval intersection one
    row at a time on Python floats, where max and min skip a NaN bound."""
    lo, hi = -math.inf, math.inf
    for a_i, b_i in zip(a, b):
        if a_i > 0.0:
            lo = max(lo, b_i / a_i)
        elif a_i < 0.0:
            hi = min(hi, b_i / a_i)
        elif b_i > 0.0:
            return False
    return lo <= hi


def test_lp_feasible_stack_matches_per_system():
    rng = np.random.default_rng(3)
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan])
    for d, k in ((1, 4), (1, 0), (2, 3), (2, 0)):
        A = rng.normal(size=(300, k, d))
        b = rng.normal(size=(300, k))
        if d == 1 and k:
            # exact zeros in A, with either sign of b, and a NaN ratio in a
            # system whose other rows hold on [0.5, 1]
            A[::7, 1] = 0.0
            b[::14, 1] = 0.5
            A[5, :, 0], b[5] = [1.0, -1.0, math.inf, 1.0], [0.0, -1.0, math.inf, 0.5]
            # +-0, +-inf and NaN in a and in b
            A[200:, 2, 0] = rng.choice(special, 100)
            b[250:, 3] = rng.choice(special, 50)
        got = lp_feasible(A, b)
        assert same(got, np.array([lp_feasible(A_i, b_i) for A_i, b_i in zip(A, b)])), (d, k)
        if d == 1:
            want = [interval_feasible(a, b_i) for a, b_i in zip(A[:, :, 0].tolist(), b.tolist())]
            assert got.tolist() == want, (d, k)
        assert d > 1 or not k or got[5]
        if k:
            assert got.any() and not got.all(), (d, k)


def c_star_per_point(cfg, grid, c_bounds):
    """compute_c_star written point by point with one-state calls."""
    c_lo, c_hi = c_bounds
    bounds = doa.sublevel_bounding_box(cfg, c_hi)
    axes = [np.linspace(bounds[i, 0], bounds[i, 1], grid[i]) for i in range(cfg.sys.n)]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    x_e = cfg.clf.equilibrium.x_e
    w_vals = np.array([cfg.clf.value(p) for p in points])
    idxs = [i for i, p in enumerate(points)
            if np.linalg.norm(p - x_e) > doa.EXCLUDE_RADIUS and w_vals[i] <= c_hi
            and cfg.safe_set.min_value(p) >= 0.0]
    failing = [i for i in idxs if not control_sharing_holds(cfg, points[i])]
    w_fail = min((w_vals[i] for i in failing), default=math.inf)
    tested = [(c_lo, True), (c_hi, c_hi < w_fail)]
    lo, hi = (c_hi, c_hi) if c_hi < w_fail else (c_lo, c_hi)
    while hi - lo > doa.C_STAR_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        tested.append((mid, mid < w_fail))
        lo, hi = (mid, hi) if mid < w_fail else (lo, mid)
    first_bad_c = None if c_hi < w_fail else hi
    bad = [points[i] for i in failing if first_bad_c is not None and w_vals[i] <= first_bad_c]
    return lo, tested, len(idxs), first_bad_c, bad


@pytest.mark.parametrize("scenario, grid, c_bounds", [
    ("tumor", (21, 21, 21), (0.2, 60.0)),
    ("linear", (41, 41), (0.5, 120.0)),
])
def test_compute_c_star_matches_per_point_reference(scenario, grid, c_bounds,
                                                    linear_cfg, tumor_cfg):
    cfg = linear_cfg if scenario == "linear" else tumor_cfg
    est = compute_c_star(cfg, grid, c_bounds)
    c_star, tested, verified, first_bad_c, bad = c_star_per_point(cfg, grid, c_bounds)
    assert same(est.c_star, c_star)
    assert est.tested == tested
    assert est.verified_points == verified
    assert est.first_infeasible_c == first_bad_c
    if scenario == "tumor":
        assert bad   # the grid level is set by failing points


def ray_exit_per_ray(inside, origin, direction, t_max):
    """One ray at a time with a one-state predicate: None or (lo, hi)."""
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


def assert_rays_match(inside, origin, dirs, t_max):
    lo, hi = ray_exit(inside, origin, dirs, t_max)
    ref = [ray_exit_per_ray(inside, origin, d, t_max) for d in dirs]
    ends = hi < math.inf
    assert same(ends, np.array([r is not None for r in ref]))
    assert same(lo[ends], stack(r[0] for r in ref if r is not None))
    assert same(hi[ends], stack(r[1] for r in ref if r is not None))
    return ends


def test_lockstep_ray_exit_matches_per_ray_loop(case):
    bundle, cfg = case
    x_e = cfg.clf.equilibrium.x_e
    # the last axis: tumor3d's safe set is unbounded along it
    dirs = np.vstack([doa._directions(cfg.sys.n, 4), np.eye(cfg.sys.n)[-1]])
    ends = assert_rays_match(cfg.safe_set.contains, x_e, dirs, SUBLEVEL_T_MAX)
    assert ends[:-1].all() and ends[-1] == (cfg.sys.n == 2)
    est = compute_c_star(cfg, (21,) * cfg.sys.n, (0.2, 60.0))
    assert assert_rays_match(lambda x: in_awc(est, cfg, x), x_e, dirs, 1e6).all()
    assert not assert_rays_match(cfg.safe_set.contains, x_e, dirs, 0.5).any()


def ray_exit_sixty_steps(inside, origin, directions, t_max):
    """ray_exit with all 60 bisection steps and no early stop, the brackets
    written back by index; (lo, hi, calls of inside in the bisection)."""
    R = directions.shape[0]
    lo, hi = np.zeros(R), np.full(R, math.inf)
    going, t = np.arange(R), 1.0
    while t <= t_max and going.size:
        inn = inside(origin + t * directions[going])
        hi[going[~inn]] = t
        going = going[inn]
        lo[going] = t
        t *= 2.0
    ends = np.flatnonzero(hi < math.inf)
    for _ in range(60):
        mid = 0.5 * (lo[ends] + hi[ends])
        inn = inside(origin + mid[:, None] * directions[ends])
        lo[ends[inn]] = mid[inn]
        hi[ends[~inn]] = mid[~inn]
    return lo, hi


@pytest.mark.parametrize("seed", range(10))
def test_ray_exit_stops_early_with_the_bits_of_sixty_steps(case, seed):
    # the bisection stops once every midpoint equals its lo or hi; its
    # brackets are those of all 60 steps, for the safe set and for A_WC,
    # with a ray that leaves at t = 1 (lo = 0) among them
    bundle, cfg = case
    n, x_e = cfg.sys.n, cfg.clf.equilibrium.x_e
    est = compute_c_star(cfg, (11,) * n, (0.2, 60.0))
    dirs = np.vstack([doa._directions(n, seed), -1e3 * np.eye(n)[0]])
    for inside, t_max in ((cfg.safe_set.contains, SUBLEVEL_T_MAX),
                          (lambda X: in_awc(est, cfg, X), 1e6)):
        lo, hi = ray_exit(inside, x_e, dirs, t_max)
        want_lo, want_hi = ray_exit_sixty_steps(inside, x_e, dirs, t_max)
        assert same(lo, want_lo) and same(hi, want_hi)
        assert hi[-1] <= 1.0   # the bisection of this ray starts from lo = 0


def test_ray_exit_stops_before_sixty_bisection_steps_on_the_bundled_rays(case):
    bundle, cfg = case
    calls = {ray_exit: 0, ray_exit_sixty_steps: 0}
    for cast in calls:
        def counted(X):
            calls[cast] += 1
            return cfg.safe_set.contains(X)

        cast(counted, cfg.clf.equilibrium.x_e, doa._directions(cfg.sys.n, 0), SUBLEVEL_T_MAX)
    assert calls[ray_exit] <= calls[ray_exit_sixty_steps] - 5


def test_plot_polyline_matches_per_ray_loop(linear):
    ref = []
    for theta in np.linspace(0.0, 2.0 * math.pi, cli.BOUNDARY_POINTS, endpoint=False):
        d = np.array([math.cos(theta), math.sin(theta)])
        lo, _ = ray_exit_per_ray(linear.safe_set.contains, linear.eq.x_e, d, 1e6)
        ref.append((linear.eq.x_e + lo * d).tolist())
    assert cli._safe_boundary_polyline(linear) == ref


def draws_one_at_a_time(rng, lo, hi, accept, count, max_tries):
    out = []
    for _ in range(max_tries):
        if len(out) == count:
            break
        x = rng.uniform(lo, hi)
        if accept(x):
            out.append(x)
    return stack(out).reshape(-1, lo.size)


def test_block_drawn_awc_states_match_single_draws(case):
    bundle, cfg = case
    est = compute_c_star(cfg, (21,) * cfg.sys.n, (0.2, 60.0))
    box = doa.sublevel_bounding_box(cfg, est.c_star)
    for count in (10, SAMPLE_BLOCK + 100):
        ref = draws_one_at_a_time(np.random.default_rng(42), box[:, 0], box[:, 1],
                                  lambda x: in_awc(est, cfg, x), count, doa.AWC_MAX_TRIES)
        assert same(sample_states_in_awc(est, cfg, count, seed=42), ref)


def test_block_drawn_safe_states_match_single_draws(case, monkeypatch):
    bundle, _ = case
    lo, hi = bundle.domain[:, 0], bundle.domain[:, 1]

    def safe(x):
        return bundle.safe_set.min_value(x) >= 0.0

    for count in (100, 2 * SAMPLE_BLOCK + 1):
        ref = draws_one_at_a_time(np.random.default_rng(7), lo, hi, safe, count,
                                  verify.SAFE_MAX_TRIES)
        got = verify._sample_safe(bundle, count, np.random.default_rng(7))
        assert same(got, ref)
    # draws running out inside a block return what they found
    monkeypatch.setattr(verify, "SAFE_MAX_TRIES", SAMPLE_BLOCK + 50)
    ref = draws_one_at_a_time(np.random.default_rng(7), lo, hi, safe, 10 ** 6,
                              SAMPLE_BLOCK + 50)
    got = verify._sample_safe(bundle, 10 ** 6, np.random.default_rng(7))
    assert same(got, ref) and len(got) <= SAMPLE_BLOCK + 50


def test_finite_differences_match_one_state(case):
    bundle, _ = case
    X = probe_states(bundle, count=200)
    maps = [bundle.clf.value] + [bar.h for bar in bundle.safe_set.barriers]
    for fn in maps:
        assert same(fd_gradient(fn, X), stack(fd_gradient(fn, x) for x in X))


def test_sontag_terms_and_decrease_rate_match_one_state(case):
    bundle, cfg = case
    X = probe_states(bundle)
    a, b = sontag_terms(cfg.sys, cfg.clf, X)
    terms = [sontag_terms(cfg.sys, cfg.clf, x) for x in X]
    assert same(a, stack(t[0] for t in terms))
    assert same(b, stack(t[1] for t in terms))
    # the rate is defined where b does not vanish, and at x_e
    at_eq = np.linalg.norm(X - bundle.eq.x_e, axis=1) <= 1e-9
    X = X[(np.sqrt((b * b).sum(axis=1)) > B_FLOOR) | at_eq]
    assert same(sontag_decrease_rate(cfg, X), stack(sontag_decrease_rate(cfg, x) for x in X))


def local_clf_oracle(sys, clf, radius, seed):
    """is_valid_local_clf one sample at a time, in draw order."""
    x_e = clf.equilibrium.x_e
    for x in sample_ball(x_e, radius, LOCAL_CLF_SAMPLES, np.random.default_rng(seed)):
        if np.linalg.norm(x - x_e) < 1e-12:
            continue
        a, b = sontag_terms(sys, clf, x)
        if not math.sqrt(b @ b) > B_FLOOR and a >= 0.0:
            return False, x
    return True, None


def test_local_clf_witness_is_the_first_failing_sample(linear):
    # g vanishes for x_1 <= -0.5 and f is zero, so every sample there has
    # b = 0 and a = 0: the check fails, at draws 2, 6, 12, 7 and 0 of seeds 0-4
    def g(x):
        col = np.stack([np.where(x[..., 0] > -0.5, 1.0, 0.0), np.zeros(x.shape[:-1])], axis=-1)
        return col[..., None]

    sys = ControlAffineSystem(n=2, m=1, f=np.zeros_like, g=g, name="dead-zone")
    clf = QuadraticCLF(np.eye(2), linear.eq)
    for seed in range(5):
        ok, witness = is_valid_local_clf(sys, clf, 1.0, seed=seed)
        ref_ok, ref = local_clf_oracle(sys, clf, 1.0, seed)
        assert not ok and not ref_ok
        assert same(witness, ref)
