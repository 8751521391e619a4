"""The explicit sums behind the pointwise quantities, against a pure-Python
reference.

Every dot product, matrix-vector product and quadratic form in W, grad W,
Sontag's a and b, the barrier values, gradients and rows, the row margins and
the activation flags starts from +0.0 and adds its terms left to right. The
reference below writes each of them as such a loop on Python floats, from the
scenario file's parameters (or from a system's and a barrier's numpy
closures), and the tests check that evaluate's one-state fields, its stack
rows and the reference agree bit for bit on drawn states, including +-0,
+-inf, NaN, subnormals and values of 1e150 and above.

Bits are compared with `same`: equal bytes, except that a NaN only has to
meet a NaN. IEEE 754 leaves the sign and payload of a NaN result to the
implementation when both operands of an operation are NaN, and numpy's
compiled loops may order the operands of + and * differently from Python's.
"""
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from safestab import (Barrier, ControlAffineSystem, EquilibriumPair, QuadraticCLF,
                      SafeSet, build_scenario, control_sharing_holds, evaluate)
from safestab.core import B_FLOOR
from safestab.filters import (ACTIVE_TOL, Region, active_flags, make_controller,
                              make_filter_config, row_margins)
from safestab.sim import SimConfig, integrate, rk4_step

from conftest import sample_safe_states
from test_sim import synthetic_m2_config, wide_m3_config

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
           1e150, -1e150, 3.7e200, -1e300, 1.7976931348623157e308]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(-12.0, 12.0),
                   st.floats(allow_nan=True, allow_infinity=True))
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def same(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return (a.shape == b.shape and np.array_equal(nan_a, nan_b)
            and a[~nan_a].tobytes() == b[~nan_b].tobytes())


# ------------------------------------------------------------ the reference


def osum(terms):
    s = 0.0
    for t in terms:
        s = s + t
    return s


def odot(u, v):
    return osum(a * b for a, b in zip(u, v))


def omin(values):
    """numpy's min: NaN if any value is NaN, else the first least value."""
    if any(v != v for v in values):
        return math.nan
    return min(values)


def quadratic_form(entry, n):
    offset = float(entry.get("offset", 0.0))
    lin = [float(v) for v in entry.get("linear", [0.0] * n)]
    Q = [[float(v) for v in row] for row in entry["quad"]]
    Qs = [[0.5 * (Q[i][j] + Q[j][i]) for j in range(n)] for i in range(n)]

    def hgrad(xs):
        qx = [odot(row, xs) for row in Qs]
        return (offset + odot(lin, xs)) + odot(xs, qx), [l + 2.0 * v for l, v in zip(lin, qx)]
    return hgrad


def exp_form(entry, n):
    idx = int(entry["index"])

    def hgrad(xs):
        e = float(np.exp(-xs[idx]))
        return 1.0 - e, [e if i == idx else 0.0 for i in range(n)]
    return hgrad


def bundled_barrier_forms(name, n):
    """(h, grad h) of each barrier of a bundled scenario, from its file."""
    text = resources.files("safestab.data").joinpath(f"{name}.json").read_text()
    kinds = {"quadratic": quadratic_form, "exp_positivity": exp_form}
    return [kinds[entry["kind"]](entry, n) for entry in json.loads(text)["barriers"]]


def closure_barrier_forms(cfg):
    """(h, grad h) from each barrier's numpy closures."""
    return [lambda xs, bar=bar: (float(bar.h(np.array(xs))),
                                 np.asarray(bar.grad_h(np.array(xs)), dtype=float).tolist())
            for bar in cfg.safe_set.barriers]


def reference(cfg, forms, x):
    """Every field of evaluate at the state x, from explicit loops."""
    xs = [float(v) for v in x]
    n, m = cfg.sys.n, cfg.sys.m
    f = np.asarray(cfg.sys.f(np.array(xs)), dtype=float).tolist()
    G = np.asarray(cfg.sys.g(np.array(xs)), dtype=float).tolist()
    P = cfg.clf.P.tolist()
    x_e, u_e = cfg.clf.equilibrium.x_e.tolist(), cfg.clf.equilibrium.u_e.tolist()
    d = [xi - ei for xi, ei in zip(xs, x_e)]
    pd = [odot(P[i], d) for i in range(n)]
    grad = [2.0 * v for v in pd]
    drift = [f[i] + odot(G[i], u_e) for i in range(n)]
    a = odot(grad, drift)
    b = [odot(grad, [G[i][j] for i in range(n)]) for j in range(m)]
    bb = odot(b, b)
    if math.sqrt(bb) <= B_FLOOR:
        kappa = [0.0] * m
    else:
        r = (-a - cfg.gamma * math.sqrt(a * a + bb * bb)) / bb
        kappa = [bj * r for bj in b]
    u_son = [ue + k for ue, k in zip(u_e, kappa)]
    A, lb, h = [], [], []
    for bar, form in zip(cfg.safe_set.barriers, forms):
        h_i, gh = form(xs)
        A.append([odot(gh, [G[i][j] for i in range(n)]) for j in range(m)])
        lb.append(-bar.alpha * h_i - odot(gh, f))
        h.append(h_i)
    margin = omin([odot(A_i, u_son) - lb_i for A_i, lb_i in zip(A, lb)])
    return {"x": xs, "f": f, "grad_w": grad, "a": a, "b": b, "u_son": u_son, "A": A,
            "lb": lb, "h": h, "lfw": odot(grad, f), "margin": margin,
            "region": int(Region.R1 if margin >= 0.0 else Region.R2), "w": odot(d, pd)}


def fields(ev, i=None):
    """The reference's keys read off an evaluation (row i of a stack)."""
    pick = (lambda v: v) if i is None else (lambda v: np.asarray(v)[i])
    out = {k: pick(getattr(ev, k)) for k in ("x", "f", "grad_w", "w", "a", "b", "u_son", "A",
                                              "lb", "h", "lfw")}
    out["margin"] = pick(ev.label.margin)
    out["region"] = int(pick(ev.label.value))
    return out


def assert_fields_equal(got, want, x):
    for key, value in want.items():
        assert same(got[key], value), (key, x, got[key], value)


# ------------------------------------------------------------- the systems


def stackable_m2_config():
    """n = 3, m = 2 built from numpy f, g, h and grad h alone (the adapters
    serve the float forms), with closures that also take a stack (N, 3)."""
    def f(x):
        x1, x2, x3 = np.moveaxis(x, -1, 0)
        return np.stack([x2 * x3 - x1 + 0.8, x1 * 0.5 - x2, x1 * x3 - x3 * x3 * x3 - x3], -1)

    def g(x):
        x1, x2, x3 = np.moveaxis(x, -1, 0)
        one = np.ones_like(x1)
        return np.stack([np.stack([1.0 + x2 * x2, 0.3 * x1], -1),
                         np.stack([0.5 * x3, 2.0 - x1], -1),
                         np.stack([x1 * x2, one], -1)], -2)

    sys = ControlAffineSystem(n=3, m=2, f=f, g=g, name="stackable-m2")
    clf = QuadraticCLF(np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]]),
                       EquilibriumPair(np.zeros(3), np.array([0.25, -0.5])))
    ball = Barrier(h=lambda x: 9.0 - (x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]
                                      + x[..., 2] * x[..., 2]),
                   alpha=2.0, grad_h=lambda x: -2.0 * x, name="ball")
    wall = Barrier(h=lambda x: 1.2 - x[..., 0], alpha=0.5,
                   grad_h=lambda x: np.broadcast_to(np.array([-1.0, 0.0, 0.0]), x.shape).copy(),
                   name="wall")
    return make_filter_config(sys, clf, SafeSet((ball, wall)), gamma=1.5, p=10.0)


def flat_barrier_config(linear):
    """test_core's zero-gradient barrier on the bundled linear2d system."""
    flat = Barrier(h=lambda x: 1.0, alpha=1.0, grad_h=lambda x: np.zeros(2), name="flat")
    return make_filter_config(linear.sys, linear.clf, SafeSet((flat,)))


@pytest.fixture(scope="module")
def cases(linear_cfg, tumor_cfg, linear):
    """(cfg, reference barrier forms, whether the closures take stacks)."""
    m2 = stackable_m2_config()
    synthetic = synthetic_m2_config()
    flat = flat_barrier_config(linear)
    wide = wide_m3_config()
    return {
        "linear2d": (linear_cfg, bundled_barrier_forms("linear2d", 2), True),
        "tumor3d": (tumor_cfg, bundled_barrier_forms("tumor3d", 3), True),
        "stackable-m2": (m2, closure_barrier_forms(m2), True),
        "wide-m3": (wide, closure_barrier_forms(wide), True),
        "synthetic-m2": (synthetic, closure_barrier_forms(synthetic), False),
        "flat-barrier": (flat, closure_barrier_forms(flat), False),
    }


def states(n):
    return st.lists(st.lists(VALUES, min_size=n, max_size=n), min_size=1, max_size=6)


# ----------------------------------------------------------------- the tests


def check_states(case, X):
    cfg, forms, stackable = case
    X = np.array(X, dtype=float)
    with np.errstate(all="ignore"):
        evs = [evaluate(cfg, x) for x in X]
        for x, ev in zip(X, evs):
            want = reference(cfg, forms, x)
            assert_fields_equal(fields(ev), want, x)
            assert same(cfg.clf.value(x), want["w"])
            assert same(cfg.clf.grad(x), want["grad_w"])
            for bar, (h_i, _) in zip(cfg.safe_set.barriers, (form(x.tolist()) for form in forms)):
                assert same(bar.value(x), h_i)
        if not stackable:
            return
        ev = evaluate(cfg, X)
        for i, one in enumerate(evs):
            assert_fields_equal(fields(ev, i), fields(one), X[i])
        assert same(cfg.clf.value(X), [cfg.clf.value(x) for x in X])
        assert same(cfg.clf.grad(X), [cfg.clf.grad(x) for x in X])
        assert same(cfg.safe_set.values(X), [cfg.safe_set.values(x) for x in X])


@pytest.mark.parametrize("name", ["linear2d", "tumor3d", "stackable-m2", "wide-m3"])
def test_stack_one_state_and_reference_agree(name, cases):
    case = cases[name]

    @PROPERTY
    @given(states(case[0].sys.n))
    def run(X):
        check_states(case, X)

    run()


@pytest.mark.parametrize("name", ["synthetic-m2", "flat-barrier"])
def test_one_state_matches_reference_for_adapter_built_configs(name, cases):
    case = cases[name]

    @PROPERTY
    @given(states(case[0].sys.n))
    def run(X):
        check_states(case, X)

    run()


def test_reference_states_reach_both_regions_and_both_sontag_branches(cases):
    # seeded ordinary states, so that the property tests above do not pass on
    # non-finite inputs alone
    rng = np.random.default_rng(3)
    for name, (cfg, forms, _) in cases.items():
        X = rng.uniform(-3.0, 3.0, size=(300, cfg.sys.n))
        if name == "tumor3d":
            X = np.abs(X) * 3.0
        X = np.vstack([X, cfg.clf.equilibrium.x_e])
        check_states(cases[name], X)
        regions = {reference(cfg, forms, x)["region"] for x in X}
        if name != "flat-barrier":
            assert regions == {0, 1}, name
        zero_kappa = [reference(cfg, forms, x)["u_son"] == cfg.clf.equilibrium.u_e.tolist()
                      for x in X]
        assert any(zero_kappa) and not all(zero_kappa), name


def rows_reference(A, lb, u):
    margins = [odot(A_i, u) - lb_i for A_i, lb_i in zip(A, lb)]
    abs_u = [abs(v) for v in u]
    flags = [r <= ACTIVE_TOL * ((1.0 + abs(lb_i)) + odot([abs(v) for v in A_i], abs_u))
             for r, A_i, lb_i in zip(margins, A, lb)]
    return margins, flags


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_row_margins_and_flags_match_reference(k, m, data):
    N = data.draw(st.integers(1, 5))

    def draw(*shape):
        size = math.prod(shape)
        return np.array(data.draw(st.lists(VALUES, min_size=size, max_size=size))).reshape(shape)

    A, lb, u = draw(N, k, m), draw(N, k), draw(N, m)
    with np.errstate(all="ignore"):
        margins, flags = row_margins(A, lb, u), active_flags(A, lb, u)
        for i in range(N):
            want_margins, want_flags = rows_reference(A[i].tolist(), lb[i].tolist(), u[i].tolist())
            assert same(row_margins(A[i], lb[i], u[i]), want_margins)
            assert same(margins[i], want_margins)
            assert active_flags(A[i], lb[i], u[i]).tolist() == want_flags
            assert flags[i].tolist() == want_flags


def test_nan_margin_counts_as_r2_and_propagates_through_the_minimum(linear):
    # one row's margin is NaN and another's is negative: the minimum is NaN,
    # as numpy's min gives, and NaN falls on the R2 side
    nan_row = Barrier(h=lambda x: math.nan, alpha=1.0, grad_h=lambda x: np.zeros(2), name="nan")
    violated = Barrier(h=lambda x: -5.0, alpha=1.0, grad_h=lambda x: np.zeros(2), name="low")
    for barriers in ((nan_row, violated), (violated, nan_row)):
        cfg = make_filter_config(linear.sys, linear.clf, SafeSet(barriers))
        ev = evaluate(cfg, np.array([0.3, -0.2]))
        assert math.isnan(ev.label.margin) and ev.label.value == Region.R2
        assert math.isnan(float(row_margins(ev.A, ev.lb, ev.u_son).min()))


@pytest.mark.parametrize("name", ["linear2d", "tumor3d"])
def test_assigned_closures_take_over_the_float_forms(name):
    # f, g, h, grad h and grad W assigned to a built scenario are what the
    # one-state evaluate, the RK4 stages and integrate's steps then call;
    # wrappers that return what they wrap give the bits of the float forms
    # they replace
    bundle = build_scenario(name)
    sys, clf, barriers = bundle.sys, bundle.clf, bundle.safe_set.barriers
    cfg = make_filter_config(sys, clf, bundle.safe_set, gamma=1.0)
    X = sample_safe_states(bundle, 20, seed=3)
    before = [evaluate(cfg, x) for x in X]
    steps = [rk4_step(sys, x, ev.u_son, 1e-3) for x, ev in zip(X, before)]
    stack = evaluate(cfg, X)
    simcfg = SimConfig(x0=X[0], t_final=0.01)   # 10 RK4 steps, 11 evaluations
    run = integrate(cfg, make_controller(cfg, "hybrid"), simcfg)
    calls = {}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args)
        return wrapper

    sys.f, sys.g = counted("f", sys.f), counted("g", sys.g)
    for bar in barriers:
        bar.h, bar.grad_h = counted("h", bar.h), counted("grad_h", bar.grad_h)
    clf.grad = counted("grad", clf.grad)
    k = len(barriers)
    for x, ev in zip(X, before):
        assert_fields_equal(fields(evaluate(cfg, x)), fields(ev), x)
    assert calls == {"f": 20, "g": 20, "h": 20 * k, "grad_h": 20 * k, "grad": 20}
    for x, ev, want in zip(X, before, steps):
        assert rk4_step(sys, x, ev.u_son, 1e-3).tobytes() == want.tobytes()
    assert calls["f"] == calls["g"] == 20 + 4 * 20
    again = evaluate(cfg, X)
    for i in range(len(X)):
        assert_fields_equal(fields(again, i), fields(stack, i), X[i])
    # every step runs what was assigned, nothing cached by a kernel: fg
    # (f and g) once in evaluate and once in each of the 3 rhs stages after
    # the first, each barrier's hgrad (h and grad h) and grad W once in
    # evaluate; the safe-set check of x0 adds one h per barrier
    calls.clear()
    assert integrate(cfg, make_controller(cfg, "hybrid"), simcfg).states.tobytes() == \
        run.states.tobytes()
    assert calls == {"f": 10 * 4 + 1, "g": 10 * 4 + 1, "h": 11 * k + k, "grad_h": 11 * k,
                     "grad": 11}
    f = sys.f
    sys.f = lambda x: 2.0 * f(x)
    assert evaluate(cfg, X[0]).f.tobytes() == (2.0 * before[0].f).tobytes()


@pytest.mark.parametrize("name", ["linear2d", "tumor3d"])
def test_w_is_read_from_the_evaluation_with_no_clf_value_call(name):
    # the CLF-CBF-QP's decrease row, integrate's records and control
    # sharing's margin read ev.w: value, wrapped on the instance, is not
    # called, and the recorded W has the bits of value
    bundle = build_scenario(name)
    cfg = make_filter_config(bundle.sys, bundle.clf, bundle.safe_set, gamma=1.0)
    X = sample_safe_states(bundle, 20, seed=4)
    value, calls = bundle.clf.value, []

    def counted(x):
        calls.append(x)
        return value(x)

    bundle.clf.value = counted
    run = integrate(cfg, make_controller(cfg, "clf-cbf-qp"), SimConfig(x0=X[0], t_final=0.01))
    shared = control_sharing_holds(cfg, X)
    assert calls == []
    assert run.status == "ok" and run.n_samples == 11 and shared.shape == (20,)
    assert same(run.w_values, value(run.states))


def test_a_stack_runs_each_form_once_and_the_adapters_take_columns():
    # a bundled system's fg and each barrier's hgrad run once per stack; the
    # numpy-built stackable-m2 reaches its closures through the adapters,
    # which call f, g, h and grad h once on the whole stack; every stack row
    # has the bits of its one-state call
    calls = []
    rng = np.random.default_rng(8)

    def counted(key, fn):
        def wrapper(*args):
            calls.append(key)
            return fn(*args)
        return wrapper

    def stack_calls(cfg):
        X = rng.uniform(-3.0, 3.0, size=(50, cfg.sys.n))
        want = [fields(evaluate(cfg, x)) for x in X]
        calls.clear()
        ev = evaluate(cfg, X)
        for i, one in enumerate(want):
            assert_fields_equal(fields(ev, i), one, X[i])
        assert same(np.stack(ev.fg[0], axis=1), ev.f)
        return sorted(calls)

    bundle = build_scenario("tumor3d")
    cfg = make_filter_config(bundle.sys, bundle.clf, bundle.safe_set)
    cfg.sys.fg = counted("fg", cfg.sys.fg)
    for bar in cfg.safe_set.barriers:
        bar.hgrad = counted("hgrad", bar.hgrad)
    assert stack_calls(cfg) == ["fg"] + ["hgrad"] * len(cfg.safe_set)
    cfg = stackable_m2_config()
    cfg.sys.f, cfg.sys.g = counted("f", cfg.sys.f), counted("g", cfg.sys.g)
    for bar in cfg.safe_set.barriers:
        bar.h, bar.grad_h = counted("h", bar.h), counted("grad_h", bar.grad_h)
    assert stack_calls(cfg) == sorted(["f", "g"] + ["h", "grad_h"] * len(cfg.safe_set))
    # a g that ignores the stack axis is caught on a stack
    cfg.sys.g = lambda x: np.ones((3, 2))
    evaluate(cfg, np.zeros(3))
    with pytest.raises(ValueError, match=r"g\(X\) must be \(4, 3, 2\), got \(3, 2\)"):
        evaluate(cfg, np.zeros((4, 3)))
