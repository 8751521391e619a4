"""verify's checks fail on a NaN error instead of dropping it: each test
injects a NaN into what one check compares and expects [FAIL] with nan in
the detail. The QP checks read floats and build no QP array."""
import math

import numpy as np
import pytest

from safestab import build_scenario, closed_form_ustar, filters, make_filter_config, verify
from safestab.filters import Region, closed_form_floats, evaluate
from safestab.scenarios import scenario_from_dict

from test_scenarios import linear2d_file, scenario_file


def nan_like(x):
    return np.full(np.shape(x), math.nan)


def linear_config(bundle):
    return make_filter_config(bundle.sys, bundle.clf, bundle.safe_set, gamma=1.0)


def assert_fails_with_nan(result):
    assert not result.passed
    assert "nan" in result.detail


def test_clf_gradient_check_fails_on_nan_gradient():
    bundle = build_scenario("linear2d")
    assert verify.check_clf_gradient(bundle, 0).passed
    bundle.clf.grad = nan_like
    assert_fails_with_nan(verify.check_clf_gradient(bundle, 0))


def test_barrier_gradient_check_fails_on_nan_gradient():
    bundle = build_scenario("tumor3d")
    assert verify.check_barrier_gradients(bundle, 1).passed
    bundle.safe_set.barriers[1].grad_h = nan_like
    assert_fails_with_nan(verify.check_barrier_gradients(bundle, 1))


def test_sampled_checks_fail_when_no_safe_state_is_drawn():
    # the safe ellipse covers about 1e-7 of this domain: none of the
    # SAFE_MAX_TRIES draws lands in it
    scenario = linear2d_file()
    scenario["domain"] = [[-1e4, 1e4], [-1e4, 1e4]]
    bundle = scenario_from_dict(scenario)
    result = verify.check_barrier_gradients(bundle, 1)
    assert not result.passed
    assert result.detail == f"no safe state drawn in {verify.SAFE_MAX_TRIES} draws"
    cfg = linear_config(bundle)
    assert not verify.check_kkt_residuals(cfg, bundle, 3).passed
    assert not verify.check_closed_form(cfg, bundle, 4).passed


def test_kkt_check_fails_on_nan_residual(monkeypatch):
    bundle = build_scenario("linear2d")
    cfg = linear_config(bundle)
    assert verify.check_kkt_residuals(cfg, bundle, 3).passed
    solve, calls = verify.solve_qp, []

    def solve_with_a_nan_residual(spec):
        sol = solve(spec)
        calls.append(spec)
        if len(calls) == 5:
            sol.kkt_residual = math.nan
        return sol

    monkeypatch.setattr(verify, "solve_qp", solve_with_a_nan_residual)
    assert_fails_with_nan(verify.check_kkt_residuals(cfg, bundle, 3))


def test_closed_form_check_fails_on_nan_input(monkeypatch):
    bundle = build_scenario("linear2d")
    cfg = linear_config(bundle)
    assert verify.check_closed_form(cfg, bundle, 4).passed
    filt, calls = verify.s_cbf_qp_filter, []

    def filter_with_a_nan_input(cfg, x):
        calls.append(x)
        u = filt(cfg, x)
        return nan_like(u) if len(calls) == 5 else u

    monkeypatch.setattr(verify, "s_cbf_qp_filter", filter_with_a_nan_input)
    assert_fails_with_nan(verify.check_closed_form(cfg, bundle, 4))


def test_closed_form_check_is_skipped_where_it_does_not_apply():
    # tumor3d has three barriers: the check is skipped and fails nothing;
    # on linear2d it runs
    bundle = build_scenario("tumor3d")
    result = verify.check_closed_form(linear_config(bundle), bundle, 4)
    assert result.skipped and result.passed
    bundle = build_scenario("linear2d")
    result = verify.check_closed_form(linear_config(bundle), bundle, 4)
    assert result.passed and not result.skipped


@pytest.mark.parametrize("scenario", ["linear2d", "tumor3d"])
def test_run_checks_builds_no_qp_array(scenario):
    # the KKT residual and the closed-form comparison read the floats of
    # the specs and solutions, the only form they hold
    results = verify.run_checks(build_scenario(scenario), seed=0)
    # a KKT or closed-form check passes only with at least one sample
    assert len(results) == 10 and all(r.passed for r in results)


def test_closed_form_check_reads_the_rows_of_its_stacked_evaluation(monkeypatch):
    # the closed form at row i of the stacked evaluation has the bits of
    # closed_form_ustar at state i, and the check evaluates each compared
    # R2 state once more, inside s_cbf_qp_filter
    bundle = build_scenario("linear2d")
    cfg = linear_config(bundle)
    pts = verify._sample_safe(bundle, 400, np.random.default_rng(5))
    ev = evaluate(cfg, pts)
    r2 = np.flatnonzero(ev.region == Region.R2)
    assert r2.size
    for i in r2:
        got = closed_form_floats(*(verify._row(v, i) for v in
                                   (ev.As[0][0], ev.lbs[0], ev.bs[0], ev.us[0], ev.margin)),
                                 "h", pts[i])
        u_star, lam = closed_form_ustar(cfg, pts[i])
        assert got == (u_star.tolist()[0], lam)
    one_state, evaluate_one = [], filters.evaluate

    def counted(cfg, x):
        one_state.append(np.ndim(x) == 1)
        return evaluate_one(cfg, x)

    monkeypatch.setattr(filters, "evaluate", counted)
    result = verify.check_closed_form(cfg, bundle, 4)
    assert result.passed and result.detail.startswith(f"{len(one_state)} R2 states")
    assert all(one_state)


@pytest.mark.parametrize("scenario,detail", [
    ("linear2d", "200 filter QPs (62 with an active row)"),
    ("tumor3d", "197 filter QPs (27 with an active row)"),
])
def test_kkt_check_reads_the_rows_of_one_stacked_evaluation(scenario, detail, monkeypatch):
    # the check evaluates its safe states once, as a stack, and the spec it
    # builds from row i solves as the spec of state i's own evaluation: the
    # same status, point and residual, bit for bit
    bundle = build_scenario(scenario)
    cfg = linear_config(bundle)
    X = verify._sample_safe(bundle, verify.KKT_SAMPLES, np.random.default_rng(4))
    want = [verify.solve_qp(filters.s_cbf_qp_spec(ev.bs, ev.As, ev.slacks))
            for ev in (evaluate(cfg, x) for x in X)]
    shapes, got = [], []
    evaluate_stack, solve = verify.evaluate, verify.solve_qp

    def counted(cfg, x):
        shapes.append(np.shape(x))
        return evaluate_stack(cfg, x)

    def recorded(spec):
        got.append(solve(spec))
        return got[-1]

    monkeypatch.setattr(verify, "evaluate", counted)
    monkeypatch.setattr(verify, "solve_qp", recorded)
    result = verify.check_kkt_residuals(cfg, bundle, 4)
    assert result.passed and result.detail.startswith(detail)
    assert shapes == [X.shape] and len(got) == len(want) == len(X)
    for g, w in zip(got, want):
        assert (g.status, g.active_set) == (w.status, w.active_set)
        if w.optimal:
            assert [v.hex() for v in g.zs + g.lams + [g.kkt_residual]] == [
                v.hex() for v in w.zs + w.lams + [w.kkt_residual]]


def test_equilibrium_check_reads_the_bundle_tolerance():
    # a residual of 4.1e-3 (u_e moved by 1e-3) passes under a file's
    # eq_tol of 1e-2, where the fixed 1e-3 of before failed it
    cfg = scenario_file("tumor3d")
    cfg["equilibrium"]["u"] = [-0.399]
    cfg["eq_tol"] = 1e-2
    bundle = scenario_from_dict(cfg)
    result = verify.check_equilibrium(bundle)
    assert result.passed and result.detail.endswith("(tol 1e-02)")
    assert 1e-3 < float(result.detail.split()[2]) <= 1e-2
    results = verify.run_checks(bundle, seed=0)
    assert len(results) == 10
    assert [r.passed for r in results if r.name == "equilibrium_residual"] == [True]
