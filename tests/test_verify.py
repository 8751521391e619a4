"""verify's checks fail on a NaN error instead of dropping it: each test
injects a NaN into what one check compares and expects [FAIL] with nan in
the detail."""
import math

import numpy as np

from safestab import build_scenario, make_filter_config, verify


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
