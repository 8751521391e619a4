import math

import numpy as np
import pytest

from safestab import (DecreaseIdentityError, QuadraticCLF, make_filter_config,
                      sontag_control, sontag_decrease_rate, sontag_terms)

from conftest import sample_safe_states


def config(bundle, clf=None, gamma=1.0):
    """The filter config the Sontag functions read (system, CLF, gamma)."""
    return make_filter_config(bundle.sys, clf or bundle.clf, bundle.safe_set, gamma=gamma)


def scalar_formula_oracle(a, b, gamma=1.0):
    """Independent scalar evaluation of the universal formula for m = 1."""
    return (-a - gamma * math.sqrt(a * a + b ** 4)) / b


def test_control_at_equilibrium_returns_ue(linear, tumor):
    for bundle in (linear, tumor):
        cfg = config(bundle)
        u = sontag_control(cfg, bundle.eq.x_e)
        assert np.abs(u - bundle.eq.u_e).max() == 0.0


def test_control_on_a_stack_equals_its_one_state_rows(linear, tumor):
    # x_e and, for linear2d, the diagonal x1 = x2 take the b = 0 branch
    for bundle in (linear, tumor):
        cfg = config(bundle)
        X = np.vstack([sample_safe_states(bundle, 30, 5), bundle.eq.x_e])
        if bundle is linear:
            X = np.vstack([X, [0.7, 0.7]])
        U = sontag_control(cfg, X)
        assert U.shape == (len(X), bundle.sys.m)
        for x, u in zip(X, U):
            assert u.tobytes() == sontag_control(cfg, x).tobytes()


def test_linear_example_value(linear):
    cfg = config(linear, gamma=1.0)
    x = np.array([1.0, 0.0])
    a, b = sontag_terms(linear.sys, linear.clf, x)
    expected = scalar_formula_oracle(a, b[0])
    u = sontag_control(cfg, x)
    assert u[0] == pytest.approx(expected, rel=1e-14)
    assert u[0] == pytest.approx(5.931, abs=2e-4)


def test_vanishing_b_returns_ue(linear):
    cfg = config(linear)
    # on the diagonal x1 = x2 the input channel is orthogonal to gradW
    x = np.array([0.7, 0.7])
    _, b = sontag_terms(linear.sys, linear.clf, x)
    assert abs(b[0]) <= 1e-12
    assert np.all(sontag_control(cfg, x) == linear.eq.u_e)


def test_decrease_rate_matches_closed_form(linear):
    cfg = config(linear, gamma=1.0)
    x = np.array([1.0, 0.0])
    a, b = sontag_terms(linear.sys, linear.clf, x)
    rate = sontag_decrease_rate(cfg, x)
    assert rate == pytest.approx(-math.sqrt(a * a + b[0] ** 4), rel=1e-12)


def test_decrease_rate_zero_at_equilibrium(tumor):
    cfg = config(tumor)
    assert sontag_decrease_rate(cfg, tumor.eq.x_e) == 0.0


def test_decrease_rate_scales_linearly_in_gamma(linear):
    x = np.array([0.4, -1.1])
    r1 = sontag_decrease_rate(config(linear, gamma=1.0), x)
    r2 = sontag_decrease_rate(config(linear, gamma=2.0), x)
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)


@pytest.mark.parametrize("scenario_name,seed", [("linear", 101), ("tumor", 202)])
def test_decrease_identity_thousand_random_states(scenario_name, seed, linear, tumor):
    bundle = {"linear": linear, "tumor": tumor}[scenario_name]
    cfg = config(bundle, gamma=1.0)
    rng = np.random.default_rng(seed)
    tested = 0
    while tested < 1000:
        x = rng.uniform(bundle.domain[:, 0], bundle.domain[:, 1])
        a, b = sontag_terms(bundle.sys, bundle.clf, x)
        bb = float(b @ b)
        if math.sqrt(bb) <= 1e-8:
            continue
        u = sontag_control(cfg, x)
        wdot = float(bundle.clf.grad(x) @ bundle.sys.xdot(x, u))
        target = -math.sqrt(a * a + bb * bb)
        assert abs(wdot - target) <= 1e-9 * (1.0 + abs(a) + bb)
        assert wdot < 0.0  # strict decrease away from x_e
        tested += 1


class FlickeringCLF:
    """An injected fault: a gradient that flickers between calls breaks the
    algebraic identity, which sontag_decrease_rate must report."""

    def __init__(self, clf):
        self._clf = clf
        self.equilibrium = clf.equilibrium
        self._calls = 0

    def grad(self, x):
        self._calls += 1
        scale = 1.0 if self._calls % 2 else 1.5
        return scale * self._clf.grad(x)

    def value(self, x):
        return self._clf.value(x)


def test_decrease_rate_reports_identity_violation(linear):
    # reported with the state and both values
    cfg = config(linear, FlickeringCLF(linear.clf))
    with pytest.raises(DecreaseIdentityError,
                       match=r"at x=\[1\.3, -0\.4\]: dW/dt=.*, expected "):
        sontag_decrease_rate(cfg, np.array([1.3, -0.4]))


def test_decrease_rate_on_a_stack_names_the_first_violating_state(linear):
    # x_e has rate 0 under any gradient scale; the first state after it fails
    cfg = config(linear, FlickeringCLF(linear.clf))
    X = np.array([linear.eq.x_e, linear.eq.x_e, [1.3, -0.4], [-2.0, 1.5]])
    with pytest.raises(DecreaseIdentityError, match=r"at x=\[1\.3, -0\.4\]: "):
        sontag_decrease_rate(cfg, X)


def test_decrease_rate_rejects_b_vanishing_away_from_equilibrium(linear):
    cfg = config(linear)
    with pytest.raises(ValueError, match=r"away from x_e, at x=\[0\.7, 0\.7\]"):
        sontag_decrease_rate(cfg, np.array([0.7, 0.7]))
    X = np.array([linear.eq.x_e, [1.3, -0.4], [0.7, 0.7], [-0.7, -0.7]])
    with pytest.raises(ValueError, match=r"away from x_e, at x=\[0\.7, 0\.7\]"):
        sontag_decrease_rate(cfg, X)


def test_continuity_at_equilibrium_shrinking_radii(linear, tumor):
    for bundle in (linear, tumor):
        cfg = config(bundle)
        rng = np.random.default_rng(9)
        prev_max = math.inf
        for radius in (1.0, 0.3, 0.1, 0.03, 0.01, 0.003, 1e-3, 1e-4, 1e-5):
            worst = 0.0
            for _ in range(50):
                d = rng.normal(size=bundle.sys.n)
                d /= np.linalg.norm(d)
                u = sontag_control(cfg, bundle.eq.x_e + radius * d)
                worst = max(worst, float(np.abs(u - bundle.eq.u_e).max()))
            assert worst <= prev_max + 1e-12
            prev_max = worst
        assert prev_max <= 1e-3  # deviation has shrunk with the radius


def test_terms_scale_linearly_under_clf_rescaling(linear, tumor):
    # a and b are exactly 1-homogeneous in P; the feedback itself is NOT
    # invariant under P -> 2P because sqrt(a^2 + |b|^4) mixes homogeneity
    # degrees (kappa(2a, 2b) = (-2a - sqrt(4a^2 + 16b^4)) / 2b). Asserting the
    # true statement here; the scalar counterexample is pinned below.
    for bundle in (linear, tumor):
        scaled = QuadraticCLF(2.0 * bundle.clf.P, bundle.eq)
        pts = sample_safe_states(bundle, 50, 17)
        for x in pts:
            a1, b1 = sontag_terms(bundle.sys, bundle.clf, x)
            a2, b2 = sontag_terms(bundle.sys, scaled, x)
            assert a2 == pytest.approx(2.0 * a1, rel=1e-12, abs=1e-12)
            assert np.abs(b2 - 2.0 * b1).max() <= 1e-12 * (1.0 + np.abs(b1).max())


def test_feedback_not_invariant_under_clf_rescaling_counterexample(linear):
    cfg1 = config(linear)
    cfg2 = config(linear, QuadraticCLF(2.0 * linear.clf.P, linear.eq))
    x = np.array([1.0, 0.0])
    u1 = sontag_control(cfg1, x)
    u2 = sontag_control(cfg2, x)
    # scalar oracle: kappa(1,1) = -1-sqrt(2) vs kappa(2,2)/1 = (-2-sqrt(20))/2
    assert (-1.0 - math.sqrt(2.0)) != pytest.approx((-2.0 - math.sqrt(20.0)) / 2.0)
    assert abs(u1[0] - u2[0]) > 1.0


def test_law_rejects_bad_parameters(linear):
    # gamma and the slack weight p are checked once, where they are held
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="gamma"):
            config(linear, gamma=bad)
        with pytest.raises(ValueError, match="slack weight p"):
            make_filter_config(linear.sys, linear.clf, linear.safe_set, p=bad)
