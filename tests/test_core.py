import math

import numpy as np
import pytest

from safestab import (Barrier, EquilibriumPair, QuadraticCLF, SafeSet, ScenarioError,
                      equilibrium_residual, is_valid_local_clf, make_filter_config,
                      sontag_terms)
from safestab.core import LOCAL_CLF_SAMPLES, fd_gradient, sample_ball

from conftest import lie_derivative_fd, lie_derivatives, sample_safe_states


def test_clf_value_at_equilibrium_is_zero(linear):
    assert linear.clf.value(linear.eq.x_e) == 0.0


def test_clf_value_linear_example_printed_matrix(linear):
    # (1,0)' P (1,0) is the top-left entry of the printed matrix
    assert linear.clf.value([1.0, 0.0]) == pytest.approx(3.4142, abs=1e-12)


def test_clf_value_matches_dense_quadratic_oracle(tumor):
    rng = np.random.default_rng(11)
    P = tumor.clf.P
    x_e = tumor.eq.x_e
    for _ in range(25):
        x = rng.uniform(0.0, 10.0, size=3)
        d = x - x_e
        oracle = sum(d[i] * P[i, j] * d[j] for i in range(3) for j in range(3))
        assert tumor.clf.value(x) == pytest.approx(oracle, rel=1e-12)


def test_clf_gradient_matches_finite_differences(linear, tumor):
    rng = np.random.default_rng(5)
    for bundle in (linear, tumor):
        for _ in range(100):
            x = rng.uniform(bundle.domain[:, 0], bundle.domain[:, 1])
            g = bundle.clf.grad(x)
            g_fd = fd_gradient(bundle.clf.value, x)
            assert np.abs(g - g_fd).max() <= 1e-5 * (1.0 + np.abs(g).max())


def test_sontag_terms_zero_at_equilibrium(linear, tumor):
    for bundle in (linear, tumor):
        a, b = sontag_terms(bundle.sys, bundle.clf, bundle.eq.x_e)
        assert abs(a) <= 1e-12
        assert np.abs(b).max() <= 1e-12


def test_sontag_terms_linear_example_hand_values(linear):
    # independent dot-product oracle at x = (1, 0)
    x = np.array([1.0, 0.0])
    grad = 2.0 * linear.clf.P @ x          # (6.8284, -4.8284)
    f = np.array([-0.0, -1.0])             # -(x2, x1)
    a_oracle = float(grad @ f)
    b_oracle = float(grad[1])              # g = (0, 1)'
    a, b = sontag_terms(linear.sys, linear.clf, x)
    assert a == pytest.approx(4.8284, abs=1e-12)
    assert b[0] == pytest.approx(-4.8284, abs=1e-12)
    assert a == pytest.approx(a_oracle, rel=1e-15)
    assert b[0] == pytest.approx(b_oracle, rel=1e-15)


def test_barrier_lie_derivatives_structural_zero_input_column(tumor_cfg):
    # input enters only the first state equation, so Lgh vanishes for the
    # positivity barriers on x2 and x3
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(0.5, 9.0, size=3)
        for i in (1, 2):
            _, lgh = lie_derivatives(tumor_cfg, x, i)
            assert lgh[0] == 0.0


def test_barrier_lie_derivatives_match_finite_difference_oracle(tumor_cfg, tumor):
    x = tumor.eq.x_e
    bar = tumor.safe_set.barriers[0]
    lfh, lgh = lie_derivatives(tumor_cfg, x, 0)
    # central finite differences of h along the drift / input directions
    lfh_fd = lie_derivative_fd(bar, x, tumor.sys.f(x))
    lgh_fd = lie_derivative_fd(bar, x, tumor.sys.g(x)[:, 0])
    assert lfh == pytest.approx(lfh_fd, rel=1e-5, abs=1e-5)
    assert lgh[0] == pytest.approx(lgh_fd, rel=1e-5, abs=1e-5)


def test_barrier_gradients_match_fd_on_safe_samples(linear, tumor):
    for seed, bundle in ((1, linear), (2, tumor)):
        pts = sample_safe_states(bundle, 100, seed)
        for bar in bundle.safe_set.barriers:
            for x in pts:
                g = bar.grad_h(x)
                g_fd = fd_gradient(bar.h, x)
                assert np.abs(g - g_fd).max() <= 1e-5 * (1.0 + np.abs(g).max())


def test_zero_gradient_gives_zero_lie_derivatives(linear):
    flat = Barrier(h=lambda x: 1.0, alpha=1.0,
                   grad_h=lambda x: np.zeros(2), name="flat")
    cfg = make_filter_config(linear.sys, linear.clf, SafeSet((flat,)))
    x = np.array([0.3, -0.8])
    lfh, lgh = lie_derivatives(cfg, x, 0)
    assert lfh == 0.0 == lie_derivative_fd(flat, x, linear.sys.f(x))
    assert np.all(lgh == 0.0)


def test_tumor_equilibrium_residual(tumor):
    assert equilibrium_residual(tumor.sys, tumor.eq) <= 1e-3


def test_is_valid_local_clf_accepts_scenario_matrices(linear, tumor):
    ok, witness = is_valid_local_clf(linear.sys, linear.clf, 1.0, seed=3)
    assert ok and witness is None
    ok, witness = is_valid_local_clf(tumor.sys, tumor.clf, 0.5, seed=3)
    assert ok and witness is None


def test_is_valid_local_clf_identity_matrix_matches_predicate_oracle(linear):
    # result for P = I is recorded by an independent oracle over the same
    # sample set, not asserted a priori
    cand = QuadraticCLF(np.eye(2), linear.eq)
    seed, radius = 0, 1.0
    rng = np.random.default_rng(seed)
    oracle_ok = True
    for x in sample_ball(linear.eq.x_e, radius, LOCAL_CLF_SAMPLES, rng):
        a, b = sontag_terms(linear.sys, cand, x)
        if np.linalg.norm(b) <= 1e-10 and a >= 0.0:
            oracle_ok = False
            break
    ok, witness = is_valid_local_clf(linear.sys, cand, radius, seed=seed)
    assert ok == oracle_ok
    assert (witness is None) == ok


def test_quadratic_clf_rejects_asymmetric_or_indefinite(linear):
    with pytest.raises(ScenarioError):
        QuadraticCLF(np.array([[1.0, 0.5], [0.0, 1.0]]), linear.eq)
    with pytest.raises(ScenarioError):
        QuadraticCLF(np.array([[1.0, 2.0], [2.0, 1.0]]), linear.eq)


def test_quadratic_clf_matrix_and_equilibrium_are_fixed_at_construction(linear):
    # W sums the rows of P and the equilibrium copied at construction, so P
    # is held as a read-only copy and neither can be reassigned: W stays
    # x'Px for the P that doa and verify read
    P = linear.clf.P.copy()
    clf = QuadraticCLF(P, linear.eq)
    P[0, 0] = 100.0
    x = np.array([1.0, 0.5])
    with pytest.raises(ValueError, match="read-only"):
        clf.P[0, 0] = 100.0
    with pytest.raises(AttributeError, match="P is fixed at construction"):
        clf.P = 100.0 * np.eye(2)
    with pytest.raises(AttributeError, match="equilibrium is fixed at construction"):
        clf.equilibrium = EquilibriumPair([1.0, 0.0], [0.0])
    assert clf.P.tolist() == linear.clf.P.tolist() and clf.equilibrium is linear.eq
    assert clf.value(x) == pytest.approx(1.60355, abs=1e-12)
    assert clf.value(x) == pytest.approx(float(x @ clf.P @ x), rel=1e-14)


def test_extended_class_k_is_linear_and_increasing():
    # the barrier row's class-K function is alpha * h, increasing iff
    # 0 < alpha; an infinite or nan rate is no rate at all
    def make(alpha):
        return Barrier(h=lambda x: 1.0, alpha=alpha,
                       grad_h=lambda x: np.zeros(1), name="rate")

    assert make(2.5).alpha == 2.5
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ScenarioError, match="alpha"):
            make(bad)


def test_safe_set_membership(linear):
    assert linear.safe_set.contains([0.0, 0.0])
    assert not linear.safe_set.contains([4.0, 4.0])
    with pytest.raises(ScenarioError):
        SafeSet(())


def test_sample_ball_respects_radius():
    rng = np.random.default_rng(0)
    pts = sample_ball(np.array([1.0, -1.0, 0.5]), 0.3, 500, rng)
    dist = np.linalg.norm(pts - np.array([1.0, -1.0, 0.5]), axis=1)
    assert dist.max() <= 0.3 + 1e-12
