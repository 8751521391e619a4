import numpy as np
import pytest

from safestab import build_scenario, evaluate
from safestab.filters import make_filter_config


@pytest.fixture(scope="session")
def linear():
    return build_scenario("linear2d")


@pytest.fixture(scope="session")
def tumor():
    return build_scenario("tumor3d")


@pytest.fixture(scope="session")
def linear_cfg(linear):
    return make_filter_config(linear.sys, linear.clf, linear.safe_set, gamma=1.0)


@pytest.fixture(scope="session")
def tumor_cfg(tumor):
    return make_filter_config(tumor.sys, tumor.clf, tumor.safe_set, gamma=1.0)


def sample_safe_states(bundle, count, seed, w_cap=None):
    """Seeded rejection sample of safe-set states inside the scenario domain."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(100000):
        x = rng.uniform(bundle.domain[:, 0], bundle.domain[:, 1])
        if bundle.safe_set.min_value(x) < 0.0:
            continue
        if w_cap is not None and bundle.clf.value(x) > w_cap:
            continue
        out.append(x)
        if len(out) == count:
            return np.array(out)
    raise RuntimeError("rejection sampling exhausted")


def lie_derivative_fd(bar, x, direction, eps=1e-6):
    """Central finite difference of the barrier value along a direction: the
    oracle for L_f h (direction f(x)) and L_g h (a column of g(x))."""
    return (bar.value(x + eps * direction) - bar.value(x - eps * direction)) / (2 * eps)


def lie_derivatives(cfg, x, i):
    """(L_f h_i, L_g h_i) read off evaluate's barrier row i, A_i u >= lb_i
    with A_i = L_g h_i and lb_i = -alpha_i h_i - L_f h_i."""
    ev = evaluate(cfg, x)
    alpha = cfg.safe_set.barriers[i].alpha
    return -ev.lb[i] - alpha * ev.h[i], ev.A[i]
