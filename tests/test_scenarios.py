import json

import numpy as np
import pytest

from safestab import (ScenarioError, build_scenario, equilibrium_residual,
                      load_scenario)
from safestab.scenarios import SCENARIO_NAMES, scenario_from_dict


def test_bundled_names():
    assert set(SCENARIO_NAMES) == {"linear2d", "tumor3d"}
    with pytest.raises(ScenarioError):
        build_scenario("pendulum")


def test_linear_scenario_shape(linear):
    assert linear.sys.n == 2 and linear.sys.m == 1
    assert np.all(linear.eq.x_e == 0.0) and np.all(linear.eq.u_e == 0.0)
    # P eigenvalues via the 2x2 characteristic-polynomial oracle
    P = linear.clf.P
    tr, det = P[0, 0] + P[1, 1], P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
    disc = np.sqrt(tr * tr - 4 * det)
    lam_min, lam_max = (tr - disc) / 2, (tr + disc) / 2
    assert lam_min > 0 and lam_max > 0
    assert np.allclose(np.sort(np.linalg.eigvalsh(P)), [lam_min, lam_max], rtol=1e-12)


def test_linear_barrier_offset_reconstruction(linear):
    # printed quadratic plus the +1 offset: h(0) = 1 and h is concave
    bar = linear.safe_set.barriers[0]
    assert bar.value([0.0, 0.0]) == 1.0
    assert bar.value([1.0, 1.0]) == pytest.approx(1.0 - 0.1 - 0.15 - 0.1)
    assert bar.value([1.0, -1.0]) == pytest.approx(1.0 - 0.1 + 0.15 - 0.1)


def test_linear_dynamics_match_definition(linear):
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=2)
        assert np.all(linear.sys.drift(x) == np.array([-x[1], -x[0]]))
        assert np.all(linear.sys.input_map(x) == np.array([[0.0], [1.0]]))


def test_tumor_equilibrium_and_barriers(tumor):
    assert equilibrium_residual(tumor.sys, tumor.eq) <= 1e-3
    # printed 4-decimal values are roundings of the shipped equilibrium
    assert np.allclose(tumor.eq.x_e, [6.4286, 7.1429, 3.5714], atol=5e-5)
    assert tumor.eq.u_e[0] == -0.4
    vals = tumor.safe_set.values(tumor.eq.x_e)
    assert np.all(vals > 0.0)
    # h1 caps the tumor load at 10
    h1 = tumor.safe_set.barriers[0]
    assert h1.value([10.0, 5.0, 5.0]) == pytest.approx(0.0, abs=1e-12)
    assert h1.value([0.0, 5.0, 5.0]) == pytest.approx(0.0, abs=1e-12)
    assert h1.value([5.0, 5.0, 5.0]) == pytest.approx(25.0)


def test_tumor_input_enters_first_equation_only(tumor):
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(0.5, 9.0, size=3)
        G = tumor.sys.input_map(x)
        assert G[1, 0] == 0.0 and G[2, 0] == 0.0
        assert G[0, 0] == pytest.approx(-0.09 * x[0] * x[1])


def test_tumor_drift_positivity_structure(tumor):
    # each drift component carries its own state as a factor
    rng = np.random.default_rng(2)
    for i in range(3):
        for _ in range(10):
            x = rng.uniform(0.5, 9.0, size=3)
            x[i] = 0.0
            assert tumor.sys.drift(x)[i] == 0.0


def test_load_scenario_from_file(tmp_path, linear):
    cfg = {
        "name": "custom",
        "dynamics": {"kind": "linear2d", "params": {}},
        "equilibrium": {"x": [0.0, 0.0], "u": [0.0]},
        "clf": {"P": [[2.0, 0.0], [0.0, 1.0]]},
        "barriers": [{"kind": "quadratic", "offset": 1.0,
                      "quad": [[-0.1, 0.0], [0.0, -0.1]],
                      "alpha": {"lambda": 2.0}}],
        "domain": [[-3, 3], [-3, 3]],
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(cfg))
    bundle = load_scenario(path)
    assert bundle.name == "custom"
    assert bundle.safe_set.barriers[0].alpha == 2.0


def test_scenario_validation_errors(tmp_path):
    base = {
        "name": "broken",
        "dynamics": {"kind": "linear2d", "params": {}},
        "equilibrium": {"x": [0.0, 0.0], "u": [0.0]},
        "clf": {"P": [[2.0, 0.0], [0.0, 1.0]]},
        "barriers": [{"kind": "quadratic", "offset": 1.0,
                      "quad": [[-0.1, 0.0], [0.0, -0.1]],
                      "alpha": {"lambda": 1.0}}],
        "domain": [[-3, 3], [-3, 3]],
    }
    bad_eq = dict(base, equilibrium={"x": [1.0, 1.0], "u": [0.0]})
    with pytest.raises(ScenarioError, match="residual"):
        scenario_from_dict(bad_eq)
    bad_p = dict(base, clf={"P": [[1.0, 3.0], [3.0, 1.0]]})
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad_p)
    bad_bar = dict(base, barriers=[{"kind": "quadratic", "offset": -1.0,
                                    "quad": [[-0.1, 0.0], [0.0, -0.1]],
                                    "alpha": {"lambda": 1.0}}])
    with pytest.raises(ScenarioError, match="positive at x_e"):
        scenario_from_dict(bad_bar)
    bad_kind = dict(base, dynamics={"kind": "nope", "params": {}})
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad_kind)
    missing = {k: v for k, v in base.items() if k != "clf"}
    with pytest.raises(ScenarioError, match="malformed"):
        scenario_from_dict(missing)
    # a rate too large for a double parses as inf and is no rate at all
    text = json.dumps(base).replace('"lambda": 1.0', '"lambda": 1e400')
    with pytest.raises(ScenarioError, match="alpha"):
        scenario_from_dict(json.loads(text))
    for rate in (0.0, -1.0):
        bad_rate = dict(base, barriers=[dict(base["barriers"][0], alpha={"lambda": rate})])
        with pytest.raises(ScenarioError, match="alpha"):
            scenario_from_dict(bad_rate)


def test_exp_positivity_barrier_index_bounds():
    cfg = {
        "name": "broken",
        "dynamics": {"kind": "tumor3d",
                     "params": {"alpha_NT": 0.5, "alpha_TN": 0.9, "beta": 0.9,
                                "K_R": 10.0, "K_T": 10.0, "R_R": 0.9, "R_T": 0.9}},
        "equilibrium": {"x": [6.428571428571429, 7.142857142857143,
                              3.5714285714285716], "u": [-0.4]},
        "clf": {"P": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        "barriers": [{"kind": "exp_positivity", "index": 5,
                      "alpha": {"lambda": 1.0}}],
        "domain": [[0, 10], [0, 10], [0, 10]],
    }
    with pytest.raises(ScenarioError):
        scenario_from_dict(cfg)
