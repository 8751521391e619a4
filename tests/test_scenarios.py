import itertools
import json
import math
from importlib import resources

import numpy as np
import pytest

from safestab import (ScenarioError, build_scenario, equilibrium_residual,
                      load_scenario)
from safestab.scenarios import DYNAMICS_REGISTRY, SCENARIO_NAMES, scenario_from_dict

from test_sums import same


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


def linear2d_file():
    return json.loads(resources.files("safestab.data").joinpath("linear2d.json").read_text())


# edits of the bundled linear2d file that leave it malformed
MALFORMED = {
    "alpha-not-an-object": lambda d: d["barriers"][0].update(alpha=2.0),
    "barrier-entry-a-string": lambda d: d.update(barriers=["quadratic"]),
    "defaults-a-list": lambda d: d.update(defaults=[1, 2]),
    "eq_tol-null": lambda d: d.update(eq_tol=None),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_scenario_raises_scenario_error(edit):
    cfg = linear2d_file()
    scenario_from_dict(cfg)
    edit(cfg)
    with pytest.raises(ScenarioError, match="^malformed scenario: "):
        scenario_from_dict(cfg)


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
    # an index that is not a JSON integer is rejected, not rounded or cast
    for index in (1.5, True, "2"):
        bad = dict(cfg, barriers=[dict(cfg["barriers"][0], index=index)])
        with pytest.raises(ScenarioError, match="integer"):
            scenario_from_dict(bad)
    good = dict(cfg, barriers=[dict(cfg["barriers"][0], index=2)])
    assert scenario_from_dict(good).safe_set.barriers[0].value([1.0, 1.0, 0.0]) == 0.0


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -2.5, 3.0, 1e200]


def test_registered_kind_gets_its_numpy_closures_from_fg(monkeypatch):
    # a dynamics kind is one function returning (fg, n, m); here n = 3,
    # m = 2, and the second g column mixes constants with state terms
    made = []

    def kind(params):
        k = float(params["k"])

        def fg(xs):
            x1, x2, x3 = xs
            return [-k * x1 + x2 * x3, x1 - x2, -x3 * x3 * x3], [[1.0 + x2 * x2, x1, 0.5 * x3],
                                                                 [0.0, 2.0, x1 * x2]]
        made.append(fg)
        return fg, 3, 2

    monkeypatch.setitem(DYNAMICS_REGISTRY, "test-m2", kind)
    bundle = scenario_from_dict({
        "name": "test-m2",
        "dynamics": {"kind": "test-m2", "params": {"k": 0.7}},
        "equilibrium": {"x": [0.0, 0.0, 0.0], "u": [0.0, 0.0]},
        "clf": {"P": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        "barriers": [{"kind": "quadratic", "offset": 1.0,
                      "quad": [[-0.1, 0.0, 0.0], [0.0, -0.1, 0.0], [0.0, 0.0, -0.1]]}],
        "domain": [[-3, 3], [-3, 3], [-3, 3]],
    })
    sys = bundle.sys
    assert sys.fg is made[-1]
    X = np.array(list(itertools.product(SPECIAL, repeat=3)))
    with np.errstate(all="ignore"):
        F, G = sys.f(X), sys.g(X)
        assert F.shape == (X.shape[0], 3) and G.shape == (X.shape[0], 3, 2)
        for x, f_stack, g_stack in zip(X, F, G):
            fs, gcols = sys.fg(x.tolist())
            want_f, want_g = np.array(fs, dtype=float), np.array(gcols, dtype=float).T
            assert sys.f(x).tobytes() == want_f.tobytes(), x
            assert sys.g(x).shape == (3, 2) and sys.g(x).tobytes() == want_g.tobytes(), x
            # the stack rows run fg on numpy columns: the same bytes, but for
            # the sign and payload of a NaN (see test_sums)
            assert same(f_stack, want_f) and same(g_stack, want_g), x


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_bundled_objects_carry_the_kinds_float_bodies(name):
    # built from the float forms alone: fg and hgrad are the kinds' own
    # bodies, not the adapters over f, g, h and grad h that would serve them
    # had the construction assigned those closures afterwards
    bundle = build_scenario(name)
    assert bundle.sys.fg.__qualname__ == f"_{name}_dynamics.<locals>.fg"
    for bar in bundle.safe_set.barriers:
        assert bar.hgrad.__qualname__.endswith("_barrier.<locals>.hgrad")
        assert bar.hgrad.__module__ == "safestab.scenarios"
