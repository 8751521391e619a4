import itertools
import json
import math
import re
from importlib import resources

import numpy as np
import pytest

from safestab import (ScenarioError, build_scenario, equilibrium_residual,
                      load_scenario)
from safestab.scenarios import (BARRIER_REGISTRY, DYNAMICS_REGISTRY, SCENARIO_NAMES,
                                scenario_from_dict)

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
    assert bar.h(np.array([0.0, 0.0])) == 1.0
    assert bar.h(np.array([1.0, 1.0])) == pytest.approx(1.0 - 0.1 - 0.15 - 0.1)
    assert bar.h(np.array([1.0, -1.0])) == pytest.approx(1.0 - 0.1 + 0.15 - 0.1)


def test_linear_dynamics_match_definition(linear):
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=2)
        assert np.all(linear.sys.f(x) == np.array([-x[1], -x[0]]))
        assert np.all(linear.sys.g(x) == np.array([[0.0], [1.0]]))


def test_tumor_equilibrium_and_barriers(tumor):
    assert equilibrium_residual(tumor.sys, tumor.eq) <= 1e-3
    # printed 4-decimal values are roundings of the shipped equilibrium
    assert np.allclose(tumor.eq.x_e, [6.4286, 7.1429, 3.5714], atol=5e-5)
    assert tumor.eq.u_e[0] == -0.4
    vals = tumor.safe_set.values(tumor.eq.x_e)
    assert np.all(vals > 0.0)
    # h1 caps the tumor load at 10
    h1 = tumor.safe_set.barriers[0]
    assert h1.h(np.array([10.0, 5.0, 5.0])) == pytest.approx(0.0, abs=1e-12)
    assert h1.h(np.array([0.0, 5.0, 5.0])) == pytest.approx(0.0, abs=1e-12)
    assert h1.h(np.array([5.0, 5.0, 5.0])) == pytest.approx(25.0)


def test_tumor_input_enters_first_equation_only(tumor):
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(0.5, 9.0, size=3)
        G = tumor.sys.g(x)
        assert G[1, 0] == 0.0 and G[2, 0] == 0.0
        assert G[0, 0] == pytest.approx(-0.09 * x[0] * x[1])


def test_tumor_drift_positivity_structure(tumor):
    # each drift component carries its own state as a factor
    rng = np.random.default_rng(2)
    for i in range(3):
        for _ in range(10):
            x = rng.uniform(0.5, 9.0, size=3)
            x[i] = 0.0
            assert tumor.sys.f(x)[i] == 0.0


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


def scenario_file(name):
    return json.loads(resources.files("safestab.data").joinpath(f"{name}.json").read_text())


def linear2d_file():
    return scenario_file("linear2d")


# edits of the bundled linear2d file that leave it malformed
MALFORMED = {
    "alpha-not-an-object": lambda d: d["barriers"][0].update(alpha=2.0),
    "barrier-entry-a-string": lambda d: d.update(barriers=["quadratic"]),
    "defaults-a-list": lambda d: d.update(defaults=[1, 2]),
    "eq_tol-null": lambda d: d.update(eq_tol=None),
    # each known default converts as the CLI reads it, or the file is malformed
    "defaults-gamma-null": lambda d: d["defaults"].update(gamma=None),
    "defaults-t_final-a-word": lambda d: d["defaults"].update(t_final="ten"),
    "defaults-p-a-list": lambda d: d["defaults"].update(p=[1.0, 2.0]),
    "defaults-x0-an-object": lambda d: d["defaults"].update(x0={"a": 1.0}),
    "defaults-doa_c_bounds-a-number": lambda d: d["defaults"].update(doa_c_bounds=3),
    "defaults-doa_c_bounds-one-value": lambda d: d["defaults"].update(doa_c_bounds=[1.0]),
    "defaults-doa_grid-infinite": lambda d: d["defaults"].update(doa_grid=[math.inf, 41]),
    # grid counts are JSON integers and the other numbers JSON numbers, not
    # values that int() or float() would turn into one
    "defaults-doa_grid-a-fraction": lambda d: d["defaults"].update(doa_grid=[41.9, 41]),
    "defaults-doa_grid-a-string": lambda d: d["defaults"].update(doa_grid=["41", 41]),
    "defaults-doa_grid-a-bool": lambda d: d["defaults"].update(doa_grid=[True, 41]),
    "defaults-t_final-a-string": lambda d: d["defaults"].update(t_final="10"),
    "defaults-t_final-a-bool": lambda d: d["defaults"].update(t_final=True),
    "defaults-gamma-a-bool": lambda d: d["defaults"].update(gamma=False),
    "defaults-p-a-string": lambda d: d["defaults"].update(p="10"),
    "defaults-doa_c_bounds-a-bool": lambda d: d["defaults"].update(doa_c_bounds=[True, 120.0]),
    "defaults-doa_c_bounds-a-string": lambda d: d["defaults"].update(doa_c_bounds=[0.5, "120"]),
    # an integer written with more digits than a double holds
    "offset-beyond-a-double": lambda d: d["barriers"][0].update(offset=10 ** 400),
    # the name becomes part of each output file's name: a string naming a
    # file inside the output directory, and a barrier's name a string
    "name-a-parent-path": lambda d: d.update(name="../escaped"),
    "name-a-subdirectory": lambda d: d.update(name="a/b"),
    "name-a-backslash-path": lambda d: d.update(name="a\\b"),
    "name-empty": lambda d: d.update(name=""),
    "name-a-dot": lambda d: d.update(name="."),
    "name-two-dots": lambda d: d.update(name=".."),
    "name-a-number": lambda d: d.update(name=5),
    "name-null": lambda d: d.update(name=None),
    "barrier-name-a-list": lambda d: d["barriers"][0].update(name=["x"]),
    "barrier-name-null": lambda d: d["barriers"][0].update(name=None),
}

# an array with the wrong count of numbers, or ragged, by the key path its
# message names: (path, edit of linear2d's file)
MISSIZED = {
    "quad-3x3": ("barriers[0].quad: expected 2 x 2 numbers, got 9",
                 lambda d: d["barriers"][0].update(quad=[[1.0, 0.0, 0.0]] * 3)),
    "quad-ragged": ("barriers[0].quad: expected 2 x 2 numbers, got a ragged array",
                    lambda d: d["barriers"][0].update(quad=[[-0.1, -0.075], [-0.1]])),
    "linear-length-3": ("barriers[0].linear: expected 2 numbers, got 3",
                        lambda d: d["barriers"][0].update(linear=[0.0, 0.0, 0.0])),
    "domain-3-rows": ("domain: expected 2 x 2 numbers, got 6",
                      lambda d: d.update(domain=[[-5.0, 5.0]] * 3)),
    "equilibrium-x-length-3": ("equilibrium.x: expected 2 numbers, got 3",
                               lambda d: d["equilibrium"].update(x=[0.0, 0.0, 0.0])),
    "clf-P-3x3": ("clf.P: expected 2 x 2 numbers, got 9",
                  lambda d: d["clf"].update(P=np.eye(3).tolist())),
    "defaults-x0-length-3": ("defaults.x0: expected 2 numbers, got 3",
                             lambda d: d["defaults"].update(x0=[2.2, -1.8, 0.0])),
    "defaults-doa_grid-length-3": ("defaults.doa_grid: expected 2 integers, got 3",
                                   lambda d: d["defaults"].update(doa_grid=[41, 41, 41])),
    "defaults-doa_c_bounds-three-values": (
        "defaults.doa_c_bounds: expected 2 numbers, got 3",
        lambda d: d["defaults"].update(doa_c_bounds=[0.5, 60.0, 120.0])),
}
# a missing key, or a doa_grid that is no array, by the key path its
# message names: (message, edit of linear2d's file)
MISSING = {
    "quad-deleted": ("barriers[0].quad: missing", lambda d: d["barriers"][0].pop("quad")),
    "equilibrium-u-deleted": ("equilibrium.u: missing", lambda d: d["equilibrium"].pop("u")),
    "defaults-doa_grid-null": ("defaults.doa_grid: expected 2 integers, got None",
                               lambda d: d["defaults"].update(doa_grid=None)),
}
MALFORMED.update({name: edit for name, (_, edit) in {**MISSIZED, **MISSING}.items()})


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_scenario_raises_scenario_error(edit):
    cfg = linear2d_file()
    scenario_from_dict(cfg)
    edit(cfg)
    with pytest.raises(ScenarioError, match="^malformed scenario: "):
        scenario_from_dict(cfg)


@pytest.mark.parametrize("message, edit", MISSIZED.values(), ids=MISSIZED.keys())
def test_a_missized_array_names_its_key_path(message, edit):
    # x0 and doa_grid fail at load, not first in simulate or doa
    cfg = linear2d_file()
    edit(cfg)
    with pytest.raises(ScenarioError, match=re.escape(f"malformed scenario: {message}") + "$"):
        scenario_from_dict(cfg)


@pytest.mark.parametrize("message, edit", MISSING.values(), ids=MISSING.keys())
def test_a_missing_key_names_its_key_path(message, edit):
    cfg = linear2d_file()
    edit(cfg)
    with pytest.raises(ScenarioError, match=re.escape(f"malformed scenario: {message}") + "$"):
        scenario_from_dict(cfg)


def test_arrays_load_flat_or_nested():
    flat, nested = linear2d_file(), linear2d_file()
    flat["clf"]["P"] = np.ravel(flat["clf"]["P"]).tolist()
    flat["barriers"][0]["quad"] = np.ravel(flat["barriers"][0]["quad"]).tolist()
    flat["domain"] = np.ravel(flat["domain"]).tolist()
    nested["equilibrium"]["x"] = [nested["equilibrium"]["x"]]
    nested["defaults"]["x0"] = [nested["defaults"]["x0"]]
    nested["defaults"]["doa_c_bounds"] = [nested["defaults"]["doa_c_bounds"]]
    want = scenario_from_dict(linear2d_file())
    for cfg in (flat, nested):
        got = scenario_from_dict(cfg)
        assert same(got.clf.P, want.clf.P) and same(got.domain, want.domain)
        assert same(got.eq.x_e, want.eq.x_e) and same(got.defaults["x0"], want.defaults["x0"])
        assert got.defaults["doa_c_bounds"] == want.defaults["doa_c_bounds"]
        assert same(got.safe_set.values(got.domain[:, 0]), want.safe_set.values(want.domain[:, 0]))


# every number a bundled file holds outside defaults' scalars, by its key
# path in the messages: (file, the keys and indices down to it)
NUMBERS = {
    "eq_tol": ("linear2d", ["eq_tol"]),
    "barriers[0].alpha.lambda": ("linear2d", ["barriers", 0, "alpha", "lambda"]),
    "barriers[0].offset": ("linear2d", ["barriers", 0, "offset"]),
    "barriers[0].linear[1]": ("linear2d", ["barriers", 0, "linear", 1]),
    "barriers[0].quad[1][0]": ("linear2d", ["barriers", 0, "quad", 1, 0]),
    "equilibrium.x[1]": ("linear2d", ["equilibrium", "x", 1]),
    "equilibrium.u[0]": ("linear2d", ["equilibrium", "u", 0]),
    "clf.P[0][1]": ("linear2d", ["clf", "P", 0, 1]),
    "domain[1][0]": ("linear2d", ["domain", 1, 0]),
    "defaults.x0[0]": ("linear2d", ["defaults", "x0", 0]),
    "barriers[2].alpha.lambda": ("tumor3d", ["barriers", 2, "alpha", "lambda"]),
    "dynamics.params.K_T": ("tumor3d", ["dynamics", "params", "K_T"]),
}


@pytest.mark.parametrize("kind", ["string", "bool"])
@pytest.mark.parametrize("path", NUMBERS)
def test_a_number_written_as_a_string_or_a_bool_is_malformed(path, kind):
    name, keys = NUMBERS[path]
    cfg = scenario_file(name)
    parent = cfg
    for key in keys[:-1]:
        parent = parent[key]
    # "1.0" and true once loaded as the numbers float() makes of them
    parent[keys[-1]] = str(parent[keys[-1]]) if kind == "string" else True
    with pytest.raises(ScenarioError, match=re.escape(f"malformed scenario: {path}: ")):
        scenario_from_dict(cfg)


def numeric_leaves(value, path=""):
    """(path, keys) of each number in a loaded scenario file, path written
    as the messages write it (clf.P[0][1])."""
    if isinstance(value, dict):
        items = [(f"{path}.{k}" if path else k, k, v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", i, v) for i, v in enumerate(value)]
    else:
        return [(path, [])] if type(value) in (int, float) else []
    return [(p, [key] + keys) for sub, key, v in items for p, keys in numeric_leaves(v, sub)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_number_of_a_bundled_file_rejects_nan_and_infinities(name, bad):
    # Python's json reads NaN, Infinity and -Infinity; each number of the
    # file, replaced in turn, makes it malformed, named by its key path
    leaves = numeric_leaves(scenario_file(name))
    assert len(leaves) > 20
    for path, keys in leaves:
        cfg = scenario_file(name)
        parent = cfg
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = bad
        # "expected a finite number" or, for a count, "expected an integer"
        message = f"malformed scenario: {path}: expected a"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            scenario_from_dict(cfg)


def test_a_nan_residual_or_barrier_value_at_x_e_fails_the_load_checks(monkeypatch):
    # a file of finite numbers whose dynamics or barrier give NaN at x_e
    # fails the load checks, which hold only where their compares are true
    monkeypatch.setitem(DYNAMICS_REGISTRY, "linear2d",
                        lambda params: (lambda xs: ([math.nan, 0.0], [[0.0, 1.0]]), 2, 1))
    with pytest.raises(ScenarioError, match="residual nan exceeds"):
        scenario_from_dict(linear2d_file())
    monkeypatch.undo()
    monkeypatch.setitem(BARRIER_REGISTRY, "quadratic",
                        lambda entry, n, path: lambda xs: (math.nan, [0.0] * n))
    with pytest.raises(ScenarioError, match="not positive at x_e"):
        scenario_from_dict(linear2d_file())


def test_known_defaults_are_stored_in_the_type_they_are_read_as():
    cfg = linear2d_file()
    cfg["defaults"].update(x0=[2, -1], t_final=3, gamma=1, p=10, doa_c_bounds=[1, 50],
                           doa_grid=[21, 31], note="kept")
    defaults = scenario_from_dict(cfg).defaults
    assert defaults["x0"].dtype == float and defaults["x0"].tolist() == [2.0, -1.0]
    assert [type(defaults[k]) for k in ("t_final", "gamma", "p")] == [float] * 3
    assert defaults["doa_c_bounds"] == (1.0, 50.0)
    assert all(type(v) is float for v in defaults["doa_c_bounds"])
    assert defaults["doa_grid"] == (21, 31) and all(type(v) is int for v in defaults["doa_grid"])
    assert defaults["note"] == "kept"
    cfg["defaults"]["x0"] = None   # a null x0 is none, as if left out
    assert scenario_from_dict(cfg).defaults["x0"] is None


def test_a_file_without_defaults_gets_the_fallback_table():
    for name in ("linear2d", "tumor3d"):
        cfg = scenario_file(name)
        del cfg["defaults"]
        n = len(cfg["equilibrium"]["x"])
        assert scenario_from_dict(cfg).defaults == {
            "x0": None, "t_final": 10.0, "gamma": 1.0, "p": 10.0,
            "doa_c_bounds": (0.1, 100.0), "doa_grid": (41,) * n}


def test_bundled_defaults_load_as_written():
    for name in ("linear2d", "tumor3d"):
        written = json.loads(resources.files("safestab.data").joinpath(f"{name}.json")
                             .read_text())["defaults"]
        defaults = build_scenario(name).defaults
        assert defaults["x0"].tolist() == written["x0"]
        assert defaults["doa_grid"] == tuple(written["doa_grid"])
        assert defaults["doa_c_bounds"] == tuple(written["doa_c_bounds"])
        assert [defaults[k] for k in ("t_final", "gamma", "p")] == [
            written[k] for k in ("t_final", "gamma", "p")]


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
    assert scenario_from_dict(good).safe_set.barriers[0].h(np.array([1.0, 1.0, 0.0])) == 0.0


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
