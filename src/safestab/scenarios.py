"""Bundled case studies and the scenario configuration format.

A scenario file is JSON with the following keys (matrices row-major):

    name          identifier and output-file prefix: no / or \\, not . or ..
    dynamics      {"kind": <registered kind>, "params": {...}}
    equilibrium   {"x": [...], "u": [...]}
    eq_tol        residual bound on |f(x_e) + g(x_e) u_e|_inf (default 1e-3)
    clf           {"P": [[...], ...]}
    barriers      list; kinds:
                    "quadratic":      h = offset + linear.x + x' quad x
                    "exp_positivity": h = 1 - exp(-x[index])
                  each with {"alpha": {"lambda": ...}, "name": <string>}
    domain        per-axis sampling box [[lo, hi], ...]
    defaults      harness defaults, each key optional, a missing one taken
                  from the fallback table: x0 (none), t_final (10), gamma
                  (1), p (10), doa_c_bounds ([0.1, 100]), doa_grid (41 per
                  axis); the bundled x0 is a documented reconstruction, not
                  a value from the source material

Two scenarios ship with the package: a 2D linear system with one elliptic
barrier, and a 3D tumor/immune model with three positivity barriers. The 2D
barrier carries a +1 offset making the printed quadratic a nonempty safe set;
the offset is configurable in the file.

A dynamics kind is one function of its params that returns (fg, n, m), and
a barrier kind one function of its entry, n and the entry's key path (for
messages) that returns hgrad; every number either reads goes through
_number, which makes a string, a boolean, NaN or an infinity (Python's
json reads both) a malformed file. An array is read through _array, flat
or nested, and a ragged one or one of another size is malformed too, named
by its key path; so are an x0 or doa_grid in defaults without one entry per
state axis, and a missing key (_key). Adding a kind takes that one function
and its entry in DYNAMICS_REGISTRY or BARRIER_REGISTRY. Its float form is
the only body written, every dot product and quadratic form in it an
explicit left-to-right sum (core.dot_of), and core derives the numpy f, g,
h and grad_h, for one state and for stacks, from it (see core's
Conventions).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from sys import float_info
from typing import Callable, Dict, Tuple

import numpy as np

from .core import (Barrier, ControlAffineSystem, EquilibriumPair,
                   QuadraticCLF, SafeSet, dot_of,
                   equilibrium_residual, exp, matvec_of)
from .errors import ScenarioError

SCENARIO_NAMES = ("linear2d", "tumor3d")


def _number(v, path: str) -> float:
    """A JSON number in a double's finite range (not true, "1.0", NaN,
    Infinity or 10**400) as a float; path names the key (and index) of v in
    the file, for the message."""
    if type(v) not in (int, float) or not abs(v) <= float_info.max:
        raise TypeError(f"{path}: expected a finite number, got {v!r}")
    return float(v)


def _key(obj: dict, key: str, path: str):
    """obj[key]; a missing key makes the file malformed, named by its key
    path."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{path}: missing") from None


def _string(v, path: str) -> str:
    if not isinstance(v, str):
        raise TypeError(f"{path}: expected a string, got {v!r}")
    return v


def _numbers(v, path: str):
    """An array of JSON numbers, nested to any depth, as lists of floats (a
    bare number as a float), each entry read by _number."""
    if isinstance(v, list):
        return [_numbers(e, f"{path}[{i}]") for i, e in enumerate(v)]
    return _number(v, path)


def _array(v, shape: Tuple[int, ...], path: str) -> np.ndarray:
    """The numbers of v (_numbers) as a float array of the given shape,
    written flat or nested; a ragged array, or another count of numbers,
    makes the file malformed, named by path."""
    want = " x ".join(map(str, shape))
    nums = _numbers(v, path)
    try:
        a = np.array(nums, dtype=float)
    except ValueError:   # numpy's "inhomogeneous shape"
        raise ValueError(f"{path}: expected {want} numbers, got a ragged array") from None
    if a.size != math.prod(shape):
        raise ValueError(f"{path}: expected {want} numbers, got {a.size}")
    return a.reshape(shape)


def _linear2d_dynamics(params: dict) -> Tuple[Callable, int, int]:
    def fg(xs):
        x1, x2 = xs
        return [-x2, -x1], [[0.0, 1.0]]

    return fg, 2, 1


def _tumor3d_dynamics(params: dict) -> Tuple[Callable, int, int]:
    a_nt, a_tn, beta, k_r, k_t, r_r, r_t = (
        _number(_key(params, key, f"dynamics.params.{key}"), f"dynamics.params.{key}")
        for key in ("alpha_NT", "alpha_TN", "beta", "K_R", "K_T", "R_R", "R_T"))

    def fg(xs):
        x1, x2, x3 = xs
        return [
            r_t * x1 - (r_t / k_t) * x1 * x1 - (a_tn * r_t / k_t) * x1 * x2,
            -a_nt * x2 * x1 + beta * x2 * x3,
            r_r * x3 - (r_r / k_r) * x3 * x3 - (beta * r_r / k_r) * x2 * x3,
        ], [[-(r_t / k_t) * x1 * x2, 0.0, 0.0]]

    return fg, 3, 1


DYNAMICS_REGISTRY: Dict[str, Callable[[dict], Tuple[Callable, int, int]]] = {
    "linear2d": _linear2d_dynamics,
    "tumor3d": _tumor3d_dynamics,
}


def _quadratic_barrier(entry: dict, n: int, path: str) -> Callable:
    offset = _number(entry.get("offset", 0.0), f"{path}.offset")
    lin = _array(entry.get("linear", [0.0] * n), (n,), f"{path}.linear").tolist()
    quad = _array(_key(entry, "quad", f"{path}.quad"), (n, n), f"{path}.quad")
    rows = (0.5 * (quad + quad.T)).tolist()
    dot, qx_of = dot_of(n), matvec_of(n, n)

    # h = (offset + lin . x) + x . (Q x) and grad h = lin + 2 Q x
    def hgrad(xs):
        qx = qx_of(rows, xs)
        return (offset + dot(lin, xs)) + dot(xs, qx), [l + 2.0 * v for l, v in zip(lin, qx)]

    return hgrad


def _exp_positivity_barrier(entry: dict, n: int, path: str) -> Callable:
    idx = _count(_key(entry, "index", f"{path}.index"), f"{path}.index")
    if not 0 <= idx < n:
        raise ScenarioError(f"barrier index {idx} out of range for n={n}")

    # h = 1 - e and grad h = e at idx (0 elsewhere), e = exp(-x[idx])
    def hgrad(xs):
        e = exp(-xs[idx])
        grad = [0.0] * n
        grad[idx] = e
        return 1.0 - e, grad

    return hgrad


BARRIER_REGISTRY: Dict[str, Callable[[dict, int, str], Callable]] = {
    "quadratic": _quadratic_barrier,
    "exp_positivity": _exp_positivity_barrier,
}


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object, got {value!r}")
    return value


def _build_barrier(entry: dict, n: int, path: str) -> Barrier:
    kind = _object(entry, "a barrier entry").get("kind")
    alpha = _number(_object(entry.get("alpha", {}), "a barrier's alpha").get("lambda", 1.0),
                    f"{path}.alpha.lambda")
    if kind not in BARRIER_REGISTRY:
        raise ScenarioError(f"unknown barrier kind {kind!r}")
    name = _string(entry.get("name", kind), f"{path}.name")
    return Barrier.from_hgrad(BARRIER_REGISTRY[kind](entry, n, path), alpha, name)


def _count(v, path: str) -> int:
    """A JSON integer (not 41.9, true or "41")."""
    if type(v) is not int:
        raise TypeError(f"{path}: expected an integer, got {v!r}")
    return v


def _typed_defaults(defaults: dict, n: int) -> dict:
    """The fallback table updated by the file's defaults, so that every key
    the CLI reads is there, each in the type it is read as and a value of
    the wrong type making the file malformed: the numbers t_final, gamma and
    p as floats, an array x0 (a null x0 is none, as if left out), the number
    pair doa_c_bounds as floats and the integers of doa_grid. A key the table
    lacks is kept as written. x0 and doa_grid need n entries, one per state
    axis."""
    out = {"x0": None, "t_final": 10.0, "gamma": 1.0, "p": 10.0,
           "doa_c_bounds": [0.1, 100.0], "doa_grid": (41,) * n, **defaults}
    for key in ("t_final", "gamma", "p"):
        out[key] = _number(out[key], f"defaults.{key}")
    if out["x0"] is not None:
        out["x0"] = _array(out["x0"], (n,), "defaults.x0")
    out["doa_c_bounds"] = tuple(
        _array(out["doa_c_bounds"], (2,), "defaults.doa_c_bounds").tolist())
    if not isinstance(out["doa_grid"], (list, tuple)):
        raise TypeError(f"defaults.doa_grid: expected {n} integers, got {out['doa_grid']!r}")
    out["doa_grid"] = tuple(_count(v, f"defaults.doa_grid[{i}]")
                            for i, v in enumerate(out["doa_grid"]))
    if len(out["doa_grid"]) != n:
        raise ValueError(f"defaults.doa_grid: expected {n} integers, got {len(out['doa_grid'])}")
    return out


@dataclass
class ScenarioBundle:
    name: str
    sys: ControlAffineSystem
    clf: QuadraticCLF
    safe_set: SafeSet
    eq: EquilibriumPair
    domain: np.ndarray
    defaults: dict
    eq_tol: float   # the bound on |f(x_e) + g(x_e) u_e|_inf, which verify checks


def scenario_from_dict(cfg: dict) -> ScenarioBundle:
    try:
        name = _string(_key(cfg, "name", "name"), "name")   # it prefixes the output files' names
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ValueError(f"name: expected a file name (no / or \\, not . or ..), got {name!r}")
        dyn = _key(cfg, "dynamics", "dynamics")
        kind = _key(dyn, "kind", "dynamics.kind")
        if kind not in DYNAMICS_REGISTRY:
            raise ScenarioError(f"unknown dynamics kind {kind!r}")
        fg, n, m = DYNAMICS_REGISTRY[kind](dyn.get("params", {}))
        sys = ControlAffineSystem.from_fg(fg, n, m, name)
        eq_cfg = _key(cfg, "equilibrium", "equilibrium")
        eq = EquilibriumPair(_array(_key(eq_cfg, "x", "equilibrium.x"), (n,), "equilibrium.x"),
                             _array(_key(eq_cfg, "u", "equilibrium.u"), (m,), "equilibrium.u"))
        clf = QuadraticCLF(_array(_key(_key(cfg, "clf", "clf"), "P", "clf.P"), (n, n), "clf.P"),
                           eq)
        barriers = tuple(_build_barrier(b, n, f"barriers[{i}]")
                         for i, b in enumerate(_key(cfg, "barriers", "barriers")))
        safe_set = SafeSet(barriers)
        domain = _array(_key(cfg, "domain", "domain"), (n, 2), "domain")
        eq_tol = _number(cfg.get("eq_tol", 1e-3), "eq_tol")
        defaults = _typed_defaults(_object(cfg.get("defaults", {}), "defaults"), n)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc

    residual = equilibrium_residual(sys, eq)
    if not residual <= eq_tol:
        raise ScenarioError(
            f"equilibrium residual {residual:.3e} exceeds eq_tol {eq_tol:.1e}")
    for bar in barriers:
        if not bar.h(eq.x_e) > 0.0:
            raise ScenarioError(f"barrier {bar.name!r} not positive at x_e")
    return ScenarioBundle(name=name, sys=sys, clf=clf, safe_set=safe_set,
                          eq=eq, domain=domain, defaults=defaults, eq_tol=eq_tol)


def load_scenario(path) -> ScenarioBundle:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def build_scenario(name: str) -> ScenarioBundle:
    """Construct one of the bundled scenarios by name."""
    if name not in SCENARIO_NAMES:
        raise ScenarioError(f"unknown scenario {name!r}; bundled: {SCENARIO_NAMES}")
    text = resources.files("safestab.data").joinpath(f"{name}.json").read_text()
    return scenario_from_dict(json.loads(text))
