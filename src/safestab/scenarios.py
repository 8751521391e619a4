"""Bundled case studies and the scenario configuration format.

A scenario file is JSON with the following keys (matrices row-major):

    name          identifier
    dynamics      {"kind": <registered kind>, "params": {...}}
    equilibrium   {"x": [...], "u": [...]}
    eq_tol        residual bound on |f(x_e) + g(x_e) u_e|_inf (default 1e-3)
    clf           {"P": [[...], ...]}
    barriers      list; kinds:
                    "quadratic":      h = offset + linear.x + x' quad x
                    "exp_positivity": h = 1 - exp(-x[index])
                  each with {"alpha": {"lambda": ...}, "name": ...}
    domain        per-axis sampling box [[lo, hi], ...]
    defaults      harness defaults (x0, t_final, gamma, p, doa_c_bounds,
                  doa_grid, x0 is a documented reconstruction, not a value
                  from the source material)

Two scenarios ship with the package: a 2D linear system with one elliptic
barrier, and a 3D tumor/immune model with three positivity barriers. The 2D
barrier carries a +1 offset making the printed quadratic a nonempty safe set;
the offset is configurable in the file.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Dict, Tuple

import numpy as np

from .core import (Barrier, ControlAffineSystem, EquilibriumPair,
                   QuadraticCLF, SafeSet, as_vector, equilibrium_residual)
from .errors import ScenarioError

SCENARIO_NAMES = ("linear2d", "tumor3d")


def _linear2d_dynamics(params: dict) -> Tuple[Callable, Callable, int, int]:
    def f(x):
        return np.array([-x[1], -x[0]])

    g_mat = np.array([[0.0], [1.0]])

    def g(x):
        return g_mat

    return f, g, 2, 1


def _tumor3d_dynamics(params: dict) -> Tuple[Callable, Callable, int, int]:
    a_nt = float(params["alpha_NT"])
    a_tn = float(params["alpha_TN"])
    beta = float(params["beta"])
    k_r = float(params["K_R"])
    k_t = float(params["K_T"])
    r_r = float(params["R_R"])
    r_t = float(params["R_T"])

    # Python floats: the same IEEE arithmetic as numpy scalars, at half the cost
    def f(x):
        x1, x2, x3 = x.tolist()
        return np.array([
            r_t * x1 - (r_t / k_t) * x1 * x1 - (a_tn * r_t / k_t) * x1 * x2,
            -a_nt * x2 * x1 + beta * x2 * x3,
            r_r * x3 - (r_r / k_r) * x3 * x3 - (beta * r_r / k_r) * x2 * x3,
        ])

    def g(x):
        x1, x2, _ = x.tolist()
        return np.array([[-(r_t / k_t) * x1 * x2], [0.0], [0.0]])

    return f, g, 3, 1


DYNAMICS_REGISTRY: Dict[str, Callable[[dict], Tuple[Callable, Callable, int, int]]] = {
    "linear2d": _linear2d_dynamics,
    "tumor3d": _tumor3d_dynamics,
}


def _build_barrier(entry: dict, n: int) -> Barrier:
    kind = entry.get("kind")
    alpha = float(entry.get("alpha", {}).get("lambda", 1.0))
    name = entry.get("name", kind or "h")
    if kind == "quadratic":
        offset = float(entry.get("offset", 0.0))
        lin = as_vector(entry.get("linear", np.zeros(n)), n)
        quad = np.asarray(entry["quad"], dtype=float).reshape(n, n)
        quad = 0.5 * (quad + quad.T)

        def h(x, _o=offset, _l=lin, _q=quad):
            return _o + float(_l @ x) + float(x @ _q @ x)

        def grad_h(x, _l=lin, _q=quad):
            return _l + 2.0 * (_q @ x)

        return Barrier(h=h, alpha=alpha, grad_h=grad_h, name=name)
    if kind == "exp_positivity":
        idx = int(entry["index"])
        if not 0 <= idx < n:
            raise ScenarioError(f"barrier index {idx} out of range for n={n}")

        def h(x, _i=idx):
            return 1.0 - float(np.exp(-x[_i]))

        def grad_h(x, _i=idx, _n=n):
            grad = np.zeros(_n)
            grad[_i] = float(np.exp(-x[_i]))
            return grad

        return Barrier(h=h, alpha=alpha, grad_h=grad_h, name=name)
    raise ScenarioError(f"unknown barrier kind {kind!r}")


@dataclass
class ScenarioBundle:
    name: str
    sys: ControlAffineSystem
    clf: QuadraticCLF
    safe_set: SafeSet
    eq: EquilibriumPair
    domain: np.ndarray
    defaults: dict


def scenario_from_dict(cfg: dict) -> ScenarioBundle:
    try:
        name = cfg["name"]
        dyn = cfg["dynamics"]
        kind = dyn["kind"]
        if kind not in DYNAMICS_REGISTRY:
            raise ScenarioError(f"unknown dynamics kind {kind!r}")
        f, g, n, m = DYNAMICS_REGISTRY[kind](dyn.get("params", {}))
        sys = ControlAffineSystem(n=n, m=m, f=f, g=g, name=name)
        eq = EquilibriumPair(as_vector(cfg["equilibrium"]["x"], n),
                             as_vector(cfg["equilibrium"]["u"], m))
        clf = QuadraticCLF(np.asarray(cfg["clf"]["P"], dtype=float), eq)
        barriers = tuple(_build_barrier(b, n) for b in cfg["barriers"])
        safe_set = SafeSet(barriers)
        domain = np.asarray(cfg["domain"], dtype=float).reshape(n, 2)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc

    eq_tol = float(cfg.get("eq_tol", 1e-3))
    residual = equilibrium_residual(sys, eq)
    if residual > eq_tol:
        raise ScenarioError(
            f"equilibrium residual {residual:.3e} exceeds eq_tol {eq_tol:.1e}")
    for bar in barriers:
        if bar.value(eq.x_e) <= 0.0:
            raise ScenarioError(f"barrier {bar.name!r} not positive at x_e")
    return ScenarioBundle(name=name, sys=sys, clf=clf, safe_set=safe_set,
                          eq=eq, domain=domain, defaults=dict(cfg.get("defaults", {})))


def load_scenario(path) -> ScenarioBundle:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def build_scenario(name: str) -> ScenarioBundle:
    """Construct one of the bundled scenarios by name."""
    if name not in SCENARIO_NAMES:
        raise ScenarioError(f"unknown scenario {name!r}; bundled: {SCENARIO_NAMES}")
    text = resources.files("safestab.data").joinpath(f"{name}.json").read_text()
    return scenario_from_dict(json.loads(text))
