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

A dynamics kind is one function of its params that returns (fg, n, m), and
a barrier kind one function of its entry and n that returns hgrad; adding a
kind takes that one function and its entry in DYNAMICS_REGISTRY or
BARRIER_REGISTRY. Its float form is the only body written, every dot product
and quadratic form in it an explicit left-to-right sum (core.dot_of), and
core derives rhs and the numpy f, g, h and grad_h, for one state and for
stacks, from it (see core's Conventions).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Dict, Tuple

import numpy as np

from .core import (Barrier, ControlAffineSystem, EquilibriumPair,
                   QuadraticCLF, SafeSet, as_vector, dot_of,
                   equilibrium_residual, exp, matvec_of)
from .errors import ScenarioError

SCENARIO_NAMES = ("linear2d", "tumor3d")


def _linear2d_dynamics(params: dict) -> Tuple[Callable, int, int]:
    def fg(xs):
        x1, x2 = xs
        return [-x2, -x1], [[0.0, 1.0]]

    return fg, 2, 1


def _tumor3d_dynamics(params: dict) -> Tuple[Callable, int, int]:
    a_nt = float(params["alpha_NT"])
    a_tn = float(params["alpha_TN"])
    beta = float(params["beta"])
    k_r = float(params["K_R"])
    k_t = float(params["K_T"])
    r_r = float(params["R_R"])
    r_t = float(params["R_T"])

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


def _quadratic_barrier(entry: dict, n: int) -> Callable:
    offset = float(entry.get("offset", 0.0))
    lin = as_vector(entry.get("linear", np.zeros(n)), n).tolist()
    quad = np.asarray(entry["quad"], dtype=float).reshape(n, n)
    rows = (0.5 * (quad + quad.T)).tolist()
    dot, qx_of = dot_of(n), matvec_of(n, n)

    # h = (offset + lin . x) + x . (Q x) and grad h = lin + 2 Q x
    def hgrad(xs):
        qx = qx_of(rows, xs)
        return (offset + dot(lin, xs)) + dot(xs, qx), [l + 2.0 * v for l, v in zip(lin, qx)]

    return hgrad


def _exp_positivity_barrier(entry: dict, n: int) -> Callable:
    idx = entry["index"]
    if type(idx) is not int:   # a JSON integer: not 1.5, true or "2"
        raise ScenarioError(f"barrier index must be an integer, got {idx!r}")
    if not 0 <= idx < n:
        raise ScenarioError(f"barrier index {idx} out of range for n={n}")

    # h = 1 - e and grad h = e at idx (0 elsewhere), e = exp(-x[idx])
    def hgrad(xs):
        e = exp(-xs[idx])
        grad = [0.0] * n
        grad[idx] = e
        return 1.0 - e, grad

    return hgrad


BARRIER_REGISTRY: Dict[str, Callable[[dict, int], Callable]] = {
    "quadratic": _quadratic_barrier,
    "exp_positivity": _exp_positivity_barrier,
}


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object, got {value!r}")
    return value


def _build_barrier(entry: dict, n: int) -> Barrier:
    kind = _object(entry, "a barrier entry").get("kind")
    alpha = float(_object(entry.get("alpha", {}), "a barrier's alpha").get("lambda", 1.0))
    name = entry.get("name", kind or "h")
    if kind not in BARRIER_REGISTRY:
        raise ScenarioError(f"unknown barrier kind {kind!r}")
    return Barrier.from_hgrad(BARRIER_REGISTRY[kind](entry, n), alpha, name)


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
        fg, n, m = DYNAMICS_REGISTRY[kind](dyn.get("params", {}))
        sys = ControlAffineSystem.from_fg(fg, n, m, name)
        eq = EquilibriumPair(as_vector(cfg["equilibrium"]["x"], n),
                             as_vector(cfg["equilibrium"]["u"], m))
        clf = QuadraticCLF(np.asarray(cfg["clf"]["P"], dtype=float), eq)
        barriers = tuple(_build_barrier(b, n) for b in cfg["barriers"])
        safe_set = SafeSet(barriers)
        domain = np.asarray(cfg["domain"], dtype=float).reshape(n, 2)
        eq_tol = float(cfg.get("eq_tol", 1e-3))
        defaults = dict(_object(cfg.get("defaults", {}), "defaults"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc

    residual = equilibrium_residual(sys, eq)
    if residual > eq_tol:
        raise ScenarioError(
            f"equilibrium residual {residual:.3e} exceeds eq_tol {eq_tol:.1e}")
    for bar in barriers:
        if bar.value(eq.x_e) <= 0.0:
            raise ScenarioError(f"barrier {bar.name!r} not positive at x_e")
    return ScenarioBundle(name=name, sys=sys, clf=clf, safe_set=safe_set,
                          eq=eq, domain=domain, defaults=defaults)


def load_scenario(path) -> ScenarioBundle:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def build_scenario(name: str) -> ScenarioBundle:
    """Construct one of the bundled scenarios by name."""
    if name not in SCENARIO_NAMES:
        raise ScenarioError(f"unknown scenario {name!r}; bundled: {SCENARIO_NAMES}")
    text = resources.files("safestab.data").joinpath(f"{name}.json").read_text()
    return scenario_from_dict(json.loads(text))
