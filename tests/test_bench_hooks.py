"""The benchmark's tracer (bench/instrument.py) wraps safestab's functions by
name in the module that calls them. Renaming or deleting one of those names
breaks the benchmark, not the library's own tests, so this checks that every
name the tracer patches is still bound. The benchmark also marks a pass
wrong when c* moves from the value it pins, which is checked here too."""
import importlib
import importlib.util
import pathlib
import sys
from types import SimpleNamespace

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
INSTRUMENT = BENCH / "instrument.py"
MODULES = ("core", "sontag", "qp", "filters", "doa", "sim", "scenarios", "verify", "cli")


def tracer_patches():
    """The (module, name, wrapper) triples of the tracer's patches, from
    bench/instrument.py loaded as a file; getattr raises for a missing
    name."""
    spec = importlib.util.spec_from_file_location("safestab_bench_instrument", INSTRUMENT)
    instrument = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instrument)
    mods = SimpleNamespace(**{m: importlib.import_module(f"safestab.{m}") for m in MODULES})
    return instrument.Tracer().patches(mods)


def test_tracer_finds_every_name_it_wraps():
    pairs = tracer_patches()
    assert pairs
    for mod, attr, wrapper in pairs:
        assert callable(getattr(mod, attr)) and callable(wrapper)


TUMOR_SWITCH_X0 = [1.5332973949760351, 4.258482076721906, 4.8267385751631195]


def _outputs():
    """Short runs of every QP law (hybrid into R2 on both scenarios,
    clf-cbf-qp and cbf-qp on linear2d) and verify's checks on linear2d."""
    from safestab import SimConfig, build_scenario, integrate, make_controller, make_filter_config
    from safestab.verify import run_checks
    out = []
    for name, controller, x0, t_final in (("linear2d", "hybrid", None, 0.3),
                                          ("tumor3d", "hybrid", TUMOR_SWITCH_X0, 0.3),
                                          ("linear2d", "clf-cbf-qp", None, 0.3),
                                          ("linear2d", "cbf-qp", None, 0.3)):
        bundle = build_scenario(name)
        cfg = make_filter_config(bundle.sys, bundle.clf, bundle.safe_set, gamma=1.0)
        traj = integrate(cfg, make_controller(cfg, controller),
                         SimConfig(x0=x0 or bundle.defaults["x0"], t_final=t_final))
        assert traj.status == "ok" and (controller != "hybrid" or traj.regions.any())
        out.append((traj.states.tobytes(), traj.inputs.tobytes(), traj.regions.tobytes()))
    out += [(r.name, r.passed, r.detail, r.skipped) for r in run_checks(build_scenario("linear2d"))]
    return out


def test_forwarding_functions_in_place_of_the_qp_names_change_no_output(monkeypatch):
    # the tracer replaces QPSpec and solve_qp where filters and verify bind
    # them with plain functions, so both modules must build and solve
    # through those names; verify builds no spec itself (filters'
    # s_cbf_qp_spec does), so its QPSpec only has to stay bound
    want = _outputs()
    calls = {}

    def forwarding(key, fn):
        def forward(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return forward

    for m in ("filters", "verify"):
        mod = importlib.import_module(f"safestab.{m}")
        for attr in ("QPSpec", "solve_qp"):
            monkeypatch.setattr(mod, attr, forwarding(f"{m}.{attr}", getattr(mod, attr)))
    assert _outputs() == want
    assert {key for key, n in calls.items() if n} == {
        "filters.QPSpec", "filters.solve_qp", "verify.solve_qp"}


def bench_c_star_cases():
    """(scenario, grid, c_bounds, c*, tolerance) of each c* the benchmark
    pins: the tumor gate's level, and doa's through the CLI at the certify
    workload's tumor3d grid and at linear2d's bundled grid and bounds; the
    tolerance is the benchmark's, 1e-3 times the bisection's c_hi."""
    sys.path.insert(0, str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    from safestab import build_scenario
    gate, certify = workloads.TumorGate, workloads.Certify
    cases = [("tumor3d", gate.GRID, gate.C_BOUNDS, gate.C_STAR, 1e-3 * gate.C_BOUNDS[1])]
    for name, grid in (("tumor3d", certify().tumor_grid), ("linear2d", None)):
        defaults = build_scenario(name).defaults
        c_star, c_hi = certify.C_STAR[name]
        cases.append((name, grid or defaults["doa_grid"], defaults["doa_c_bounds"], c_star,
                      1e-3 * c_hi))
    return cases


@pytest.mark.parametrize("scenario, grid, c_bounds, want, tol", bench_c_star_cases(),
                         ids=["tumor-gate", "certify-tumor3d", "certify-linear2d"])
def test_c_star_stays_within_the_benchmark_tolerance(scenario, grid, c_bounds, want, tol):
    from safestab import build_scenario, compute_c_star, make_filter_config
    bundle = build_scenario(scenario)
    cfg = make_filter_config(bundle.sys, bundle.clf, bundle.safe_set, gamma=1.0)
    assert abs(compute_c_star(cfg, grid, c_bounds).c_star - want) <= tol
