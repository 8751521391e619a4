"""The settable surface of the main entry points, and the public attributes
of the objects every layer reads. Every value below has callers that need
it; a new parameter or field, or a second body of a quantity, should be a
deliberate edit here, not a default nobody sets."""
import dataclasses
import inspect
import json

import safestab
from safestab import (SimConfig, build_scenario, compute_c_star, control_sharing_holds,
                      evaluate, make_filter_config)
from safestab.cli import main


def test_make_filter_config_parameters():
    assert list(inspect.signature(make_filter_config).parameters) == \
        ["sys", "clf", "safe_set", "gamma", "p"]


def test_compute_c_star_parameters():
    assert list(inspect.signature(compute_c_star).parameters) == \
        ["cfg", "grid_resolution", "c_bounds"]


def test_sim_config_fields():
    assert [f.name for f in dataclasses.fields(SimConfig)] == \
        ["x0", "t_final", "dt", "record_every"]


def test_control_sharing_holds_parameters():
    assert list(inspect.signature(control_sharing_holds).parameters) == ["cfg", "x"]


def test_metrics_json_leads_with_the_run_parameters(tmp_path):
    # a run's parameters are held only as these keys of *_metrics.json
    assert main(["simulate", "--scenario", "linear2d", "--t-final", "0.01",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "linear2d_hybrid_metrics.json").read_text())
    assert list(summary)[:9] == ["scenario", "controller", "gamma", "p", "dt", "t_final",
                                 "x0", "out", "record_every"]


def public(obj):
    return sorted(name for name in dir(obj) if not name.startswith("_"))


def test_system_barrier_and_evaluation_attributes():
    # f + g u is summed by xdot alone, h and its gradient are read from h
    # and grad_h, and a stack's row is evaluated as its own state
    bundle = build_scenario("tumor3d")
    assert public(bundle.sys) == ["f", "fg", "from_fg", "g", "m", "n", "name", "xdot"]
    for bar in bundle.safe_set.barriers:
        assert public(bar) == ["alpha", "from_hgrad", "grad_h", "h", "hgrad", "name"]
    cfg = make_filter_config(bundle.sys, bundle.clf, bundle.safe_set)
    assert public(evaluate(cfg, bundle.eq.x_e)) == \
        ["As", "a", "bs", "fg", "grad", "hs", "lbs", "lfw", "margin", "region", "slacks", "us",
         "w", "x"]


def test_qp_spec_and_solution_attributes():
    # a spec and a solution hold floats only; no second form of them is kept
    spec = safestab.QPSpec([[1.0]], [0.0], [[1.0]], [2.0])
    assert public(spec) == ["As", "Hs", "bs", "cs", "dim", "n_rows", "objective", "reg",
                            "with_rows"]
    assert public(safestab.solve_qp(spec)) == \
        ["active_set", "iterations", "kkt_residual", "lams", "optimal", "spec", "status", "zs"]


def test_package_exports():
    # make_controller(cfg, name)(x) runs each law; s_cbf_qp_filter is
    # verify's one-state reference. Submodules become attributes of the
    # package as they are imported, so they are left out.
    names = [name for name in public(safestab) if not inspect.ismodule(getattr(safestab, name))]
    assert names == [
        "Barrier", "CONTROLLER_NAMES", "ControlAffineSystem", "DecreaseIdentityError",
        "DegenerateConstraintError", "DoaEstimate", "EquilibriumPair", "FilterConfig",
        "IndefiniteQPError", "InfeasibleQPError", "Metrics", "QPIterationError", "QPSolution",
        "QPSpec", "QuadraticCLF", "Region", "SCENARIO_NAMES", "SafeSet",
        "SafeStabError", "ScenarioBundle", "ScenarioError", "SharingInfeasibleError",
        "SimConfig", "SimulationError", "Trajectory", "build_scenario", "classify_region",
        "closed_form_ustar", "compute_c_star", "compute_metrics", "control_sharing_holds",
        "equilibrium_residual", "evaluate", "in_awc", "integrate", "is_valid_local_clf",
        "largest_clf_sublevel_inside", "load_scenario", "lp_feasible", "make_controller",
        "make_filter_config", "read_trajectory_csv", "s_cbf_qp_filter", "solve_qp",
        "sontag_control", "sontag_decrease_rate", "sontag_terms", "write_trajectory_csv"]
