"""The settable surface of the main entry points. Every value below has
callers that need it; a new parameter or field should be a deliberate edit
here, not a default nobody sets."""
import dataclasses
import inspect

from safestab import SimConfig, compute_c_star, control_sharing_holds, make_filter_config
from safestab.cli import RunManifest


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


def test_run_manifest_fields():
    assert [f.name for f in dataclasses.fields(RunManifest)] == \
        ["scenario", "controller", "gamma", "p", "dt", "t_final", "x0", "out_dir",
         "record_every"]
