"""The settable surface of the main entry points. Every value below has
callers that need it; a new parameter or field should be a deliberate edit
here, not a default nobody sets."""
import dataclasses
import inspect

from safestab import SimConfig, compute_c_star, make_filter_config


def test_make_filter_config_parameters():
    assert list(inspect.signature(make_filter_config).parameters) == \
        ["sys", "clf", "safe_set", "gamma", "p"]


def test_compute_c_star_parameters():
    assert list(inspect.signature(compute_c_star).parameters) == \
        ["cfg", "grid_resolution", "c_bounds"]


def test_sim_config_fields():
    assert [f.name for f in dataclasses.fields(SimConfig)] == \
        ["x0", "t_final", "dt", "record_every"]
