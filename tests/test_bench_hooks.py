"""The benchmark's tracer (bench/instrument.py) wraps safestab's functions by
name in the module that calls them. Renaming or deleting one of those names
breaks the benchmark, not the library's own tests, so this checks that every
name the tracer patches is still bound."""
import importlib
import importlib.util
import pathlib
from types import SimpleNamespace

INSTRUMENT = pathlib.Path(__file__).resolve().parents[1] / "bench" / "instrument.py"
MODULES = ("core", "sontag", "qp", "filters", "doa", "sim", "scenarios", "verify", "cli")


def test_tracer_finds_every_name_it_wraps():
    spec = importlib.util.spec_from_file_location("safestab_bench_instrument", INSTRUMENT)
    instrument = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instrument)
    mods = SimpleNamespace(**{m: importlib.import_module(f"safestab.{m}") for m in MODULES})
    pairs = instrument.Tracer().patches(mods)   # getattr raises for a missing name
    assert pairs
    for mod, attr, wrapper in pairs:
        assert callable(getattr(mod, attr)) and callable(wrapper)
