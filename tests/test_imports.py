"""Each module of the package is imported on its own in a fresh interpreter,
so that an import cycle between modules fails here, by module name. Python
runs the package's __init__, which imports the modules in its own order,
before the module named."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import safestab

MODULES = ("core", "sontag", "qp", "filters", "doa", "sim", "scenarios", "verify", "cli")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    root = str(Path(safestab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", f"import safestab.{module}"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
