"""Each module of the package is imported on its own in a fresh interpreter,
so that an import cycle between modules fails here, by module name. Python
runs the package's __init__, which imports the modules in its own order,
before the module named. Every name a module imports is also used in it,
except the aliases the benchmark's tracer wraps there."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import safestab

from test_bench_hooks import tracer_patches

MODULES = ("core", "sontag", "qp", "filters", "doa", "sim", "scenarios", "verify", "cli")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    root = str(Path(safestab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", f"import safestab.{module}"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def _docstrings(tree):
    """The docstring nodes of a module and of its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def unused_imports(source: str):
    """The names an import binds that appear neither as a name in the code
    nor in a string constant other than a docstring (qp.py's generated
    bodies name what they call in strings)."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    docs = {id(node) for node in _docstrings(tree)}
    text = " ".join(node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docs)
    used |= set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))
    return [name for name in imported if name not in used]


def test_every_import_is_used_or_wrapped_by_the_tracer():
    # an alias the tracer wraps stays bound without a use; once the tracer
    # stops wrapping it, this fails until the import goes
    wrapped = {(mod.__name__.rsplit(".", 1)[-1], attr) for mod, attr, _ in tracer_patches()}
    root = Path(safestab.__file__).resolve().parent
    allowed, flagged = set(), []
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name in unused_imports(path.read_text()):
            if (path.stem, name) in wrapped:
                allowed.add((path.stem, name))
            else:
                flagged.append(f"{path.name}: {name}")
    assert not flagged
    assert allowed == {("sontag", "sontag_control"), ("filters", "sontag_terms"),
                       ("doa", "cbf_rows"), ("sim", "cbf_rows"), ("sim", "classify_region"),
                       ("verify", "QPSpec")}
