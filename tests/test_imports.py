"""Every module of the package imports cleanly when it is the first one
loaded, so no import cycle between the modules depends on the order in
which the package's ``__init__`` happens to import them."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import topodist

PACKAGE_DIR = str(Path(topodist.__file__).resolve().parent)
MODULES = sorted(m.name for m in pkgutil.iter_modules([PACKAGE_DIR]))

# a bare package object stands in for topodist, so its __init__ imports
# nothing before the module under test
FIRST_IMPORT = """
import importlib, sys, types
package = types.ModuleType("topodist")
package.__path__ = [sys.argv[1]]
sys.modules["topodist"] = package
importlib.import_module("topodist." + sys.argv[2])
"""


def child_python(*argv):
    src = str(Path(PACKAGE_DIR).parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )


def test_every_module_is_listed():
    assert {"bottleneck", "certify", "cli", "common", "complexes", "corpus"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    child = child_python("-c", FIRST_IMPORT, PACKAGE_DIR, module)
    assert child.returncode == 0, child.stderr[-2000:]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_through_the_package(module):
    child = child_python("-c", f"import topodist.{module}")
    assert child.returncode == 0, child.stderr[-2000:]
