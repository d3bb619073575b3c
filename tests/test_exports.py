import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sidiff

SUBMODULES = ("spline", "rates", "model", "simulate", "estimate", "experiments", "dataio", "synthetic", "cli")


@pytest.mark.parametrize("module_name", ["sidiff", *(f"sidiff.{name}" for name in SUBMODULES)])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_package_reexports_every_public_library_name():
    for name in sidiff.__all__:
        if name == "__version__":
            continue
        obj = getattr(sidiff, name)
        home = importlib.import_module(getattr(obj, "__module__", "sidiff"))
        assert getattr(home, name) is obj


def test_import_loads_no_scipy():
    # the library and the CLI need numpy alone; scipy is a test dependency
    code = "import sys, sidiff, sidiff.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(sidiff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
