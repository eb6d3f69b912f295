"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mipsynth

MODULES = ["mipsynth"] + [f"mipsynth.{m.name}"
                          for m in pkgutil.iter_modules(mipsynth.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


def test_import_leaves_scipy_unloaded():
    # scipy costs about 0.3 s to import; only the solver and tests load it
    src = str(Path(mipsynth.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, mipsynth; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
