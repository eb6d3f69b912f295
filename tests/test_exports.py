"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib
import pkgutil

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
