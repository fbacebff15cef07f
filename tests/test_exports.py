"""Every exported name resolves, so a deleted function cannot stay listed."""

import importlib
import pkgutil

import pytest

import cknlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(cknlab.__path__)
                 if not info.name.startswith("_"))


@pytest.mark.parametrize("module", [None] + MODULES)
def test_all_names_resolve(module):
    mod = cknlab if module is None else importlib.import_module(f"cknlab.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
