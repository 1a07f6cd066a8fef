"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import normcurve

MODULES = [m.name for m in pkgutil.iter_modules(normcurve.__path__) if not m.name.startswith("_")]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"normcurve.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"normcurve.{module}.__all__ names missing attributes: {missing}"
