"""Every name a module exports through ``__all__`` exists, and every function
or class it exports is called somewhere in ``src``: code that only the tests
call belongs beside its tests."""

import ast
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import normcurve

MODULES = [m.name for m in pkgutil.iter_modules(normcurve.__path__) if not m.name.startswith("_")]


@functools.cache
def _names_called_in_src() -> frozenset:
    """The bare or attribute name of every call in the package's source."""
    calls = (
        node.func
        for path in Path(normcurve.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
    )
    return frozenset(getattr(func, "attr", getattr(func, "id", None)) for func in calls)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"normcurve.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"normcurve.{module}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("module", MODULES)
def test_exported_callables_are_called_in_src(module):
    mod = importlib.import_module(f"normcurve.{module}")
    exported = [
        name
        for name in mod.__all__
        if inspect.isfunction(getattr(mod, name)) or inspect.isclass(getattr(mod, name))
    ]
    uncalled = [name for name in exported if name not in _names_called_in_src()]
    assert not uncalled, f"normcurve.{module}.__all__ exports names src never calls: {uncalled}"
