"""Every name in a braidcalc module's __all__ resolves on that module.

Star imports and tools that walk __all__ (the per-layer tracer in
perfbench) fail on a stale export, so a deleted name must leave __all__
with it.  No export is a second name for a method of an exported class:
each braid operation has one spelling.
"""

import importlib
import inspect
import pkgutil

import pytest

import braidcalc

MODULES = ["braidcalc"] + sorted(
    f"braidcalc.{info.name}" for info in pkgutil.iter_modules(braidcalc.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [public for public in module.__all__ if not hasattr(module, public)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _exported_methods():
    """(label, function) for every method of every class braidcalc exports."""
    methods = []
    for public in braidcalc.__all__:
        cls = getattr(braidcalc, public)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            func = getattr(value, "__func__", value)  # unwrap class/static methods
            if inspect.isfunction(func):
                methods.append((f"{public}.{attr}", func))
    return methods


METHODS = _exported_methods()


@pytest.mark.parametrize("name", MODULES)
def test_no_export_aliases_a_method(name):
    module = importlib.import_module(name)
    aliases = [
        f"{public} is {label}"
        for public in module.__all__
        for label, func in METHODS
        if getattr(module, public) is func
    ]
    assert not aliases, f"{name}.__all__ exports methods under a second name: {aliases}"
