"""Every name in a braidcalc module's __all__ resolves on that module.

Star imports and tools that walk __all__ (the per-layer tracer in
perfbench) fail on a stale export, so a deleted name must leave __all__
with it.
"""

import importlib
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
