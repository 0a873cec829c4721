"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import cylstable

MODULES = ["cylstable"] + [
    f"cylstable.{info.name}" for info in pkgutil.iter_modules(cylstable.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
