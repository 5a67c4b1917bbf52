"""Public names: every __all__ entry of the package and its modules resolves,
and none is listed twice."""

import importlib
import pkgutil

import pytest

import sgswe

MODULES = ["sgswe"] + [f"sgswe.{m.name}" for m in pkgutil.iter_modules(sgswe.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve_once(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
