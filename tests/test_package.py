import importlib
import pkgutil

import pytest

import abscatter

MODULES = sorted(f"abscatter.{m.name}" for m in pkgutil.iter_modules(abscatter.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
