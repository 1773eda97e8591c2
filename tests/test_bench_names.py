"""The benchmark reaches the program by name: perfbench/tracer.py wraps the
functions in its WRAPPED table and perfbench/libsteps.py imports the library
API.  A renamed or deleted function would break only the traced benchmark
run, with an AttributeError or ImportError; these tests catch it here."""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", sorted(_tracer().WRAPPED))
def test_wrapped_name_resolves(module, attr):
    owner = importlib.import_module(f"abscatter.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner))


def _libsteps_imports():
    tree = ast.parse((BENCH / "libsteps.py").read_text())
    return sorted({(node.module, alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "").startswith("abscatter")
                   for alias in node.names})


def test_libsteps_imports_something():
    assert _libsteps_imports()


@pytest.mark.parametrize("module, name", _libsteps_imports())
def test_libsteps_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
