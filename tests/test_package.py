import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import abscatter

MODULES = sorted(f"abscatter.{m.name}" for m in pkgutil.iter_modules(abscatter.__path__))

# the program: the package and the benchmark that drives it (read, never written)
PROGRAM = Path(abscatter.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# public names that no program path calls, each kept for its one-line reason
UNCALLED = {
    "abscatter.abwave.load_wave_csv": "closes the round trip of the CSV `wave` writes",
    "abscatter.gaugefield.save_potential_json": "closes the round trip of the config `flux` reads",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def public_names():
    """(qualified name, identifier) of every __all__ name, and of every public method or
    property of an __all__ class (inherited ones from the package included)."""
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            yield f"{module_name}.{name}", name
            obj = getattr(module, name)
            if not inspect.isclass(obj):
                continue
            for klass in obj.__mro__:
                if not klass.__module__.startswith("abscatter"):
                    continue
                for attr, value in vars(klass).items():
                    if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(
                            value, (property, classmethod, staticmethod))):
                        yield f"{module_name}.{name}.{attr}", attr


def program_references() -> set[str]:
    """Identifiers the program reads (a name, or an attribute of anything), each outside
    every function or class of the same name, so a definition does not call itself."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(getattr(node, "ctx", None), ast.Load):
            ident = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ident and ident not in enclosing:
                found.add(ident)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in sorted([*PROGRAM.rglob("*.py"), *PERFBENCH.rglob("*.py")]):
        visit(ast.parse(path.read_text(), str(path)), frozenset())
    return found


def test_every_public_name_is_called_by_the_program():
    # a name only the tests call belongs in the tests, as their own oracle
    assert PERFBENCH.is_dir()
    called = program_references()
    uncalled = {full for full, ident in public_names() if ident not in called}
    assert uncalled == set(UNCALLED), f"public names no program path calls: {sorted(uncalled)}"
