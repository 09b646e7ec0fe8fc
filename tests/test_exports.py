"""Every name a carlift module exports through __all__ must exist, and
every exported function must be called by the package or the benchmark."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import carlift

ROOT = Path(__file__).resolve().parents[1]

# exported functions that nothing outside the tests calls yet, each with the
# reason it stays
UNCALLED_EXPORTS = {
    "qlss_cost_model": "query estimate of the linear-system route, awaiting the cost report",
    "tomography_cost_model": "readout sample count that acceptance criterion 9 checks",
}


def exported():
    for info in pkgutil.iter_modules(carlift.__path__):
        mod = importlib.import_module(f"carlift.{info.name}")
        for name in getattr(mod, "__all__", ()):
            yield info.name, mod, name


def test_every_exported_name_resolves():
    checked = 0
    for module, mod, name in exported():
        assert hasattr(mod, name), f"carlift.{module}.__all__ lists missing {name!r}"
        checked += 1
    assert checked > 0


def referenced_names() -> set[str]:
    """Every name and attribute read in src/carlift and benchmark/*.py; a
    def, an import and a string in __all__ are not references."""
    names = set()
    for path in [*(ROOT / "src" / "carlift").glob("*.py"), *(ROOT / "benchmark").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_function_is_called_outside_the_tests():
    used = referenced_names()
    functions = {name for _, mod, name in exported() if inspect.isfunction(getattr(mod, name))}
    uncalled = sorted(functions - used - set(UNCALLED_EXPORTS))
    assert not uncalled, f"exported functions only the tests call: {uncalled}"
    stale = sorted(name for name in UNCALLED_EXPORTS if name not in functions or name in used)
    assert not stale, f"allowed as uncalled but called or no longer exported: {stale}"
