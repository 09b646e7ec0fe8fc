"""Every name a carlift module exports through __all__ must exist, every
exported function must be called by the package or the benchmark, and
every defaulted parameter of one must be set by some such call."""

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


# defaulted parameters of exported functions that no call in the package or
# the benchmark sets, each with the reason it stays
UNSET_DEFAULTS = {
    "qlss_cost_model.c_poly": "polylog exponent of the query estimate, open until the cost "
                              "report fixes it",
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


def source_calls():
    """(callee name, positional argument nodes, keyword names) of every call
    in src/carlift and benchmark/*.py.  functools.partial(fn, ...) and
    Tracer.call("label", fn, ...) count as calls of fn with the arguments
    after it; a keyword name None stands for ``**kwargs``."""
    for path in [*(ROOT / "src" / "carlift").glob("*.py"), *(ROOT / "benchmark").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            keywords = [kw.arg for kw in node.keywords]
            name = getattr(func, "id", getattr(func, "attr", None))
            if name == "partial" and args:
                func, args = args[0], args[1:]
            elif (name == "call" and len(args) >= 2 and isinstance(args[0], ast.Constant)
                  and isinstance(args[0].value, str)):
                func, args = args[1], args[2:]
                keywords = [kw for kw in keywords if kw != "alloc"]  # Tracer's own option
            name = getattr(func, "id", getattr(func, "attr", None))
            if name is not None:
                yield name, args, keywords


def set_parameters(fn, args, keywords) -> set[str]:
    """Parameters of fn that a call with these arguments sets."""
    params = list(inspect.signature(fn).parameters.values())
    if None in keywords or any(isinstance(arg, ast.Starred) for arg in args):
        return {p.name for p in params}
    positional = [p.name for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return set(positional[: len(args)]) | set(keywords)


def test_every_default_of_an_exported_function_is_set_outside_the_tests():
    functions = {name: getattr(mod, name) for _, mod, name in exported()
                 if inspect.isfunction(getattr(mod, name))}
    defaulted = {f"{name}.{p.name}" for name, fn in functions.items()
                 for p in inspect.signature(fn).parameters.values() if p.default is not p.empty}
    used = set()
    for name, args, keywords in source_calls():
        if name in functions:
            used |= {f"{name}.{p}" for p in set_parameters(functions[name], args, keywords)}
    unset = sorted(defaulted - used - set(UNSET_DEFAULTS))
    assert not unset, f"defaulted parameters only the tests set, or nothing: {unset}"
    stale = sorted(key for key in UNSET_DEFAULTS if key not in defaulted or key in used)
    assert not stale, f"allowed as unset but set or no longer defaulted: {stale}"
