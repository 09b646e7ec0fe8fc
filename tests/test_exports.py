"""Every name a carlift module exports through __all__ must exist, every
exported function must be called by the package or the benchmark, and
every defaulted parameter of one must be set by some such call.  Every
public method of a carlift class must be read by the package or the
benchmark.  Every private module-level function or class must be read
by the package itself.  Every carlift name the benchmark imports must
exist, and every call it makes to one must bind to the current
signature.  No two carlift modules import each other, directly or
through others.  A carlift module imports from SciPy only what
SCIPY_IMPORTS allows it, and no carlift class derives from a SciPy
class."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import carlift

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_SOURCES = sorted((ROOT / "benchmark").glob("*.py"))
PACKAGE_SOURCES = sorted((ROOT / "src" / "carlift").glob("*.py"))
SOURCES = [*PACKAGE_SOURCES, *BENCHMARK_SOURCES]

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


# what each carlift module imports from SciPy, a module or a name, each
# with the reason it stays
SCIPY_IMPORTS = {
    "carleman": {"scipy.sparse": "the 0/1 CSR matrix that adds a lifted step's products onto "
                                 "their monomials"},
    "system": {"scipy.sparse": "the global CSR that matrix export and the condition estimate read",
               "splu": "the LU factor of M^T that applies M^{-1} M^{-T} in the condition estimate"},
    "cli": {"expm": "the exact solution an LCHS run is measured against"},
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


def referenced_names(paths=SOURCES) -> set[str]:
    """Every name and attribute read in ``paths``, by default src/carlift and
    benchmark/*.py; a def, an import and a string in __all__ are not
    references."""
    names = set()
    for path in paths:
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


def test_every_public_method_is_read_outside_the_tests():
    # read by name: a method that shares its name with one read elsewhere passes
    used = referenced_names()
    methods = [f"{path.stem}.{cls.name}.{node.name}" for path in PACKAGE_SOURCES
               for cls in ast.parse(path.read_text(), filename=str(path)).body
               if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert methods
    unread = [name for name in methods if name.rsplit(".", 1)[1] not in used]
    assert not unread, f"public methods only the tests read: {unread}"


def test_every_private_helper_is_read_by_the_package():
    # a helper that only the tests or the benchmark read belongs with them
    used = referenced_names(PACKAGE_SOURCES)
    private = [f"{path.stem}.{node.name}" for path in PACKAGE_SOURCES
               for node in ast.parse(path.read_text(), filename=str(path)).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert private
    unread = [name for name in private if name.split(".", 1)[1] not in used]
    assert not unread, f"private helpers no carlift code reads: {unread}"


def is_label(node) -> bool:
    """A string literal or a named constant, as a Tracer.call label is."""
    return isinstance(node, ast.Name) or (isinstance(node, ast.Constant) and isinstance(node.value, str))


def source_calls(paths=SOURCES):
    """(callee name, callee node, positional argument nodes, keyword names)
    of every call in ``paths``, by default src/carlift and benchmark/*.py.
    functools.partial(fn, ...) and Tracer.call(label, fn, ...), the label
    a string literal or a named constant, count as calls of fn with the
    arguments after it; a keyword name None stands for ``**kwargs``."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            keywords = [kw.arg for kw in node.keywords]
            name = getattr(func, "id", getattr(func, "attr", None))
            if name == "partial" and args:
                func, args = args[0], args[1:]
            elif name == "call" and len(args) >= 2 and is_label(args[0]):
                func, args = args[1], args[2:]
                keywords = [kw for kw in keywords if kw != "alloc"]  # Tracer's own option
            name = getattr(func, "id", getattr(func, "attr", None))
            if name is not None:
                yield name, func, args, keywords


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
    for name, _, args, keywords in source_calls():
        if name in functions:
            used |= {f"{name}.{p}" for p in set_parameters(functions[name], args, keywords)}
    unset = sorted(defaulted - used - set(UNSET_DEFAULTS))
    assert not unset, f"defaulted parameters only the tests set, or nothing: {unset}"
    stale = sorted(key for key in UNSET_DEFAULTS if key not in defaulted or key in used)
    assert not stale, f"allowed as unset but set or no longer defaulted: {stale}"


def benchmark_imports() -> dict[str, object]:
    """Each name benchmark/*.py imports from carlift, resolved to the
    object it names; a missing name fails here."""
    found = {}
    for path in BENCHMARK_SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "carlift":
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(mod, alias.name) and hasattr(mod, "__path__"):
                        # a submodule not yet imported: from carlift import cli
                        importlib.import_module(f"{node.module}.{alias.name}")
                    assert hasattr(mod, alias.name), f"{path.name}: {node.module} has no {alias.name!r}"
                    found[alias.asname or alias.name] = getattr(mod, alias.name)
    return found


def resolve(node, names: dict[str, object]):
    """The object a name or a module attribute (cli.main) refers to, or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        mod = names.get(node.value.id)
        return getattr(mod, node.attr, None) if inspect.ismodule(mod) else None
    return None


def benchmark_names() -> dict[str, object]:
    """:func:`benchmark_imports` plus the module-level aliases benchmark/*.py
    binds to them, such as ``TOTAL_DERIVATIVE = model.total_derivative_poly``."""
    names = benchmark_imports()
    for path in BENCHMARK_SOURCES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                target = resolve(node.value, names)
                if target is not None:
                    names[node.targets[0].id] = target
    return names


def forwards(args, keywords) -> bool:
    """A call f(*args, **kwargs) passes its own caller's arguments on."""
    return len(args) == 1 and isinstance(args[0], ast.Starred) and keywords == [None]


def test_benchmark_calls_bind_to_the_current_signatures():
    """A call in benchmark/*.py of a function or class it imports from
    carlift, by name, as an attribute of an imported module (cli.main) or
    through a module-level alias, must bind its positional count and
    keyword names.  Attribute reads, such as ``q.corr_target.nnz``, calls
    of methods and calls that only forward ``*args, **kwargs`` are not
    covered."""
    imported = benchmark_names()
    bound = set()
    for name, func, args, keywords in source_calls(BENCHMARK_SOURCES):
        if forwards(args, keywords):
            continue
        target = resolve(func, imported)
        if target is None or inspect.ismodule(target):
            continue
        assert None not in keywords and not any(isinstance(arg, ast.Starred) for arg in args), (
            f"{name} at benchmark line {func.lineno}: unpacked arguments cannot be checked")
        signature = inspect.signature(target)
        try:
            signature.bind(*[None] * len(args), **{k: None for k in keywords})
        except TypeError as exc:
            raise AssertionError(f"{name} at benchmark line {func.lineno} does not bind to "
                                 f"{signature}: {exc}") from None
        bound.add(name)
    assert {"CarlemanBasis", "truncation_sweep", "rk4_oracle", "main", "TOTAL_DERIVATIVE"} <= bound


def carlift_imports(path) -> set[str]:
    """The carlift modules a source file imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "carlift":
                continue
            inner = parts[1:] if node.level == 0 else [p for p in parts if p]
            found |= {inner[0]} if inner else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("carlift.")}
    return found


def test_the_sampler_modules_import_nothing_that_lifts():
    # the lift imports its step maps from reference, so an import back from
    # schedule, model or reference into the lifted layers would be a cycle
    lifted = {"carleman", "system", "solve", "diagnostics", "cli"}
    for name in ("schedule", "model", "reference"):
        found = carlift_imports(ROOT / "src" / "carlift" / f"{name}.py")
        assert not found & lifted, f"{name}.py imports {sorted(found & lifted)}"
    assert {"model", "schedule"} <= carlift_imports(ROOT / "src" / "carlift" / "reference.py")
    assert {"reference", "system"} <= carlift_imports(ROOT / "src" / "carlift" / "carleman.py")


def import_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of a module import graph, as the modules along it and the
    first again, or None: a depth-first walk in name order that meets a
    module still on its path."""
    done, path = set(), []

    def visit(name):
        path.append(name)
        for nxt in sorted(graph.get(name, ())):
            if nxt in path:
                return path[path.index(nxt):] + [nxt]
            if nxt not in done and (found := visit(nxt)):
                return found
        done.add(path.pop())
        return None

    for name in sorted(graph):
        if name not in done and (found := visit(name)):
            return found
    return None


def test_the_package_modules_import_each_other_without_a_cycle():
    # a cycle makes one module's names depend on the other's import order;
    # the package's __init__ imports every module and none imports it
    graph = {path.stem: carlift_imports(path) for path in PACKAGE_SOURCES if path.stem != "__init__"}
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": {"a", "d"}}) == ["a", "b", "c", "a"]
    assert import_cycle({"a": {"b", "c"}, "b": {"c"}}) is None
    cycle = import_cycle(graph)
    assert cycle is None, f"carlift modules import each other in a cycle: {' -> '.join(cycle)}"


def scipy_imports(path) -> dict[str, str]:
    """What a source file imports from SciPy, a module or a name, against
    the local name each binds."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name: alias.asname or alias.name.split(".")[0]
                      for alias in node.names if alias.name.split(".")[0] == "scipy"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "scipy":
            found |= {alias.name: alias.asname or alias.name for alias in node.names}
    return found


def test_the_package_imports_from_scipy_only_what_is_allowed():
    # the allowlist shrinks as SciPy leaves the run path; a class built on a
    # SciPy base would carry its whole interface into the package
    for path in PACKAGE_SOURCES:
        imported = scipy_imports(path)
        allowed = SCIPY_IMPORTS.get(path.stem, {})
        extra = sorted(set(imported) - set(allowed))
        assert not extra, f"{path.stem} imports {extra} from SciPy, not in SCIPY_IMPORTS"
        stale = sorted(set(allowed) - set(imported))
        assert not stale, f"SCIPY_IMPORTS lists {stale} for {path.stem}, which no longer imports them"
        classes = [node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                   if isinstance(node, ast.ClassDef)]
        for cls in classes:
            for base in cls.bases:
                while isinstance(base, ast.Attribute):  # sp.linalg.LinearOperator, for one
                    base = base.value
                assert getattr(base, "id", None) not in imported.values(), \
                    f"{path.stem}.{cls.name} derives from a SciPy class"
    assert set(SCIPY_IMPORTS) <= {path.stem for path in PACKAGE_SOURCES}
