"""Every name a carlift module exports through __all__ must exist."""

import importlib
import pkgutil

import carlift


def test_every_exported_name_resolves():
    checked = 0
    for info in pkgutil.iter_modules(carlift.__path__):
        mod = importlib.import_module(f"carlift.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"carlift.{info.name}.__all__ lists missing {name!r}"
            checked += 1
    assert checked > 0
