"""Lazy package exports: a package binds a public name on first access.

A package ``__init__`` whose submodules a forecast does not all run lists,
per submodule, the names it re-exports (PEP 562)::

    __getattr__, __dir__, __all__ = exports(__name__, {
        "critpath": "analyze_spans",
        "slo": "SLO SLOEngine",
    })

Reading ``repro.obs.analyze_spans`` (or ``from repro.obs import
analyze_spans``) imports ``repro.obs.critpath`` the first time and stores
the value in the package's namespace, so every later read is a plain
attribute hit that never reaches ``__getattr__``.  A name that is a
submodule (``repro.obs.critpath``, ``repro.par.comm``) is that submodule,
imported on first read as the eager ``__init__`` used to.
DESIGN.md section 9k.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys


def exports(package: str, table: dict[str, str]):
    """``(__getattr__, __dir__, names)`` for *package* from *table*."""
    home = {name: module for module, names in table.items()
            for name in names.split()}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name in home:
            value = getattr(importlib.import_module(f"{package}.{home[name]}"), name)
        elif not name.startswith("_") and importlib.util.find_spec(f"{package}.{name}"):
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home, *table})

    return __getattr__, __dir__, list(home)
