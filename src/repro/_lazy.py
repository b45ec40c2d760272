"""Lazy package exports (PEP 562): a package imports a submodule on first use.

Every ``repro`` package ``__init__`` names its public objects once, in a
table from each defining submodule to the names it exports, and hands the
table to :func:`lazy_exports`::

    _EXPORTS = {
        "repro.core.store": ("ResultStore", "make_key"),
        "repro.core.design": ("DesignPoint", "DesignSpec"),
    }
    __all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

Importing the package then imports none of its submodules.  Reading
``repro.core.ResultStore`` imports :mod:`repro.core.store` at that moment
and keeps the object in the package namespace, so a process pays only for
the submodules it touches: a warm CLI command replaying stored results never
loads the trainers, the circuits or the serving stack.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` of ``package`` from ``table``.

    ``__getattr__`` resolves an exported name from its submodule and caches
    it in the package namespace; any other name is an ``AttributeError``
    naming the package.  (``from package import submodule`` still works: the
    import system imports a submodule the package lacks as an attribute.)
    """
    owners = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *owners})

    return list(owners), __getattr__, __dir__
