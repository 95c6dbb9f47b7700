"""The one lazy-export idiom of every package ``__init__`` (PEP 562).

A package names, per submodule, what it re-exports; nothing is
imported until a name is first read, so a process loads only the layer
it runs (DESIGN.md, "Import layers")::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".rate": "RateReport analyze_rate",
        "..errors": "AnalysisError",
    })

The table is the only list: ``__all__`` is its names and ``dir()``
shows them before they load.  A resolved name is bound on the package,
so later reads are plain attribute lookups.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(package: str, table: dict[str, str]
                 ) -> tuple[Callable[[str], Any], Callable[[], list], list]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a module, relative to ``package``, to the
    space-separated names exported from it.  A name that is also a
    submodule's name must be bound by the package itself: importing
    the submodule would otherwise rebind the attribute to the module.
    """
    where = {name: module for module, names in table.items()
             for name in names.split()}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(vars(sys.modules[package]).keys() | where.keys())

    __getattr__.exports = where
    return __getattr__, __dir__, list(where)
