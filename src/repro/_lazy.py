"""Package facades that import what they export on first use (PEP 562).

A facade such as ``repro`` or ``repro.server`` re-exports names from
many submodules.  Importing them all eagerly makes every
``import repro.<anything>`` pay for the whole package — a kernel
replica would load the HTTP front end, asyncio and the SQLite layer
just to reach its decision kernel.  :func:`attach` gives a facade a
module ``__getattr__`` that imports a name's defining module the first
time the name is read, and caches the value in the facade's namespace
so later reads are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def attach(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the facade module *package*.

    *exports* maps each defining module to the names the facade takes
    from it.  Assign the pair to the facade's ``__getattr__`` and
    ``__dir__``; keep its ``__all__`` and a ``TYPE_CHECKING`` import
    block (for type checkers) in step with *exports*.
    """
    namespace = sys.modules[package].__dict__
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
