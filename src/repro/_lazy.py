"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package lists which module defines each public name; the name is
imported on first access and cached in the package namespace, so
``import repro`` (or any subpackage) costs one module, and a caller
pays only for the layers it touches.  ``__all__`` and every import path
stay as they were: ``from repro.scenarios import build`` and
``from repro import *`` work unchanged.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, MutableMapping, Sequence, Tuple


def lazy_exports(
    namespace: MutableMapping[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a package that re-exports lazily.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    defining module to the names the package re-exports from it.
    """
    package = namespace["__name__"]
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        """Import ``name`` from its defining module and cache it on the package."""
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        """The package's loaded attributes plus every lazy export."""
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
