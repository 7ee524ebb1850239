"""Lazy package exports: a PEP 562 ``__getattr__`` and ``__dir__``.

A package ``__init__`` that re-exports its submodules' names with
``from .sub import name`` imports every submodule, and all that they
import, as soon as anything imports one module of the package.
``repro serve`` passes through seven such packages on its way to the
server, so eager re-exports would load the experiment battery, the
suite generators and the baselines before the first request.

The packages the server imports therefore re-export through
:func:`lazy_exports` instead: a ``{name: module}`` table whose module
is imported the first time the name is read.  Each package keeps its
``__all__``, so ``from package import name``, ``from package import *``
and ``dir(package)`` behave as with the eager imports.  The other
packages stay eager: ``repro all --jobs N`` forks its battery workers
after importing them, so an eager import is paid once, in the parent.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for package ``package``.

    ``exports`` maps each re-exported name to the module that defines
    it.  A resolved name is bound on the package, so the import and
    the lookup happen once.  An entry that maps a name to the
    package's submodule of that name exports the submodule itself:
    importing a submodule binds it on its package, whatever else an
    eager ``__init__`` bound to the name earlier.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(source)
        is_submodule = source == f"{package}.{name}"
        value = module if is_submodule else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
