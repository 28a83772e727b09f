"""Lazy package exports (PEP 562), the one re-export mechanism.

A package ``__init__`` names what it exports in one table,
``{submodule: (name, ...)}``, and takes its ``__all__``, ``__getattr__``
and ``__dir__`` from :func:`lazy_exports`.  A name's submodule is
imported the first time the name is read (``pkg.name``, ``from pkg
import name`` or ``from pkg import *``) and the value is cached in the
package's globals, so later reads are plain attribute lookups.  Merely
importing a package therefore imports none of its submodules — a
command that executes no simulation point never loads numpy or the
simulator — and no two packages can form an import cycle through their
``__init__``s.
"""

from __future__ import annotations


def lazy_exports(package: str, namespace: dict, table: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for the package ``package``
    whose module globals are ``namespace``, exporting ``table``."""
    home = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # ``from <package>.<sub> import <name>``; unlike import_module this
        # is the import statement's own path, which ``-X importtime`` logs.
        module = __import__(f"{package}.{home[name]}", fromlist=(name,))
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home})

    return list(home), __getattr__, __dir__
