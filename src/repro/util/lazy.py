"""Package ``__init__``s whose public names resolve on first use (PEP 562).

A subpackage's ``__init__`` used to import every module it re-exports, so
``from repro.mesh.mesh import Mesh`` on a solver's path also loaded three
file readers and the partitioners, ``repro.runtime.faults`` loaded the
communicator, and so on: a serial solve paid for ~25 modules it never
entered.  With :func:`lazy_exports` the ``__init__`` only *names* what each
submodule provides; ``from repro.mesh import read_gmsh`` imports
``repro.mesh.gmsh_io`` at that moment and caches the name on the package.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for the package named ``package``.

    ``exports`` maps each submodule to the public names it provides, in the
    order ``__all__`` should list them.
    """
    home = {name: module for module, names in exports.items() for name in names}
    # importing a submodule binds it on the package under its own name, which
    # would shadow an export of that name before this hook ever ran
    assert not home.keys() & exports.keys(), f"{package}: an export is named like a submodule"

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{home[name]}"), name)
        setattr(sys.modules[package], name, value)  # later lookups skip this hook
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *home})

    return __getattr__, __dir__, list(home)


__all__ = ["lazy_exports"]
