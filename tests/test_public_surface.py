"""Every name a module lists in ``__all__`` must exist in it.

A name left in ``__all__`` after its definition is deleted breaks
``from wallcurve.<module> import *`` and nothing else, so this checks the
package and each submodule that declares ``__all__``.
"""

import importlib
import pkgutil

import pytest

import wallcurve

MODULES = [
    module
    for module in [wallcurve] + [
        importlib.import_module(f"wallcurve.{info.name}")
        for info in pkgutil.iter_modules(wallcurve.__path__)
    ]
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
