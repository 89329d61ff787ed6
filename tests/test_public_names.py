"""Every name that ``mecp`` or one of its modules lists in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import mecp

MODULES = ["mecp"] + [f"mecp.{info.name}" for info in pkgutil.iter_modules(mecp.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", ())
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(mod, name)] == []
