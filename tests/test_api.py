"""Each module's ``__all__`` names exactly what it defines for public use."""

import importlib
import inspect
import pkgutil

import pytest

import rislink

# every module but the entry point, which runs the command line when imported
MODULES = [importlib.import_module(f"rislink.{info.name}") for info in pkgutil.iter_modules(rislink.__path__)
           if info.name != "__main__"]
LISTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_modules_with_a_listing_are_found():
    assert {m.__name__ for m in LISTING} >= {"rislink.scenario", "rislink.geometry", "rislink.channel",
                                             "rislink.harness"}


@pytest.mark.parametrize("module", LISTING, ids=lambda m: m.__name__)
def test_all_matches_the_module(module):
    listed = set(module.__all__)
    assert len(listed) == len(module.__all__), "a name is listed twice"
    assert sorted(name for name in listed if not hasattr(module, name)) == []
    public = {name for name, obj in vars(module).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__}
    assert sorted(public - listed) == []
