"""The public name lists: every exported name exists, listed once."""

import importlib
import pkgutil

import kthprice


def test_every_module_all_resolves():
    modules = [kthprice] + [
        importlib.import_module(f"kthprice.{info.name}")
        for info in pkgutil.iter_modules(kthprice.__path__)
        if info.name != "__main__"]
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_all_is_sorted():
    assert kthprice.__all__ == sorted(set(kthprice.__all__))
