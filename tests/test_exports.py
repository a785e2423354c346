"""The public name lists: every exported name exists, listed once."""

import ast
import importlib
import pkgutil
from pathlib import Path

import kthprice

ROOT = Path(__file__).resolve().parents[1]


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


def _private_imports(path: Path) -> list[str]:
    """The private names that path imports from a kthprice module: relative
    imports (the CLI's) and absolute ones from kthprice (the demos')."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "kthprice"):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_cli_and_demos_import_no_private_name():
    paths = [ROOT / "src" / "kthprice" / "cli.py",
             *sorted((ROOT / "demos").glob("*.py"))]
    assert len(paths) > 1
    for path in paths:
        assert _private_imports(path) == [], path.name


# Generator methods promise no stream across numpy releases (NEP 19), and
# a copy of their internals goes stale silently: draws use the public
# Generator calls, never the bit generator's state.
BIT_GENERATOR_ATTRS = {"bit_generator", "random_raw", "advance", "state",
                       "has_uint32"}


def test_package_reads_no_bit_generator_state():
    paths = sorted((ROOT / "src" / "kthprice").glob("*.py"))
    assert len(paths) > 1
    for path in paths:
        found = [node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute)
                 and node.attr in BIT_GENERATOR_ATTRS]
        assert found == [], path.name
