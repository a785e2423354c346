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
