"""The public name lists: every exported name exists, listed once."""

import ast
import importlib
import pkgutil
import re
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


PUBLIC = [
    "AuctionConfig", "BidFunction", "IdentityResult",
    "LinearDensityDistribution", "MonotonicityResult", "MonteCarloResult",
    "Polynomial", "QuadratureError", "RationalFunction", "VerificationReport",
    "best_response_profile", "bid_from_psi_ladder", "catalan",
    "catalan_integral", "catalan_recurrence_holds",
    "expected_payment_benchmark", "expected_payment_quadrature",
    "expected_revenue", "hagen_rothe_sides", "identity_sweep", "integrate",
    "jensen_sides", "make_linear", "make_triangle", "make_uniform",
    "monotonicity_certificate", "monte_carlo_expected_payment", "omega",
    "omega_bounds", "phi_ladder_check", "polynomial_gcd", "psi_closed_form",
    "psi_ladder_oracle", "revenue_equivalence_check", "series_coefficients",
    "shifted_jensen_sides", "theta_coeff",
]


def test_package_all_is_the_pinned_list():
    assert len(PUBLIC) == 37
    assert kthprice.__all__ == PUBLIC


def test_every_public_name_serves_a_claim():
    # each export is named, as a whole word, by the CLI, a demo, the README
    # or the benchmark; adding one needs a claim that uses it
    paths = [ROOT / "src" / "kthprice" / "cli.py", ROOT / "README.md",
             *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "benchmarks").glob("*.py"))]
    text = "\n".join(path.read_text(encoding="utf-8") for path in paths)
    unused = [name for name in kthprice.__all__
              if not re.search(rf"\b{name}\b", text)]
    assert unused == []


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
