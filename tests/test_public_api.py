"""API-surface regression: every exported name exists, and every public
callable/class carries a docstring (the documentation deliverable, enforced)."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.relational",
    "repro.csp",
    "repro.csp.solvers",
    "repro.cq",
    "repro.datalog",
    "repro.games",
    "repro.consistency",
    "repro.width",
    "repro.dichotomy",
    "repro.views",
    "repro.generators",
    "repro.io",
    "repro.telemetry",
    "repro.service",
]

SOLVER_MODULES = [
    "repro.csp.solvers.brute",
    "repro.csp.solvers.backtracking",
    "repro.csp.solvers.backjumping",
    "repro.csp.solvers.join",
    "repro.csp.solvers.consistency",
    "repro.csp.solvers.decomposition",
    "repro.csp.solvers.portfolio",
]


@pytest.mark.parametrize("package", PACKAGES + SOLVER_MODULES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    assert exported, f"{package} has no __all__"
    for name in exported:
        assert hasattr(module, name), f"{package}.{name} in __all__ but missing"


@pytest.mark.parametrize("package", PACKAGES + SOLVER_MODULES)
def test_public_items_documented(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} lacks a module docstring"
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert inspect.getdoc(obj), f"{package}.{name} lacks a docstring"


def test_solver_modules_share_the_decision_api():
    """Every complete solver module exposes solve() and is_solvable()."""
    for name in SOLVER_MODULES:
        module = importlib.import_module(name)
        assert callable(getattr(module, "solve"))
        assert callable(getattr(module, "is_solvable"))


def test_version_is_exposed():
    import repro

    assert repro.__version__
