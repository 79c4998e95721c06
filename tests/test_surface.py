"""The package's public surface: the exported names are pinned, and every
module's ``__all__`` names something that exists."""

import importlib
import pkgutil

import pytest

import madspip

PACKAGE_NAMES = [
    "Problem",
    "Evaluation",
    "is_feasible",
    "ExternalEvaluator",
    "SolverConfig",
    "RunRecord",
    "InitializationError",
    "solve",
    "check_run_invariants",
    "KnownOptimum",
    "Instance",
    "builtin_problems",
    "make_instances",
    "load_problem_file",
    "ProfileCurve",
    "run_matrix",
    "data_profile",
    "feasibility_profile",
    "export",
]

MODULES = sorted(info.name for info in pkgutil.iter_modules(madspip.__path__))


def test_package_exports_exactly_the_pinned_names():
    assert madspip.__all__ == PACKAGE_NAMES
    for name in PACKAGE_NAMES:
        assert hasattr(madspip, name), name


@pytest.mark.parametrize("module", MODULES)
def test_every_listed_name_resolves(module):
    mod = importlib.import_module(f"madspip.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []
