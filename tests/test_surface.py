"""The package's public surface: the exported names and each submodule's
``__all__`` are pinned, and every module's ``__all__`` names something that
exists.  ``SolverConfig``'s fields are pinned too, and the tolerance constants
stay out of every ``__all__``, so a setting that grows back shows in a diff."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import madspip

README = Path(__file__).resolve().parent.parent / "README.md"

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

# each submodule's __all__, in order; None where the module declares none
MODULE_NAMES = {
    "bench": [
        "ProfileCurve", "RunView", "run_matrix",
        "best_feasible_table", "reference_table", "data_profile",
        "feasibility_profile", "export",
    ],
    "cli": None,
    "history": [
        "Steps", "improvement_steps", "row_line", "read_row", "frame_line", "read_frame",
        "is_frame", "stop_line", "read_stop", "is_stop", "starts_run", "read_stop_line",
    ],
    "merit": ["merit", "compute_b_ext", "penalty_update_check", "violation_summary"],
    "mesh": ["update_frame", "poll_directions", "snap_steps", "initial_frame_size"],
    "problem": [
        "Problem", "Evaluation", "Cache", "evaluate", "is_feasible", "run_external",
        "ExternalEvaluator", "write_history", "read_history",
    ],
    "solver": [
        "MODE_PIP", "MODE_EXTREME_BARRIER", "SolverConfig", "RunRecord",
        "InitializationError", "solve", "check_run_invariants",
    ],
    "stream": ["Stream"],
    "suite": [
        "Instance", "builtin_problems", "builtin_problem", "DEFAULT_BENCH_NAMES",
        "initial_point", "make_instances", "load_problem_file",
    ],
}

MODULES = sorted(info.name for info in pkgutil.iter_modules(madspip.__path__))


def test_package_exports_exactly_the_pinned_names():
    assert madspip.__all__ == PACKAGE_NAMES
    for name in PACKAGE_NAMES:
        assert hasattr(madspip, name), name


def test_readme_lists_the_package_exports():
    # README's "The package exports N names: `a`, ..." sentence, count and names
    text = README.read_text(encoding="utf-8")
    match = re.search(r"The package exports (\d+) names: (.*?)\.\s", text, re.DOTALL)
    assert match, "README has no 'The package exports N names: ...' sentence"
    names = re.findall(r"`([^`]+)`", match.group(2))
    assert int(match.group(1)) == len(madspip.__all__)
    assert names == madspip.__all__


@pytest.mark.parametrize("module", MODULES)
def test_every_listed_name_resolves(module):
    mod = importlib.import_module(f"madspip.{module}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def test_every_module_is_pinned():
    assert sorted(MODULE_NAMES) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_exactly_the_pinned_names(module):
    mod = importlib.import_module(f"madspip.{module}")
    assert getattr(mod, "__all__", None) == MODULE_NAMES[module]


def test_solver_config_holds_only_what_callers_set():
    fields = tuple(f.name for f in dataclasses.fields(madspip.SolverConfig))
    assert fields == ("max_evaluations", "seed", "search_enabled", "mode")


@pytest.mark.parametrize("module", ["madspip"] + [f"madspip.{m}" for m in MODULES])
def test_tolerance_constants_stay_unexported(module):
    exported = set(getattr(importlib.import_module(module), "__all__", ()))
    assert exported.isdisjoint({"DELTA_STOP", "RHO0", "EPS_EXT"})
