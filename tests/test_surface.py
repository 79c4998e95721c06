"""The package's public surface: the exported names and each submodule's
``__all__`` are pinned, and every module's ``__all__`` names something that
exists.  ``SolverConfig``'s fields are pinned too, and the tolerance constants
stay out of every ``__all__``, so a setting that grows back shows in a diff."""

import dataclasses
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

# each submodule's __all__, in order; None where the module declares none
MODULE_NAMES = {
    "bench": [
        "ProfileCurve", "RunView", "view_of_history", "run_matrix", "convergence_index",
        "feasibility_index", "best_feasible_table", "reference_table", "data_profile",
        "feasibility_profile", "export",
    ],
    "cli": None,
    "merit": [
        "Partition", "MeritParams", "phi_prox", "c_int", "c_ext", "merit", "compute_b_ext",
        "penalty_update_check", "violation_summary",
    ],
    "mesh": ["MeshState", "update_frame", "poll_directions", "snap_steps", "initial_frame_size"],
    "problem": [
        "Problem", "Evaluation", "Cache", "evaluate", "is_feasible", "run_external",
        "ExternalEvaluator", "write_history", "read_history",
    ],
    "solver": [
        "MODE_PIP", "MODE_EXTREME_BARRIER", "SolverConfig", "SolverState", "RunRecord",
        "InitializationError", "init_state", "iterate", "speculative_search",
        "reselect_incumbent", "solve", "check_run_invariants",
    ],
    "suite": [
        "KnownOptimum", "Instance", "builtin_problems", "builtin_problem", "DEFAULT_BENCH_NAMES",
        "initial_point", "x0_ids", "make_instances", "load_problem_file",
    ],
}

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
