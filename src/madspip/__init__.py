"""Constrained derivative-free optimization by mesh adaptive direct search
on a penalty/log-barrier merit function, with a benchmark harness.

The package exports what a caller needs to define problems, solve them and
benchmark the runs; solver, merit and mesh internals are imported from their
submodules (``madspip.merit``, ``madspip.mesh``, ``madspip.problem``, ...)."""

from .problem import Evaluation, ExternalEvaluator, Problem, is_feasible
from .solver import InitializationError, RunRecord, SolverConfig, check_run_invariants, solve
from .suite import Instance, builtin_problems, load_problem_file, make_instances
from .bench import ProfileCurve, data_profile, export, feasibility_profile, run_matrix

__version__ = "0.1.0"

__all__ = [
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
