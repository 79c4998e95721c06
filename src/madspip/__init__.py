"""Constrained derivative-free optimization by mesh adaptive direct search
on a penalty/log-barrier merit function, with a benchmark harness."""

from .merit import (
    MeritParams,
    Partition,
    ViolationSummary,
    c_ext,
    c_int,
    compute_b_ext,
    merit,
    penalty_update_check,
    phi_prox,
    violation_summary,
)
from .mesh import MeshState, poll_directions, update_frame
from .problem import Cache, Evaluation, ExternalEvaluator, Problem, evaluate, is_feasible, run_external
from .solver import (
    InitializationError,
    RunRecord,
    SolverConfig,
    check_run_invariants,
    solve,
)
from .suite import Instance, KnownOptimum, builtin_problems, load_problem_file, make_instances
from .bench import (
    ProfileCurve,
    convergence_index,
    data_profile,
    export,
    feasibility_profile,
    run_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "MeritParams",
    "Partition",
    "ViolationSummary",
    "phi_prox",
    "c_int",
    "c_ext",
    "merit",
    "compute_b_ext",
    "penalty_update_check",
    "violation_summary",
    "MeshState",
    "poll_directions",
    "update_frame",
    "Problem",
    "Evaluation",
    "Cache",
    "evaluate",
    "is_feasible",
    "run_external",
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
    "convergence_index",
    "data_profile",
    "feasibility_profile",
    "export",
]
