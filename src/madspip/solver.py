"""Direct-search driver minimizing the penalty-barrier merit function.

Each iteration recomputes the mesh from the frame size, optionally proposes
one speculative search point (the last successful displacement, doubled and
snapped to the mesh), then polls 2n orthogonal directions opportunistically.
Any strict merit decrease is a success and grows the frame; otherwise the
frame shrinks and, when the shrunken frame is small against both the penalty
parameter and the squared proximity measure, ``rho`` is cut by ``theta_rho``
and the incumbent is re-selected from the cache under the new merit.
Exterior inequality constraints found strictly feasible at the incumbent
migrate to the interior (barrier) set, at most once per index per run.

``rho`` reductions and partition switches never happen in the same iteration:
the switch check is skipped whenever ``rho`` was just reduced, so the two
subproblem changes stay serialized.

The ``extreme-barrier`` mode runs the identical loop with the merit replaced
by ``f`` on feasible points and ``+inf`` elsewhere; it requires an
inequality-only problem and a feasible starting point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .merit import (
    MeritParams,
    Partition,
    ViolationSummary,
    compute_b_ext,
    merit,
    penalty_update_check,
    violation_summary,
)
from .mesh import MeshState, initial_frame_size, poll_directions, snap_steps, update_frame
from .problem import Cache, Evaluation, Problem, evaluate, history_row, is_feasible

__all__ = [
    "MODE_PIP",
    "MODE_EXTREME_BARRIER",
    "SolverConfig",
    "SolverState",
    "RunRecord",
    "InitializationError",
    "init_state",
    "iterate",
    "speculative_search",
    "reselect_incumbent",
    "solve",
    "check_run_invariants",
]

MODE_PIP = "pip"
MODE_EXTREME_BARRIER = "extreme-barrier"

_INF = math.inf


class InitializationError(Exception):
    """The run cannot start: bad starting point or inapplicable mode."""


@dataclass(frozen=True)
class SolverConfig:
    """Run controls: budget, tolerances, seed, mode and the search switch."""

    max_evaluations: int
    seed: int = 0
    delta_stop: float = 1e-9
    rho0: float = 1e-1
    rho_stop: float = 1e-12
    eps_ext: float = 1e-14
    search_enabled: bool = True
    mode: str = MODE_PIP

    def __post_init__(self):
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be at least 1")
        for name in ("delta_stop", "rho0", "rho_stop", "eps_ext"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.mode not in (MODE_PIP, MODE_EXTREME_BARRIER):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class RunRecord:
    """Everything observable about one run: per-evaluation rows, the rho and
    partition traces, a per-iteration trace, and summary fields."""

    problem_name: str
    x0_id: str
    seed: int
    mode: str
    n: int
    rows: List[dict] = field(default_factory=list)
    rho_trace: List[Tuple[int, float]] = field(default_factory=list)
    partition_trace: List[Tuple[int, int]] = field(default_factory=list)
    iterations: List[dict] = field(default_factory=list)
    outcome: str = "error"
    flags: List[str] = field(default_factory=list)
    params: Optional[dict] = None
    evals_used: int = 0
    best_feasible_f: Optional[float] = None
    final_rho: Optional[float] = None
    final_delta: Optional[float] = None

    @property
    def key(self) -> Tuple[str, str, int, str]:
        return (self.problem_name, self.x0_id, self.seed, self.mode)


@dataclass
class SolverState:
    problem: Problem
    config: SolverConfig
    cache: Cache
    rng: np.random.Generator
    mesh: MeshState
    record: RunRecord
    anchor: Tuple[float, ...]
    x_unit: float  # original-variable length of one delta0 unit
    # Offsets from the anchor are integers in units of 2**-lattice_bits
    # delta0 units, fine enough for every mesh an iteration can use.
    lattice_bits: int
    q_incumbent: Tuple[int, ...]
    incumbent: Evaluation
    incumbent_summary: ViolationSummary
    partition: Optional[Partition] = None
    merit_params: Optional[MeritParams] = None
    iteration: int = 0
    last_success_offset: Optional[Tuple[int, ...]] = None
    partition_version: int = 0
    # pip mode: each cached key's (phi_prox, c_int, c_ext) under the current
    # partition, as plain float tuples, which the cyclic GC stops tracking
    kept: Dict[Tuple[int, ...], Tuple[float, float, float]] = field(default_factory=dict)

    @property
    def pip(self) -> bool:
        return self.config.mode == MODE_PIP

    @property
    def incumbent_merit(self) -> float:
        return self.incumbent_summary.merit

    @property
    def mesh_step(self) -> int:
        """Mesh size in lattice units."""
        shift = self.lattice_bits + self.mesh.mesh_exp
        if shift < 0:
            raise ValueError(
                f"mesh 2**{self.mesh.mesh_exp} is finer than the lattice 2**-{self.lattice_bits}"
            )
        return 1 << shift


def _summary_of(
    state: SolverState, key: Tuple[int, ...], evaluation: Evaluation
) -> ViolationSummary:
    """Summary of the cached ``key`` under the current partition and ``rho``.

    In pip mode the violation terms are computed once per key and partition
    and kept; kept terms are only re-priced.  In extreme-barrier mode only
    the merit is set: ``f`` on feasible points, ``+inf`` elsewhere.
    """
    if not state.pip:
        value = evaluation.f if is_feasible(evaluation) else _INF
        return ViolationSummary(phi_prox=None, c_int=None, c_ext=None, merit=value)
    kept = state.kept.get(key)
    if kept is None:
        summary = violation_summary(
            evaluation.f,
            evaluation.g,
            evaluation.h,
            state.partition,
            state.merit_params,
            failed=evaluation.failed,
        )
        state.kept[key] = (summary.phi_prox, summary.c_int, summary.c_ext)
        return summary
    phi, cint, cext = kept
    return ViolationSummary(phi, cint, cext, merit(evaluation.f, cint, cext, state.merit_params))


def _lattice_bits(delta0: float, delta_stop: float) -> int:
    """Bits below ``delta0`` needed by the finest mesh an iteration can use.

    Iterations run only while ``delta_frame >= delta_stop``; at the lowest
    such frame exponent ``e`` the mesh exponent is ``2 * e``.
    """
    exp = 0
    while math.ldexp(delta0, exp - 1) >= delta_stop:
        exp -= 1
    return -2 * exp


def _point_of(state: SolverState, q: Sequence[int]) -> Tuple[float, ...]:
    unit = state.x_unit
    scale = 1 << state.lattice_bits
    # int / int is correctly rounded: one rounding away from the exact offset
    return tuple(a + unit * (qi / scale) for a, qi in zip(state.anchor, q))


def _append_row(
    state: SolverState,
    *,
    evaluation: Optional[Evaluation],
    summary: Optional[ViolationSummary],
    x: Sequence[float],
    status: str,
    incumbent: bool,
    delta_frame: float,
) -> None:
    cint = cext = rho = None
    f = g = h = None
    eval_index = None
    if evaluation is not None:
        f, g, h, eval_index = evaluation.f, evaluation.g, evaluation.h, evaluation.eval_index
        cint, cext = summary.c_int, summary.c_ext
    if state.pip:
        rho = state.merit_params.rho
    state.record.rows.append(
        history_row(
            eval_index=eval_index,
            x=x,
            f=f,
            g=g,
            h=h,
            cint=cint,
            cext=cext,
            rho=rho,
            delta_frame=delta_frame,
            incumbent=incumbent,
            iteration=state.iteration,
            status=status,
        )
    )


def init_state(problem: Problem, x0: Sequence[float], config: SolverConfig) -> SolverState:
    """Evaluate the starting point and set up partition, scalings and mesh.

    In pip mode the inequality indices strictly inside by ``eps_ext`` seed
    the interior set and the exterior scaling comes from ``|f(x0)|``; a
    failed starting evaluation is an initialization error.  Extreme-barrier
    mode additionally requires ``p == 0`` and a feasible ``x0``.
    """
    if len(x0) != problem.n:
        raise InitializationError(
            f"x0 has length {len(x0)}, problem {problem.name!r} needs {problem.n}"
        )
    x0 = tuple(float(v) for v in x0)
    if not problem.contains(x0):
        raise InitializationError("x0 violates the bound constraints")
    if config.mode == MODE_EXTREME_BARRIER and problem.p != 0:
        raise InitializationError(
            "extreme-barrier mode handles inequality constraints only (p must be 0)"
        )

    # The mesh works in scaled units when bounds are available: one tenth of
    # the (geometric-mean) coordinate span maps to a frame size of 10, the
    # customary scaled-variable setup for this family of solvers.  All
    # criterion and stopping thresholds compare against this scaled frame
    # size; evaluation points are mapped back to original coordinates.
    x_unit = initial_frame_size(problem.bounds)
    mesh = MeshState(10.0 if problem.bounds is not None else x_unit)
    cache = Cache()
    rng = np.random.default_rng(config.seed)
    q0 = (0,) * problem.n
    ev0 = evaluate(problem, x0, cache, key=q0)

    record = RunRecord(
        problem_name=problem.name,
        x0_id="x0",
        seed=config.seed,
        mode=config.mode,
        n=problem.n,
    )

    state = SolverState(
        problem=problem,
        config=config,
        cache=cache,
        rng=rng,
        mesh=mesh,
        record=record,
        anchor=x0,
        x_unit=x_unit,
        lattice_bits=_lattice_bits(mesh.delta0, config.delta_stop),
        q_incumbent=q0,
        incumbent=ev0,
        incumbent_summary=None,
    )

    if config.mode == MODE_PIP:
        if ev0.failed or not math.isfinite(ev0.f):
            raise InitializationError(
                "starting evaluation failed; the exterior scaling needs a finite f(x0)"
            )
        state.partition = Partition.from_initial(ev0.g, config.eps_ext)
        state.merit_params = MeritParams(rho=config.rho0, b_ext=compute_b_ext(ev0.f))
        record.params = {
            "rho0": config.rho0,
            "theta_rho": state.merit_params.theta_rho,
            "beta": state.merit_params.beta,
            "b_rho": state.merit_params.b_rho,
            "b_c": state.merit_params.b_c,
            "b_int": state.merit_params.b_int,
            "b_ext": state.merit_params.b_ext,
            "eps_ext": config.eps_ext,
            "m": problem.m,
        }
    else:
        if ev0.failed:
            raise InitializationError("starting evaluation failed")
        if not is_feasible(ev0):
            raise InitializationError("extreme-barrier mode needs a feasible starting point")

    state.incumbent_summary = _summary_of(state, q0, ev0)
    _append_row(
        state,
        evaluation=ev0,
        summary=state.incumbent_summary,
        x=x0,
        status="unsuccessful",
        incumbent=True,
        delta_frame=mesh.delta_frame,
    )
    return state


def speculative_search(state: SolverState) -> Optional[Tuple[int, ...]]:
    """Candidate doubling the last successful displacement, on the mesh.

    Nothing is proposed without a prior success, when the snapped point
    collapses onto the incumbent, leaves the bounds, or is already cached.
    """
    offset = state.last_success_offset
    if offset is None:
        return None
    mesh_step = state.mesh_step
    steps = snap_steps(tuple(2 * q for q in offset), mesh_step)
    if all(s == 0 for s in steps):
        return None
    q = tuple(qi + mesh_step * s for qi, s in zip(state.q_incumbent, steps))
    if not state.problem.contains(_point_of(state, q)):
        return None
    if q in state.cache:
        return None
    return q


def reselect_incumbent(state: SolverState) -> SolverState:
    """Re-pick the incumbent as the cache-wide merit minimizer.

    Called after ``rho`` or the partition changed (a partition move first
    drops ``state.kept``).  Kept violation terms are only re-priced under the
    new ``rho``; keys without them are summarized afresh.  Ties go to the
    earliest evaluation; if every cached point has infinite merit the
    incumbent is kept and the run is flagged.
    """
    params = state.merit_params
    best_key = None
    best_merit = _INF
    for key, ev in state.cache.entries.items():  # insertion order = eval order
        kept = state.kept.get(key)
        if kept is None:  # the partition moved
            _summary_of(state, key, ev)
            kept = state.kept[key]
        _, cint, cext = kept
        value = merit(ev.f, cint, cext, params)
        if value < best_merit:
            best_key, best_merit = key, value
    if best_key is None:
        state.record.flags.append("reselection-found-no-finite-merit")
        state.incumbent_summary = _summary_of(state, state.q_incumbent, state.incumbent)
        return state
    state.q_incumbent = best_key
    state.incumbent = state.cache.entries[best_key]
    state.incumbent_summary = ViolationSummary(*state.kept[best_key], best_merit)
    return state


def _try_candidate(state: SolverState, q: Tuple[int, ...], kind: str):
    """Evaluate one trial point. Returns (verdict, evaluation, summary) with
    verdict in {"accepted", "rejected", "nobudget"}."""
    x = _point_of(state, q)
    delta_frame = state.mesh.delta_frame
    if not state.problem.contains(x):
        _append_row(
            state,
            evaluation=None,
            summary=None,
            x=x,
            status="rejected-bounds",
            incumbent=False,
            delta_frame=delta_frame,
        )
        return "rejected", None, None
    hit = state.cache.get(q)
    if hit is None:
        if state.cache.eval_count >= state.config.max_evaluations:
            return "nobudget", None, None
        ev = evaluate(state.problem, x, state.cache, key=q)
        fresh = True
    else:
        ev, fresh = hit, False
    summary = _summary_of(state, q, ev)
    improving = summary.merit < state.incumbent_merit
    if improving:
        status = "search-success" if kind == "search" else "poll-success"
    elif not fresh:
        status = "cache-hit"
    elif ev.failed:
        status = "failed"
    else:
        status = "unsuccessful"
    _append_row(
        state,
        evaluation=ev,
        summary=summary,
        x=x,
        status=status,
        incumbent=improving,
        delta_frame=delta_frame,
    )
    return ("accepted" if improving else "rejected"), ev, summary


def iterate(state: SolverState) -> str:
    """Run one full iteration; returns "successful", "unsuccessful" or
    "budget" when the evaluation budget ran out mid-iteration."""
    state.iteration += 1
    it = state.iteration
    delta_k = state.mesh.delta_frame
    rho_before = state.merit_params.rho if state.pip else None
    q_center = state.q_incumbent
    success_kind = None

    if state.config.search_enabled:
        q = speculative_search(state)
        if q is not None:
            verdict, ev, summary = _try_candidate(state, q, kind="search")
            if verdict == "nobudget":
                return "budget"
            if verdict == "accepted":
                success_kind, accepted = "search", (q, ev, summary)

    if success_kind is None:
        mesh_step = state.mesh_step
        for steps in poll_directions(state.problem.n, state.mesh, state.rng):
            q = tuple(qi + mesh_step * s for qi, s in zip(q_center, steps))
            verdict, ev, summary = _try_candidate(state, q, kind="poll")
            if verdict == "nobudget":
                return "budget"
            if verdict == "accepted":
                success_kind, accepted = "poll", (q, ev, summary)
                break

    success = success_kind is not None
    if success:
        state.q_incumbent, state.incumbent, state.incumbent_summary = accepted
        state.last_success_offset = tuple(
            a - b for a, b in zip(state.q_incumbent, q_center)
        )
    state.mesh = update_frame(state.mesh, success)
    delta_next = state.mesh.delta_frame

    rho_reduced = False
    phi = None
    if state.pip and not success:
        phi = state.incumbent_summary.phi_prox if state.partition.g_int else None
        if penalty_update_check(delta_next, phi, state.merit_params):
            new_rho = state.merit_params.rho * state.merit_params.theta_rho
            state.merit_params = replace(state.merit_params, rho=new_rho)
            state.record.rho_trace.append((it, new_rho))
            rho_reduced = True
            reselect_incumbent(state)

    moved: List[int] = []
    if state.pip and not rho_reduced and not state.incumbent.failed:
        g = state.incumbent.g
        moved = sorted(
            i for i in state.partition.g_ext if g[i] <= -state.config.eps_ext
        )
        if moved:
            state.partition = state.partition.moved_to_interior(moved)
            state.partition_version += 1
            state.kept.clear()
            state.record.partition_trace.extend((it, i) for i in moved)
            reselect_incumbent(state)

    state.record.iterations.append(
        {
            "iteration": it,
            "success": success,
            "kind": success_kind,
            "incumbent_eval_index": state.incumbent.eval_index,
            "incumbent_merit": state.incumbent_merit,
            "incumbent_cint": state.incumbent_summary.c_int,
            "rho_before": rho_before,
            "rho": state.merit_params.rho if state.pip else None,
            "rho_reduced": rho_reduced,
            "delta_frame": delta_k,
            "delta_next": delta_next,
            "phi_prox": phi,
            "partition_moved": moved,
            "partition_version": state.partition_version,
        }
    )
    return "successful" if success else "unsuccessful"


def _finalize(state: SolverState, outcome: str) -> RunRecord:
    record = state.record
    record.outcome = outcome
    record.evals_used = state.cache.eval_count
    record.final_delta = state.mesh.delta_frame
    record.final_rho = state.merit_params.rho if state.pip else None
    best_f = None
    for ev in state.cache.entries.values():
        if is_feasible(ev) and (best_f is None or ev.f < best_f):
            best_f = ev.f
    record.best_feasible_f = best_f
    return record


def solve(
    problem: Problem,
    x0: Sequence[float],
    config: SolverConfig,
    x0_id: str = "x0",
) -> RunRecord:
    """Run to budget exhaustion or convergence; deterministic in the seed.

    Stops when the budget is spent (``budget-exhausted``), the frame size
    falls below ``delta_stop`` (``delta-converged``), or in pip mode ``rho``
    falls below ``rho_stop`` (``rho-converged``).
    """
    state = init_state(problem, x0, config)
    state.record.x0_id = x0_id
    while True:
        if state.cache.eval_count >= config.max_evaluations:
            outcome = "budget-exhausted"
            break
        if state.mesh.delta_frame < config.delta_stop:
            outcome = "delta-converged"
            break
        if state.pip and state.merit_params.rho < config.rho_stop:
            outcome = "rho-converged"
            break
        if iterate(state) == "budget":
            outcome = "budget-exhausted"
            break
    return _finalize(state, outcome)


def error_record(
    problem_name: str, x0_id: str, seed: int, mode: str, n: int, message: str
) -> RunRecord:
    """Record for a run that could not start."""
    rec = RunRecord(problem_name=problem_name, x0_id=x0_id, seed=seed, mode=mode, n=n)
    rec.flags.append(message)
    return rec


def _spans(iterations: Sequence[dict]):
    """Group iteration-trace entries into maximal spans of constant
    (rho, partition_version)."""
    spans = []
    current = []
    current_key = None
    for entry in iterations:
        key = (entry["rho"], entry["partition_version"])
        if key != current_key:
            if current:
                spans.append(current)
            current, current_key = [], key
        current.append(entry)
    if current:
        spans.append(current)
    return spans


def check_run_invariants(record: RunRecord):
    """Replay the recorded run against the convergence-theory properties.

    Returns ``(violations, warnings)``.  Violations cover: the rho trace
    shrinking by exactly ``theta_rho`` and only at unsuccessful iterations;
    the frame-size criterion holding at every rho reduction (exact replay of
    the relaxed bound); the incumbent staying strictly interior; incumbent
    merit non-increasing within constant-(rho, partition) spans and strictly
    decreasing exactly at successes; partition moves one-directional, at most
    m total, and never sharing an iteration with a rho reduction.  The
    late-run frame-feasibility property is asymptotic, so its failures are
    reported as warnings, not violations.
    """
    violations: List[str] = []
    warnings: List[str] = []
    if record.mode != MODE_PIP or record.params is None:
        return violations, warnings
    params = record.params
    theta_rho = params["theta_rho"]

    # (a) rho trace: strictly decreasing by the exact contraction factor
    prev = params["rho0"]
    for it, value in record.rho_trace:
        expected = prev * theta_rho
        if value != expected:
            violations.append(
                f"rho at iteration {it} is {value!r}, expected {expected!r}"
            )
        prev = value

    by_iteration = {entry["iteration"]: entry for entry in record.iterations}

    # (b) criterion replay at each reduction; reductions only on failures
    for it, _ in record.rho_trace:
        entry = by_iteration.get(it)
        if entry is None:
            violations.append(f"rho reduction at {it} has no iteration entry")
            continue
        if entry["success"]:
            violations.append(f"rho reduced at successful iteration {it}")
        phi = entry["phi_prox"]
        bound = params["b_rho"] * entry["rho_before"] ** params["beta"]
        if phi is not None:
            bound = min(bound, params["b_c"] * phi * phi)
        if not entry["delta_next"] <= bound:
            violations.append(
                f"iteration {it}: delta_next {entry['delta_next']!r} exceeds criterion bound {bound!r}"
            )

    # (c) strict interior incumbent at every iteration
    for entry in record.iterations:
        if not entry["incumbent_cint"] < 0.0:
            violations.append(
                f"iteration {entry['iteration']}: incumbent c_int {entry['incumbent_cint']!r} not negative"
            )

    # (d) merit monotone within constant-(rho, partition) spans
    for span in _spans(record.iterations):
        for before, after in zip(span, span[1:]):
            if after["success"]:
                if not after["incumbent_merit"] < before["incumbent_merit"]:
                    violations.append(
                        f"iteration {after['iteration']}: successful but merit did not strictly decrease"
                    )
            elif after["incumbent_merit"] > before["incumbent_merit"]:
                violations.append(
                    f"iteration {after['iteration']}: merit increased within a constant span"
                )

    # (e) partition moves: bounded, one-directional, never with a rho cut
    if len(record.partition_trace) > params["m"]:
        violations.append(
            f"{len(record.partition_trace)} partition moves exceed the {params['m']} inequality constraints"
        )
    moved_indices = [i for _, i in record.partition_trace]
    if len(moved_indices) != len(set(moved_indices)):
        violations.append("an inequality index moved to the interior set twice")
    reduction_iterations = {it for it, _ in record.rho_trace}
    for it, idx in record.partition_trace:
        if it in reduction_iterations:
            violations.append(
                f"iteration {it}: partition switch and rho reduction in the same iteration"
            )

    # Late-run frame feasibility (asymptotic: log only)
    if record.rho_trace and record.iterations:
        last_quarter = record.iterations[-1]["iteration"] * 3 / 4
        rows_by_iter = {}
        for row in record.rows:
            rows_by_iter.setdefault(row["iteration"], []).append(row)
        for it, _ in record.rho_trace:
            if it < last_quarter:
                continue
            for row in rows_by_iter.get(it, []):
                cint = row.get("cint")
                if cint is not None and not cint < 0.0:
                    warnings.append(
                        f"iteration {it}: evaluated frame point with c_int {cint!r} (late-run frame not strictly interior)"
                    )
    return violations, warnings


def summary_line(record: RunRecord) -> str:
    """One human-readable line per run for console output."""
    best = "none" if record.best_feasible_f is None else f"{record.best_feasible_f:.10g}"
    rho = "-" if record.final_rho is None else f"{record.final_rho:.3g}"
    delta = "-" if record.final_delta is None else f"{record.final_delta:.3g}"
    return (
        f"problem={record.problem_name} x0={record.x0_id} seed={record.seed} "
        f"mode={record.mode} evals={record.evals_used} best_feasible_f={best} "
        f"rho={rho} delta={delta} outcome={record.outcome}"
    )
