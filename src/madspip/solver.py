"""Direct-search driver minimizing the penalty-barrier merit function.

Each iteration recomputes the mesh from the frame size, optionally proposes
one speculative search point (the last successful displacement, doubled and
snapped to the mesh), then polls 2n orthogonal directions opportunistically.
Any strict merit decrease is a success and grows the frame; otherwise the
frame shrinks and, when the shrunken frame is small against both the penalty
parameter and the squared proximity measure, ``rho`` is cut by
``merit.THETA_RHO`` and the incumbent is re-selected from the cache under the
new merit.  Exterior inequality constraints found strictly feasible at the
incumbent migrate to the interior (barrier) set, at most once per index per
run.  A point's violation terms ``(phi_prox, c_int, c_ext)`` are computed
once per partition and kept in ``SolverState.kept``; a ``rho`` cut only
re-prices them.

``rho`` reductions and partition switches never happen in the same iteration:
the switch check is skipped whenever ``rho`` was just reduced, so the two
subproblem changes stay serialized.

A run's record is one event stream, ``RunRecord.events``: each frame, the
state an iteration is priced under, followed by that iteration's rows, and
last the stop line that :func:`solve` appends, each line as
:mod:`madspip.history` writes it.  The events are the run's history as
written, and :func:`check_run_invariants` replays a record, or a history
read back, from them alone, through the history's readers.

The ``extreme-barrier`` mode runs the identical loop with the merit replaced
by ``f`` on feasible points and ``+inf`` elsewhere; it requires an
inequality-only problem and a feasible starting point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .history import (
    Steps, frame_line, improvement_steps, is_frame, is_stop, read_frame, read_row, read_stop, row_line,
    starts_run, stop_line,
)
from .merit import (
    B_C,
    B_RHO,
    BETA,
    EPS_EXT,
    RHO0,
    THETA_RHO,
    compute_b_ext,
    merit,
    penalty_update_check,
    violation_summary,
)
from .mesh import initial_frame_size, mesh_exp, poll_directions, snap_steps, update_frame
from .problem import Cache, Evaluation, Problem, evaluate, is_feasible
from .suite import is_builtin

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MODE_PIP",
    "MODE_EXTREME_BARRIER",
    "SolverConfig",
    "RunRecord",
    "InitializationError",
    "solve",
    "check_run_invariants",
]

MODE_PIP = "pip"
MODE_EXTREME_BARRIER = "extreme-barrier"

_INF = math.inf

#: A run stops once its frame size falls below this.
DELTA_STOP = 1e-9


class InitializationError(Exception):
    """The run cannot start: bad starting point or inapplicable mode."""


@dataclass(frozen=True)
class SolverConfig:
    """Run controls: budget, seed, the search switch and mode.  Tolerances
    are module constants (``DELTA_STOP``, ``merit.RHO0``, ``merit.EPS_EXT``)."""

    max_evaluations: int
    seed: int = 0
    search_enabled: bool = True
    mode: str = MODE_PIP

    def __post_init__(self):
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be at least 1")
        if self.mode not in (MODE_PIP, MODE_EXTREME_BARRIER):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")


@dataclass
class RunRecord:
    """Everything observable about one run: its event stream.  ``events``
    holds the run's frames and rows (:mod:`madspip.history`) in the order
    the run made them, frame 0, the start row, frame 1, iteration 1's rows
    and so on, then the stop line: the run's history as written, so
    ``RunRecord(*key, n, events=read_history(path))`` is the run again.
    Every other attribute is a view of them; ``outcome``, ``evals_used`` and
    ``steps`` are the stop line's fields as :func:`read_stop` reads them, and
    without a stop line it accepts, as in an error record, ``"error"``, 0
    and ``()``."""

    problem_name: str
    x0_id: str
    seed: int
    mode: str
    n: int
    events: List[dict] = field(default_factory=list)
    flags: List[str] = field(default_factory=list)

    @property
    def key(self) -> Tuple[str, str, int, str]:
        return (self.problem_name, self.x0_id, self.seed, self.mode)

    @property
    def _stop(self) -> Tuple[str, int, int, Steps, Optional[bool]]:
        try:
            return read_stop(self.events[-1] if self.events else None)
        except ValueError:
            return "error", self.n, 0, (), None

    @property
    def outcome(self) -> str:
        return self._stop[0]

    @property
    def evals_used(self) -> int:
        return self._stop[2]

    @property
    def steps(self) -> Steps:
        return self._stop[3]

    @property
    def best_feasible_f(self) -> Optional[float]:
        return self.steps[-1][1] if self.steps else None

    @property
    def rows(self) -> Tuple[dict, ...]:
        """The objects of ``events`` that are neither a frame nor the stop line."""
        return tuple(e for e in self.events if isinstance(e, dict) and not (is_frame(e) or is_stop(e)))

    @property
    def frames(self) -> Tuple[dict, ...]:
        """The frames of ``events``; ``frames[k]`` is frame ``k``."""
        return tuple(event for event in self.events if is_frame(event))

    def _changes(self):
        """``(k, frame k, frame k + 1)`` per iteration ``k`` that left a frame,
        each frame as :func:`read_frame` reads it or refuses it."""
        frames = [read_frame(frame, self.mode == MODE_PIP) for frame in self.frames]
        return [(k, before, after) for k, (before, after) in enumerate(zip(frames[1:], frames[2:]), 1)]

    @property
    def rho_trace(self) -> List[Tuple[int, float]]:
        """``(iteration, new rho)`` for each iteration that cut ``rho``."""
        return [(k, after[1]) for k, before, after in self._changes() if after[1] != before[1]]

    @property
    def partition_trace(self) -> List[Tuple[int, int]]:
        """``(iteration, index)`` for each inequality moved to the interior set."""
        # after[3] is None outside pip mode
        return [(k, i) for k, before, after in self._changes() for i in after[3] or () if i not in before[3]]


@dataclass
class SolverState:
    problem: Problem
    config: SolverConfig
    cache: Cache
    rng: np.random.Generator
    delta0: float  # the frame size of exponent 0: 10 with bounds, 1 without
    record: RunRecord
    anchor: Tuple[float, ...]
    x_unit: float  # original-variable length of one delta0 unit
    # Offsets from the anchor are integers in units of 2**-lattice_bits
    # delta0 units, fine enough for every mesh an iteration can use.
    lattice_bits: int
    q_incumbent: Tuple[int, ...]  # the incumbent's cache key
    incumbent_merit: float = _INF
    frame_exp: int = 0  # delta_frame = delta0 * 2**frame_exp
    # pip mode: the interior set, rho and the exterior scaling; None otherwise
    g_int: Optional[Tuple[int, ...]] = None
    rho: Optional[float] = None
    b_ext: Optional[float] = None
    iteration: int = 0
    last_success_offset: Optional[Tuple[int, ...]] = None
    # pip mode: each cached key's (phi_prox, c_int, c_ext) under the current
    # g_int, as plain float tuples, which the cyclic GC stops tracking
    kept: Dict[Tuple[int, ...], Tuple[float, float, float]] = field(default_factory=dict)
    pip: bool = field(init=False)
    lattice_scale: float = field(init=False)  # 2**-lattice_bits

    def __post_init__(self):
        self.pip = self.config.mode == MODE_PIP
        self.lattice_scale = math.ldexp(1.0, -self.lattice_bits)

    @property
    def delta_frame(self) -> float:
        return math.ldexp(self.delta0, self.frame_exp)

    @property
    def mesh_step(self) -> int:
        """Mesh size in lattice units."""
        shift = self.lattice_bits + mesh_exp(self.frame_exp)
        if shift < 0:
            raise ValueError(
                f"mesh 2**{mesh_exp(self.frame_exp)} is finer than the lattice 2**-{self.lattice_bits}"
            )
        return 1 << shift


def _merit_of(state: SolverState, key: Tuple[int, ...], evaluation: Evaluation) -> float:
    """Merit of the cached ``key`` under the current ``g_int`` and ``rho``.

    In pip mode the violation terms are computed once per key and ``g_int``
    and kept in ``state.kept``; kept terms are only re-priced.  In
    extreme-barrier mode the merit is ``f`` on feasible points, ``+inf``
    elsewhere.
    """
    kept = state.kept.get(key)  # never set in extreme-barrier mode
    if kept is not None:
        return merit(evaluation.f, kept[1], kept[2], state.rho, state.b_ext)
    if not state.pip:
        return evaluation.f if is_feasible(evaluation) else _INF
    terms = violation_summary(evaluation.g, evaluation.h, state.g_int, evaluation.failed)
    state.kept[key] = terms
    return merit(evaluation.f, terms[1], terms[2], state.rho, state.b_ext)


def _lattice_bits(delta0: float) -> int:
    """Bits below ``delta0`` needed by the finest mesh an iteration can use.

    Iterations run only while ``delta_frame >= DELTA_STOP``; at the lowest
    such frame exponent ``e`` the mesh exponent is ``2 * e``.  That is 58
    bits for ``delta0 = 1`` and 66 for ``delta0 = 10``, far from the 2**-1022
    normal-float bound below which ``_point_of``'s scaling stops being exact.
    """
    exp = 0
    while math.ldexp(delta0, exp - 1) >= DELTA_STOP:
        exp -= 1
    return -2 * exp


def _point_of(state: SolverState, q: Sequence[int]) -> List[float]:
    """Original coordinates of the lattice point ``q``."""
    unit = state.x_unit
    scale = state.lattice_scale
    # qi * scale is the exact offset qi / 2**lattice_bits rounded once:
    # float(qi) rounds, and the power-of-two scale is exact in normal range
    return [a + unit * (qi * scale) for a, qi in zip(state.anchor, q)]


def _frame(state: SolverState, k: int) -> dict:
    """Frame ``k`` (:func:`madspip.history.frame_line`) of ``state``."""
    return frame_line(k, state.rho, state.delta_frame, state.g_int)


def init_state(problem: Problem, x0: Sequence[float], config: SolverConfig) -> SolverState:
    """Evaluate the starting point and set up the interior set, scalings and frame.

    In pip mode the inequality indices strictly inside by ``merit.EPS_EXT``
    seed the interior set, ``rho`` starts at ``merit.RHO0`` and the exterior
    scaling comes from ``|f(x0)|``; a failed starting evaluation is an
    initialization error.  Extreme-barrier mode additionally requires
    ``p == 0`` and a feasible ``x0``.
    """
    if len(x0) != problem.n:
        raise InitializationError(
            f"x0 has length {len(x0)}, problem {problem.name!r} needs {problem.n}"
        )
    x0 = tuple(map(float, x0))
    if not all(map(math.isfinite, x0)):
        raise InitializationError(f"x0 {x0!r} is not finite")
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
    delta0 = 10.0 if problem.bounds is not None else 1.0
    lattice_bits = _lattice_bits(delta0)
    cache = Cache()
    import numpy as np  # only the poll directions' random stream needs it
    rng = np.random.default_rng(config.seed)
    q0 = (0,) * problem.n
    ev0 = evaluate(problem, x0, cache, key=q0)

    record = RunRecord(problem.name, "x0", config.seed, config.mode, problem.n)

    state = SolverState(
        problem=problem,
        config=config,
        cache=cache,
        rng=rng,
        delta0=delta0,
        record=record,
        anchor=x0,
        x_unit=x_unit,
        lattice_bits=lattice_bits,
        q_incumbent=q0,
    )

    if ev0.failed:  # only a failed evaluation has a non-finite f
        raise InitializationError("starting evaluation failed")
    if config.mode == MODE_PIP:
        state.g_int = tuple([i for i, v in enumerate(ev0.g) if v <= -EPS_EXT])
        state.rho, state.b_ext = RHO0, compute_b_ext(ev0.f)
    elif not is_feasible(ev0):
        raise InitializationError("extreme-barrier mode needs a feasible starting point")

    state.incumbent_merit = _merit_of(state, q0, ev0)
    record.events += [_frame(state, 0), row_line(ev0, ev0.point, "unsuccessful"), _frame(state, 1)]
    return state


def speculative_search(state: SolverState) -> Optional[Tuple[Tuple[int, ...], List[float]]]:
    """Candidate doubling the last successful displacement, on the mesh, as
    its lattice point and mapped point ``(q, x)``.

    Nothing is proposed without a prior success, when the point leaves the
    bounds, or when it is cached, as the incumbent always is: a step that
    snaps to zero proposes nothing.
    """
    offset = state.last_success_offset
    if offset is None:
        return None
    mesh_step = state.mesh_step
    steps = snap_steps([2 * q for q in offset], mesh_step)
    q = tuple([qi + mesh_step * s for qi, s in zip(state.q_incumbent, steps)])
    x = _point_of(state, q)
    if not state.problem.contains(x):
        return None
    if q in state.cache:
        return None
    return q, x


def reselect_incumbent(state: SolverState) -> None:
    """Re-pick the incumbent as the cache-wide merit minimizer.

    Called after ``rho`` or ``g_int`` changed (a partition move first
    drops ``state.kept``).  Kept violation terms are only re-priced under the
    new ``rho``; keys without them are summarized afresh.  Ties go to the
    earliest evaluation; if every cached point has infinite merit, the
    incumbent's among them, the incumbent is kept and the run is flagged.
    """
    best_key = None
    best_merit = _INF
    for key, ev in state.cache.entries.items():  # insertion order = eval order
        value = _merit_of(state, key, ev)
        if value < best_merit:
            best_key, best_merit = key, value
    if best_key is None:
        state.record.flags.append("reselection-found-no-finite-merit")
    else:
        state.q_incumbent = best_key
    state.incumbent_merit = best_merit


def _try_candidate(
    state: SolverState, q: Tuple[int, ...], kind: str, x: Optional[List[float]] = None
):
    """Evaluate one trial point and install it as the incumbent when its
    merit strictly improves.  Returns ``(accepted, evaluation, merit)``;
    ``accepted`` is ``None`` when the budget is spent.  A given ``x`` is the
    point ``q`` already mapped and inside the bounds."""
    if x is None:
        x = _point_of(state, q)
        if not state.problem.contains(x):
            state.record.events.append(row_line(None, tuple(x), "rejected-bounds"))
            return False, None, None
    cache = state.cache
    count = len(cache.entries)
    if count >= state.config.max_evaluations and q not in cache:
        return None, None, None
    # evaluate's cache lookup is the only one: a cached point comes back
    # as stored, and only a fresh one grows the cache
    ev = evaluate(state.problem, x, cache, key=q)
    fresh = len(cache.entries) > count
    value = _merit_of(state, q, ev)
    improving = value < state.incumbent_merit
    if improving:
        status = "search-success" if kind == "search" else "poll-success"
        state.q_incumbent, state.incumbent_merit = q, value
    elif not fresh:
        status = "cache-hit"
    elif ev.failed:
        status = "failed"
    else:
        status = "unsuccessful"
    state.record.events.append(row_line(ev, ev.point, status))
    return improving, ev, value


def iterate(state: SolverState) -> None:
    """Run one full iteration and append the frame it leaves.  When the
    budget runs out mid-iteration it returns at once, without one; ``solve``
    then stops the run."""
    state.iteration += 1
    q_center = state.q_incumbent
    success = False

    if state.config.search_enabled:
        proposed = speculative_search(state)
        if proposed is not None:
            q, x = proposed
            success = _try_candidate(state, q, kind="search", x=x)[0]
            if success is None:
                return

    if not success:
        mesh_step = state.mesh_step
        for steps in poll_directions(state.problem.n, state.frame_exp, state.rng):
            q = tuple([qi + mesh_step * s for qi, s in zip(q_center, steps)])
            success = _try_candidate(state, q, kind="poll")[0]
            if success is None:
                return
            if success:
                break

    if success:
        state.last_success_offset = tuple([a - b for a, b in zip(state.q_incumbent, q_center)])
    state.frame_exp = update_frame(state.frame_exp, success)

    # a rho cut, on the incumbent's phi_prox, or else a partition move
    incumbent = state.cache.entries[state.q_incumbent]
    if state.pip and not success and penalty_update_check(
        state.delta_frame, state.kept[state.q_incumbent][0], state.rho
    ):
        state.rho *= THETA_RHO
        reselect_incumbent(state)
    elif state.pip and not incumbent.failed:
        g_int = state.g_int
        moved = tuple([i for i, v in enumerate(incumbent.g) if i not in g_int and v <= -EPS_EXT])
        if moved:
            state.g_int = tuple(sorted(g_int + moved))
            state.kept.clear()
            reselect_incumbent(state)

    state.record.events.append(_frame(state, state.iteration + 1))


def solve(
    problem: Problem,
    x0: Sequence[float],
    config: SolverConfig,
    x0_id: str = "x0",
) -> RunRecord:
    """Run to budget exhaustion or convergence; deterministic in the seed.

    Stops when the budget is spent (``budget-exhausted``) or the frame size
    falls below ``DELTA_STOP`` (``delta-converged``).  ``rho`` needs no stop
    of its own: a cut needs the next frame at most ``B_RHO * rho**BETA``, and
    that frame is at least ``DELTA_STOP / 2``, so ``rho`` never falls below
    ``RHO0 * THETA_RHO**5 = 1e-11``.  The record's last event is the stop
    line (:func:`madspip.history.stop_line`).
    """
    state = init_state(problem, x0, config)
    state.record.x0_id = x0_id
    while True:
        if len(state.cache.entries) >= config.max_evaluations:
            outcome = "budget-exhausted"
            break
        if state.delta_frame < DELTA_STOP:
            outcome = "delta-converged"
            break
        iterate(state)
    state.record.events.append(stop_line(outcome, problem.n, state.cache.entries.values(), is_builtin(problem)))
    return state.record


def check_run_invariants(record: RunRecord):
    """Replay a run from its events alone against the convergence-theory
    properties; returns ``(violations, warnings)`` in iteration order.

    The replay walks ``record.events`` once, as :func:`solve` made them or
    as a history read back gives them, stop line or not, and takes its
    inputs as the solver does: ``b_ext`` is ``compute_b_ext`` of the start
    row's ``f``, ``m`` the length of its ``g``, and the ``rho`` update's
    constants are ``merit``'s.  Each row is read by :func:`read_row`, and
    each evaluated one is priced under the frame before it: in pip mode
    ``merit`` of its ``violation_summary``, otherwise ``f`` when
    :func:`is_feasible` holds and ``+inf`` if not.  The start row sets the
    incumbent, each ``*-success`` row and no other must strictly lower its
    merit, and one that does becomes the incumbent.  In pip mode frame
    ``k + 1`` closes iteration ``k`` and prices iteration ``k + 1``: ``rho``
    shrinks only by exactly ``THETA_RHO``, at failures whose next frame size
    meets the criterion bound on the incumbent's ``phi_prox``; ``g_int``
    only grows, and not at a cut; and the incumbent, re-picked as the
    earliest minimizer of every evaluation so far when ``rho`` or ``g_int``
    changes, stays strictly interior.  The late-run frame-feasibility
    property is asymptotic: a late cut's evaluated row whose ``c_int`` is
    not negative gives a warning, not a violation.  Events that do not
    start with frame 0 and the start row give that one violation, and a
    line no run writes (:func:`read_row`, :func:`read_frame`, frames out
    of order, a ``g_int`` index not below ``m``, :func:`read_stop`, a stop
    line before the last line or whose ``n``, ``count``, ``steps`` or
    outcome is not the run's, a failed start row or an evaluated ``g`` not
    ``m`` long) gives one violation naming its event and ends the replay, as
    the events after it can no longer be matched to the run.
    """
    violations, warnings = [], []
    if not record.events:  # an error record
        return violations, warnings
    events = record.events
    if not starts_run(events):
        return ["the events do not start with frame 0 and the start row"], warnings
    pip = record.mode == MODE_PIP
    try:
        _, start = read_row(events[1], 0)  # after frame 0
    except ValueError as exc:
        return [f"event 1: {exc}"], warnings
    if start.failed:
        return ["event 1: the start evaluation failed"], warnings
    m, b_ext = len(start.g), compute_b_ext(start.f) if pip else None
    completed = sum(map(is_frame, events)) - 2  # the iterations that left a frame
    evaluations, terms = [], []  # each Evaluation, and its terms under interior
    frame = interior = rho = None  # the last frame as read, its g_int and its rho
    k, incumbent, best = -1, 0, _INF
    succeeded, cints = False, []

    def price(e):
        ev = evaluations[e]
        if not pip:
            return ev.f if is_feasible(ev) else _INF
        return merit(ev.f, terms[e][1], terms[e][2], rho, b_ext)

    for i, event in enumerate(events):
        framed = is_frame(event)
        try:
            if framed:
                read = read_frame(event, pip)
                if read[0] != k + 1:
                    raise ValueError(f"frame {read[0]} is not frame {k + 1}, the next one")
                if read[3] and read[3][-1] >= m:  # g_int is None outside pip mode
                    raise ValueError(f"g_int {read[3]!r} holds an index not below {m}")
            elif is_stop(event):  # held to the rows and to the frame the run stopped in
                if i < len(events) - 1:
                    raise ValueError("a stop line before the last line")
                outcome, n, count, steps, _ = read_stop(event)
                rows = improvement_steps((ev.f, is_feasible(ev)) for ev in evaluations)
                if n != len(start.point):
                    raise ValueError(f"stop line: n {n} is not the length of the start row's x")
                if (count, steps) != rows:
                    raise ValueError(f"stop line: count {count} and steps {steps!r} are not the rows' {rows!r}")
                converged = is_frame(events[i - 1]) and frame[2] < DELTA_STOP
                if not (outcome == "budget-exhausted" or outcome == "delta-converged" and converged):
                    raise ValueError(f"stop line: stop {outcome!r} is not how the events end")
                break
            else:
                status, ev = read_row(event, len(evaluations))
                if ev is not None and len(ev.g) != m:
                    raise ValueError(f"g has {len(ev.g)} entries, the start row {m}")
        except ValueError as exc:
            violations.append(f"event {i}: {exc}")
            return violations, warnings
        if not framed:  # a row of iteration k
            e, value = None if ev is None else ev.eval_index, _INF
            if ev is not None:
                if e == len(evaluations):
                    evaluations.append(ev)
                    if pip:
                        terms.append(violation_summary(ev.g, ev.h, interior, ev.failed))
                value = price(e)
                cints.append(terms[e][1] if pip else None)
            if k == 0:
                incumbent, best = e, value
            elif (value < best) != status.endswith("-success"):
                violations.append(
                    f"iteration {k}: eval {e} lowers the merit but is {status}" if value < best
                    else f"iteration {k}: eval {e} is {status} but does not lower the merit"
                )
            if value < best:
                incumbent, best, succeeded = e, value, True
            continue

        if pip:  # frame k + 1 closes iteration k, then prices iteration k + 1
            _, rho, delta, g_next = read
            changed = False
            if k > 0:
                _, rho_before, _, g_int = frame
                changed = rho != rho_before or g_next != g_int
                if not set(g_int) <= set(g_next):
                    violations.append(f"iteration {k}: frame {k + 1}'s g_int does not contain frame {k}'s")
                if rho != rho_before:
                    expected = rho_before * THETA_RHO
                    if rho != expected:
                        violations.append(f"rho at iteration {k} is {rho!r}, expected {expected!r}")
                    phi = terms[incumbent][0]
                    bound = min(B_RHO * rho_before**BETA, B_C * phi * phi)
                    if succeeded:
                        violations.append(f"rho reduced at successful iteration {k}")
                    elif not delta <= bound:
                        violations.append(f"iteration {k}: delta_next {delta!r} exceeds criterion bound {bound!r}")
                    violations.extend(
                        f"iteration {k}: partition switch and rho reduction in the same iteration"
                        for i in g_next if i not in g_int
                    )
                    if k >= completed * 3 / 4:
                        warnings.extend(
                            f"iteration {k}: evaluated frame point with c_int {cint!r} (late-run frame not strictly interior)"
                            for cint in cints if not cint < 0.0
                        )
            if g_next != interior:
                interior = g_next
                terms = [violation_summary(ev.g, ev.h, interior, ev.failed) for ev in evaluations]
            if changed:
                values = [price(e) for e in range(len(evaluations))]
                best = min(values)
                if best < _INF:  # else the incumbent stays, as reselect_incumbent keeps it
                    incumbent = values.index(best)
            if k > 0 and not terms[incumbent][1] < 0.0:
                violations.append(f"iteration {k}: incumbent c_int {terms[incumbent][1]!r} not negative")
        frame, k = read, read[0]
        succeeded, cints = False, []
    return violations, warnings


def summary_line(record: RunRecord) -> str:
    """One human-readable line per run for console output; its last frame
    is read by :func:`read_frame`, which raises ``ValueError``."""
    best = "none" if record.best_feasible_f is None else f"{record.best_feasible_f:.10g}"
    last = next(filter(is_frame, reversed(record.events)), None)
    _, rho, delta, _ = (None,) * 4 if last is None else read_frame(last, record.mode == MODE_PIP)
    rho = "-" if rho is None else f"{rho:.3g}"
    delta = "-" if delta is None else f"{delta:.3g}"
    return (
        f"problem={record.problem_name} x0={record.x0_id} seed={record.seed} "
        f"mode={record.mode} evals={record.evals_used} best_feasible_f={best} "
        f"rho={rho} delta={delta} outcome={record.outcome}"
    )
