"""Bookkeeping mutants that the invariant replay catches, and geometry
mutants, of which it catches those that break the frame rule or the size
of an unsuccessful poll.

Each mutant is applied with ``monkeypatch`` to the canonical matrix (the five
default problems x 2 starts x seeds 1-4 x both modes, budget 1500), which
makes 41,113 evaluations unmutated.  One test per mutant pins its evaluation
count, so the mutant is known to change the runs; one more asks the replay,
which re-prices every row from its frame, for a violation: each bookkeeping
mutant leaves row statuses that the re-priced merits contradict.  The
geometry mutants break the mesh half of MADS (the frame update and the poll
set).  The replay checks the frame update and that an unsuccessful
iteration tries 2n poll points, but neither the length nor the direction of
a poll step, so the test of the two mutants that change only those is a
strict xfail.
"""

import pytest

import madspip.mesh
import madspip.solver
from madspip.bench import run_matrix
from madspip.solver import MODE_EXTREME_BARRIER, MODE_PIP, check_run_invariants
from madspip.suite import DEFAULT_BENCH_NAMES, builtin_problem, make_instances


class _NeverCleared(dict):
    def clear(self):
        pass


def _kept_never_cleared(mp):
    """A partition move keeps the violation terms of the old partition."""
    real = madspip.solver.init_state

    def init_state(*args, **kwargs):
        state = real(*args, **kwargs)
        state.kept = _NeverCleared(state.kept)
        return state

    mp.setattr(madspip.solver, "init_state", init_state)


def _patch_cut_reselection(mp, at_cut):
    """At a rho cut, ``reselect_incumbent`` becomes ``at_cut(state, rho)``,
    with ``rho`` the one the cut replaced; a partition move still reselects."""
    real_check = madspip.solver.penalty_update_check
    real_reselect = madspip.solver.reselect_incumbent
    pending = []

    def penalty_update_check(delta_next, phi, rho):
        cut = real_check(delta_next, phi, rho)
        if cut:
            pending.append(rho)
        return cut

    def reselect_incumbent(state):
        if not pending:  # a partition move
            return real_reselect(state)
        at_cut(state, pending.pop())

    mp.setattr(madspip.solver, "penalty_update_check", penalty_update_check)
    mp.setattr(madspip.solver, "reselect_incumbent", reselect_incumbent)


def _reselect_before_cut(mp):
    """A rho cut re-picks the incumbent under the rho it replaces."""
    real_reselect = madspip.solver.reselect_incumbent

    def at_cut(state, rho):
        cut_rho, state.rho = state.rho, rho
        real_reselect(state)
        state.rho = cut_rho

    _patch_cut_reselection(mp, at_cut)


def _cut_keeps_incumbent(mp):
    """A rho cut only re-prices the incumbent under the new rho."""

    def at_cut(state, rho):
        key = state.q_incumbent
        state.incumbent_merit = madspip.solver._merit_of(state, key, state.cache.entries[key])

    _patch_cut_reselection(mp, at_cut)


MUTANTS = {
    "kept-never-cleared": _kept_never_cleared,
    "reselect-before-cut": _reselect_before_cut,
    "cut-keeps-incumbent": _cut_keeps_incumbent,
}


def _never_grows(mp):
    """A success keeps the frame; a failure still halves it."""
    real = madspip.mesh.update_frame
    mp.setattr(madspip.solver, "update_frame", lambda exp, success: exp if success else real(exp, False))


def _shrinks_4x(mp):
    """A failure quarters the frame; a success still doubles it."""
    real = madspip.mesh.update_frame
    mp.setattr(madspip.solver, "update_frame", lambda exp, success: real(exp, True) if success else exp - 2)


def _n_directions(mp):
    """The poll set is the basis without its negations, n directions."""
    real = madspip.mesh.poll_directions
    mp.setattr(madspip.solver, "poll_directions", lambda n, exp, rng: real(n, exp, rng)[:n])


def _three_times_the_frame(mp):
    """Every poll step is three times as long, outside the frame."""
    real = madspip.mesh.poll_directions

    def poll(n, exp, rng):
        return [tuple([3 * s for s in d]) for d in real(n, exp, rng)]

    mp.setattr(madspip.solver, "poll_directions", poll)


def _coordinate_directions(mp):
    """The poll set is the fixed +- coordinate directions, spanning the frame."""

    def poll(n, exp, rng):
        radius = 1 << (exp - madspip.mesh.mesh_exp(exp))  # the frame in mesh steps
        basis = [tuple([radius if i == j else 0 for i in range(n)]) for j in range(n)]
        return basis + [tuple([-s for s in d]) for d in basis]

    mp.setattr(madspip.solver, "poll_directions", poll)


GEOMETRY_MUTANTS = {
    "never-grows": _never_grows,
    "shrinks-4x": _shrinks_4x,
    "n-directions": _n_directions,
    "three-times-the-frame": _three_times_the_frame,
    "coordinate-directions": _coordinate_directions,
}


@pytest.fixture(scope="module")
def mutant_runs():
    """``{mutant: (evaluations, violations)}`` over the canonical matrix."""
    problems = [builtin_problem(name)[0] for name in DEFAULT_BENCH_NAMES]
    jobs = [
        (instance, mode)
        for instance in make_instances(problems, 2, [1, 2, 3, 4])
        for mode in (MODE_PIP, MODE_EXTREME_BARRIER)
    ]
    runs = {}
    for name, apply in {**MUTANTS, **GEOMETRY_MUTANTS}.items():
        with pytest.MonkeyPatch.context() as mp:
            apply(mp)
            records = run_matrix(jobs, 1500).values()
        evaluations = sum(record.evals_used for record in records)
        violations = [v for record in records for v in check_run_invariants(record)[0]]
        runs[name] = (evaluations, violations)
    return runs


@pytest.mark.parametrize(
    "mutant, evaluations",
    [
        ("kept-never-cleared", 41186), ("reselect-before-cut", 35006), ("cut-keeps-incumbent", 44775),
        ("never-grows", 24808), ("shrinks-4x", 31166), ("n-directions", 28503),
        ("three-times-the-frame", 38829), ("coordinate-directions", 34484),
    ],
)
def test_mutant_changes_the_matrix(mutant_runs, mutant, evaluations):
    assert mutant_runs[mutant][0] == evaluations


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_replay_reports_the_mutant(mutant_runs, mutant):
    assert mutant_runs[mutant][1]


_UNCHECKED_GEOMETRY = pytest.mark.xfail(
    strict=True, reason="the replay checks neither the poll steps' length nor their directions"
)


@pytest.mark.parametrize(
    "mutant",
    [
        pytest.param("coordinate-directions", marks=_UNCHECKED_GEOMETRY),
        "n-directions",
        "never-grows",
        "shrinks-4x",
        pytest.param("three-times-the-frame", marks=_UNCHECKED_GEOMETRY),
    ],
)
def test_replay_reports_the_geometry_mutant(mutant_runs, mutant):
    assert mutant_runs[mutant][1]
