"""Bookkeeping mutants that the invariant replay catches.

Each mutant is applied with ``monkeypatch`` to the canonical matrix (the five
default problems x 2 starts x seeds 1-4 x both modes, budget 1500), which
makes 41,113 evaluations unmutated.  One test per mutant pins its evaluation
count, so the mutant is known to change the runs; one more asks the replay,
which re-prices every row from its frame, for a violation: each mutant
leaves row statuses that the re-priced merits contradict.
"""

import pytest

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
    """At a rho cut, ``reselect_incumbent`` becomes ``at_cut(state, params)``,
    with ``params`` the merit parameters the cut replaced; a partition move
    still reselects."""
    real_check = madspip.solver.penalty_update_check
    real_reselect = madspip.solver.reselect_incumbent
    pending = []

    def penalty_update_check(delta_next, phi, params):
        cut = real_check(delta_next, phi, params)
        if cut:
            pending.append(params)
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

    def at_cut(state, params):
        cut_params, state.merit_params = state.merit_params, params
        real_reselect(state)
        state.merit_params = cut_params

    _patch_cut_reselection(mp, at_cut)


def _cut_keeps_incumbent(mp):
    """A rho cut only re-prices the incumbent under the new rho."""

    def at_cut(state, params):
        key = state.q_incumbent
        state.incumbent_merit = madspip.solver._merit_of(state, key, state.cache.entries[key])

    _patch_cut_reselection(mp, at_cut)


MUTANTS = {
    "kept-never-cleared": _kept_never_cleared,
    "reselect-before-cut": _reselect_before_cut,
    "cut-keeps-incumbent": _cut_keeps_incumbent,
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
    for name, apply in MUTANTS.items():
        with pytest.MonkeyPatch.context() as mp:
            apply(mp)
            records = run_matrix(jobs, 1500).values()
        evaluations = sum(record.evals_used for record in records)
        violations = [v for record in records for v in check_run_invariants(record)[0]]
        runs[name] = (evaluations, violations)
    return runs


@pytest.mark.parametrize(
    "mutant, evaluations",
    [("kept-never-cleared", 41186), ("reselect-before-cut", 35006), ("cut-keeps-incumbent", 44775)],
)
def test_mutant_changes_the_matrix(mutant_runs, mutant, evaluations):
    assert mutant_runs[mutant][0] == evaluations


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_replay_reports_the_mutant(mutant_runs, mutant):
    assert mutant_runs[mutant][1]
