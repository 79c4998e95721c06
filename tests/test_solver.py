import gc
import hashlib
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import madspip.solver
from madspip.bench import RunView, run_matrix
from madspip.merit import (
    B_RHO, BETA, RHO0, THETA_RHO, merit, penalty_update_check, violation_summary,
)
from madspip.history import read_frame, read_row
from madspip.problem import Cache, Evaluation, Problem, is_feasible, read_history, write_history
from madspip.solver import (
    DELTA_STOP,
    MODE_EXTREME_BARRIER,
    MODE_PIP,
    InitializationError,
    RunRecord,
    SolverConfig,
    check_run_invariants,
    init_state,
    iterate,
    reselect_incumbent,
    solve,
    speculative_search,
    summary_line,
)
from madspip.suite import Instance, builtin_problem, builtin_problems, initial_point, x0_ids

from history_expansion import expand, expand_iterations, params_of, with_row_keys

INF = math.inf


def succeeded(record, k):
    """Whether iteration ``k`` has a ``*-success`` row."""
    return any(
        row["status"].endswith("-success")
        for row in with_row_keys(record.events) if row.get("iteration") == k
    )


def constrained_problem(g_of_x, name="toy", n=2, bounds=None):
    def evaluator(x):
        return sum(v * v for v in x), tuple(g(x) for g in g_of_x), ()

    return Problem(name, n, len(g_of_x), 0, evaluator, bounds)


class TestSolverConfig:
    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seed.*{seed}"):
            SolverConfig(max_evaluations=10, seed=seed)


def exterior(state):
    """The inequality indices outside ``state.g_int``."""
    return tuple(i for i in range(state.problem.m) if i not in state.g_int)


class TestInitState:
    def test_partition_split(self):
        problem = constrained_problem([lambda x: -0.5, lambda x: 0.3])
        state = init_state(problem, (0.0, 0.0), SolverConfig(max_evaluations=10))
        assert state.g_int == (0,)
        assert exterior(state) == (1,)

    def test_all_violated_gives_empty_interior(self):
        problem = constrained_problem([lambda x: 0.1, lambda x: 0.2])
        state = init_state(problem, (0.0, 0.0), SolverConfig(max_evaluations=10))
        assert state.g_int == ()
        assert exterior(state) == (0, 1)

    def test_boundary_within_tolerance_goes_exterior(self):
        problem = constrained_problem([lambda x: -1e-16])
        state = init_state(problem, (0.0, 0.0), SolverConfig(max_evaluations=10))
        assert exterior(state) == (0,)

    def test_initial_frame(self):
        # without bounds the frame starts at exponent 0 of delta0 = 1, where
        # the mesh equals the frame
        problem = constrained_problem([lambda x: -1.0])
        state = init_state(problem, (0.0, 0.0), SolverConfig(max_evaluations=10))
        assert state.frame_exp == 0
        assert state.delta_frame == 1.0
        assert state.mesh_step * state.lattice_step == 1.0

    def test_partition_move_is_one_directional(self):
        # inequalities 1 and 2 are violated at the start only: the first
        # success moves them to the interior set, in index order, for good
        def evaluator(x):
            g = 0.2 if all(v == 0.0 for v in x) else -1.0
            return 0.0, (0.5, g, g), ()

        problem = Problem("moves", 2, 3, 0, evaluator)
        state = init_state(problem, (0.0, 0.0), SolverConfig(max_evaluations=50))
        assert state.g_int == ()
        iterate(state)
        assert state.g_int == (1, 2) and exterior(state) == (0,)
        for _ in range(3):
            iterate(state)
            assert state.g_int == (1, 2)

    def test_b_ext_from_f0(self):
        def evaluator(x):
            return 523.0, (), ()

        problem = Problem("f523", 1, 0, 0, evaluator)
        state = init_state(problem, (0.0,), SolverConfig(max_evaluations=10))
        assert state.b_ext == 100.0

    def test_failed_x0_is_error(self):
        problem = Problem("nanstart", 1, 0, 0, lambda x: (float("nan"), (), ()))
        with pytest.raises(InitializationError):
            init_state(problem, (0.0,), SolverConfig(max_evaluations=10))

    def test_x0_out_of_bounds_is_error(self):
        problem = constrained_problem([lambda x: -1.0], bounds=((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(InitializationError):
            init_state(problem, (2.0, 0.0), SolverConfig(max_evaluations=10))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x0_is_error(self, bad):
        problem = Problem("c", 2, 0, 0, lambda x: (1.0, (), ()))
        with pytest.raises(InitializationError, match="not finite"):
            solve(problem, (bad, 0.0), SolverConfig(max_evaluations=30))

    def test_x0_wrong_length(self):
        problem = constrained_problem([lambda x: -1.0])
        with pytest.raises(InitializationError):
            init_state(problem, (0.0,), SolverConfig(max_evaluations=10))


class TestIterate:
    def test_accepts_tiny_strict_decrease(self):
        # objective with a minuscule slope still yields successful iterations
        def evaluator(x):
            return 1e-12 * x[0], (), ()

        problem = Problem("flat", 1, 0, 0, evaluator)
        state = init_state(problem, (0.0,), SolverConfig(max_evaluations=50, search_enabled=False))
        delta_before = state.delta_frame
        iterate(state)
        assert succeeded(state.record, 1)
        assert state.delta_frame == 2 * delta_before

    def test_unsuccessful_iteration_shrinks(self):
        problem = Problem("bowl", 1, 0, 0, lambda x: (x[0] ** 2, (), ()))
        state = init_state(problem, (0.0,), SolverConfig(max_evaluations=50, search_enabled=False))
        delta_before = state.delta_frame
        iterate(state)
        assert not succeeded(state.record, 1)
        assert state.delta_frame == 0.5 * delta_before

    def test_rho_cut_gated_by_criterion(self):
        problem = Problem("bowl", 1, 0, 0, lambda x: (x[0] ** 2, (), ()))
        state = init_state(problem, (0.0,), SolverConfig(max_evaluations=500, search_enabled=False))
        # frame starts at 1 (no bounds): the first failures do not satisfy
        # delta <= ~1 until the frame halves below it, then rho drops by 100
        rhos = [state.rho]
        for _ in range(3):
            iterate(state)
            rhos.append(state.rho)
        assert rhos[0] == 0.1
        assert rhos[-1] == pytest.approx(0.001)
        trace = state.record.rho_trace
        assert len(trace) == 1 and trace[0][1] == pytest.approx(0.001)

    def test_no_rho_cut_at_large_frame(self):
        problem = Problem("bowl", 1, 0, 0, lambda x: (x[0] ** 2, (), ()), bounds=((-50.0,), (50.0,)))
        state = init_state(problem, (0.0,), SolverConfig(max_evaluations=500, search_enabled=False))
        iterate(state)  # frame 10 -> 5, far above the criterion bound ~1
        assert state.rho == 0.1
        assert state.record.rho_trace == []


    @pytest.mark.parametrize("mode,x0_id", [(MODE_PIP, "infeasible-0"), (MODE_EXTREME_BARRIER, "feasible-0")])
    def test_frame_line_holds_the_state(self, mode, x0_id):
        # each iteration's frame line reads back as the state's rho, frame
        # size and interior set, unchanged, through the cut, the move, growth
        # and shrinking that a two-ring run makes in its first 30 iterations
        problem, _ = builtin_problem("two-ring")
        config = SolverConfig(max_evaluations=300, seed=1, mode=mode)
        state = init_state(problem, initial_point(problem, x0_id), config)
        assert state.delta0 == 10.0  # two-ring has bounds
        rhos, g_ints, exps = set(), set(), set()
        for k in range(1, 31):
            iterate(state)
            line = read_frame(state.record.events[-1], mode == MODE_PIP)
            assert line == (k + 1, state.rho, state.delta_frame, state.g_int)
            assert state.delta_frame == state.delta0 * 2.0**state.frame_exp
            rhos.add(state.rho)
            g_ints.add(state.g_int)
            exps.add(state.frame_exp)
        assert min(exps) < 0
        if mode == MODE_PIP:
            assert rhos == {0.1, 0.001} and g_ints == {(1,), (0, 1)} and max(exps) > 0
        else:
            assert rhos == {None} and g_ints == {None}


class TestSpeculativeSearch:
    def _state_after_success(self):
        problem = Problem("slope", 2, 0, 0, lambda x: (x[0] + x[1], (), ()))
        state = init_state(problem, (1.0, 1.0), SolverConfig(max_evaluations=100))
        while state.last_success_offset is None:
            iterate(state)
        return state

    def test_no_candidate_without_success(self):
        problem = Problem("slope", 2, 0, 0, lambda x: (x[0] + x[1], (), ()))
        state = init_state(problem, (1.0, 1.0), SolverConfig(max_evaluations=100))
        assert speculative_search(state) is None

    def test_doubles_last_displacement(self):
        state = self._state_after_success()
        q = speculative_search(state)
        expected = tuple(
            qi + 2 * off for qi, off in zip(state.q_incumbent, state.last_success_offset)
        )
        assert q == expected

    def test_skips_cached_candidate(self):
        state = self._state_after_success()
        q = speculative_search(state)
        state.cache.store(q, Evaluation(tuple(map(float, q)), 0.0, (), (), 99))
        assert speculative_search(state) is None

    def test_skips_out_of_bounds(self):
        problem = Problem(
            "slope",
            2,
            0,
            0,
            lambda x: (x[0] + x[1], (), ()),
            bounds=((-2.0, -2.0), (2.0, 2.0)),
        )
        state = init_state(problem, (-1.9, -1.9), SolverConfig(max_evaluations=100))
        state.last_success_offset = (-10 * 2**state.lattice_bits,) * 2
        evals_before = len(state.cache.entries)
        assert speculative_search(state) is None
        assert len(state.cache.entries) == evals_before


class TestLattice:
    def test_cache_keys_are_int_tuples(self):
        problem, _ = builtin_problem("unit-disk")
        x0 = initial_point(problem, "feasible-0")
        state = init_state(problem, x0, SolverConfig(max_evaluations=60, seed=1))
        for _ in range(8):
            iterate(state)
        assert len(state.cache.entries) > 1
        for key in state.cache.entries:
            assert isinstance(key, tuple) and all(type(q) is int for q in key)

    def test_lattice_covers_the_finest_iterated_mesh(self):
        # no bounds, so delta0 = 1: the last frame iterated is 2**-29, the
        # smallest power of two not below DELTA_STOP = 1e-9, and its mesh
        # 2**-58 is the lattice unit
        problem = Problem("bowl", 1, 0, 0, lambda x: (x[0] ** 2, (), ()))
        config = SolverConfig(max_evaluations=500, search_enabled=False)
        state = init_state(problem, (0.0,), config)
        assert state.lattice_bits == 58
        record = solve(problem, (0.0,), config)
        assert record.outcome == "delta-converged"
        assert record.frames[-1]["delta_frame"] == 2.0**-30

    def test_points_are_the_exact_offsets_rounded_once(self):
        # x = anchor + unit * (q / 2**bits) with the quotient rounded once,
        # for offsets beyond 2**53 and lattices far finer than a run uses
        rng = random.Random(7)
        problem = Problem("c", 1, 0, 0, lambda x: (x[0], (), ()))
        state = init_state(problem, (0.3,), SolverConfig(max_evaluations=10))
        for _ in range(3000):
            bits = rng.randint(0, 900)
            state.lattice_bits = bits
            state.x_unit = rng.uniform(1e-3, 1e3)
            state.lattice_step = math.ldexp(state.x_unit, -bits)
            q = rng.randint(-(1 << (bits + 40)), 1 << (bits + 40))
            exact = float(Fraction(q, 1 << bits))
            assert madspip.solver._point_of(state, (q,)) == [0.3 + state.x_unit * exact]

    def test_mesh_finer_than_lattice_rejected(self):
        problem = Problem("bowl", 1, 0, 0, lambda x: (x[0] ** 2, (), ()))
        state = init_state(problem, (0.0,), SolverConfig(max_evaluations=500))
        assert state.lattice_bits == 58
        state.frame_exp = -30
        with pytest.raises(ValueError):
            iterate(state)


class TestReselectIncumbent:
    def _state_with_cache(self, entries):
        problem = Problem("stub", 1, 0, 0, lambda x: (100.0, (), ()))
        state = init_state(problem, (0.0,), SolverConfig(max_evaluations=10))
        state.g_int = ()
        for key, ev in entries.items():
            state.cache.entries[key] = ev
        return state

    def test_argmin_selected(self):
        state = self._state_with_cache(
            {
                ("a",): Evaluation((1.0,), 3.2, (), (), 1),
                ("b",): Evaluation((2.0,), 3.1, (), (), 2),
            }
        )
        reselect_incumbent(state)
        assert state.cache.entries[state.q_incumbent].eval_index == 2

    def test_tie_breaks_to_earliest(self):
        state = self._state_with_cache(
            {
                ("b",): Evaluation((2.0,), 3.1, (), (), 2),
                ("a",): Evaluation((1.0,), 3.1, (), (), 7),
            }
        )
        reselect_incumbent(state)
        assert state.cache.entries[state.q_incumbent].eval_index == 2

    def test_rho_reduction_reranks_infeasible(self, monkeypatch):
        # A: feasible with f=5; B: cext=0.04 with f=1. At rho=0.1 B wins
        # (z=1.4), at rho=0.001 the penalty dominates and A wins.
        problem = Problem("stub", 1, 0, 1, lambda x: (0.0, (), (0.0,)))
        state = init_state(problem, (0.0,), SolverConfig(max_evaluations=10))
        a = Evaluation((1.0,), 5.0, (), (0.0,), 1)
        b = Evaluation((2.0,), 1.0, (), (0.2,), 2)  # h=0.2 -> cext=0.04
        state.cache.entries.clear()
        state.cache.entries[("a",)] = a
        state.cache.entries[("b",)] = b
        state.rho, state.b_ext = 0.1, 1.0
        reselect_incumbent(state)
        assert state.cache.entries[state.q_incumbent] is b
        # the second call, under the same partition, only re-prices the
        # violation terms the first one kept
        summarized = []
        monkeypatch.setattr(
            madspip.solver, "violation_summary",
            lambda *args, **kw: summarized.append(args) or violation_summary(*args, **kw),
        )
        state.rho = 0.001
        reselect_incumbent(state)
        assert state.cache.entries[state.q_incumbent] is a
        assert state.incumbent_merit == 5.0
        assert summarized == []
        assert state.kept[state.q_incumbent] == violation_summary(a.g, a.h, state.g_int)

    def test_all_infinite_keeps_incumbent_and_flags(self):
        state = self._state_with_cache({})
        state.cache.entries.clear()
        state.cache.entries[("a",)] = Evaluation((1.0,), INF, (), (), 1, failed=True)
        q_before = state.q_incumbent
        reselect_incumbent(state)
        assert state.q_incumbent == q_before
        assert state.incumbent_merit == INF
        assert any("no-finite-merit" in f for f in state.record.flags)


def _fresh(state, ev):
    """``(terms, merit)`` of ``ev`` from a fresh violation summary."""
    terms = violation_summary(ev.g, ev.h, state.g_int, failed=ev.failed)
    return terms, merit(ev.f, terms[1], terms[2], state.rho, state.b_ext)


def _rescan(state):
    """Reselection by a fresh violation summary of every cache entry."""
    best_key, best = None, INF
    for key, ev in state.cache.entries.items():
        _, value = _fresh(state, ev)
        if value < best:
            best_key, best = key, value
    return best_key, best


class TestKeptViolationTerms:
    def test_reselection_matches_a_full_rescan(self, monkeypatch):
        real = madspip.solver.reselect_incumbent
        real_try = madspip.solver._try_candidate
        causes = []

        def checked_try(state, q, kind):
            accepted, ev, value = real_try(state, q, kind)
            if ev is not None:
                terms, fresh = _fresh(state, ev)
                assert value == fresh
                assert state.kept[q] == terms
            return accepted, ev, value

        def checked(state):
            q_before, flags_before = state.q_incumbent, list(state.record.flags)
            moved = not state.kept  # a partition move drops the kept terms
            real(state)
            key, best = _rescan(state)
            if key is None:
                flags_before.append("reselection-found-no-finite-merit")
                key = q_before
                _, best = _fresh(state, state.cache.entries[q_before])
            assert state.q_incumbent == key
            assert state.incumbent_merit == best
            assert state.record.flags == flags_before
            causes.append((state.record.problem_name, moved))
            return state

        monkeypatch.setattr(madspip.solver, "reselect_incumbent", checked)
        monkeypatch.setattr(madspip.solver, "_try_candidate", checked_try)
        runs = 0
        for problem, _ in builtin_problems():
            for x0_id in x0_ids(2):
                record = solve(
                    problem, initial_point(problem, x0_id),
                    SolverConfig(max_evaluations=1500, seed=5), x0_id=x0_id,
                )
                assert len(record.rho_trace) >= 3
                runs += 1
        assert sum(not moved for _, moved in causes) >= 3 * runs
        assert {name for name, moved in causes if moved} == {"unit-disk", "maxabs-lin", "two-ring"}

    def test_cache_hit_repriced_after_rho_cut(self):
        problem = constrained_problem([lambda x: x[0] - 1.0])
        state = init_state(problem, (0.5, 0.0), SolverConfig(max_evaluations=10))
        state.rho = 1e-3
        merit_before = state.incumbent_merit
        _, ev, value = madspip.solver._try_candidate(state, state.q_incumbent, "poll")
        assert ev is state.cache.entries[state.q_incumbent]  # a cache hit
        assert value == _fresh(state, ev)[1]
        assert value != merit_before

    def test_one_summary_per_key_and_partition(self, monkeypatch):
        # one fresh summary per evaluation, plus one per cached key when the
        # partition moves; rescanning the cache at each rho cut breaks this
        summarized = []
        monkeypatch.setattr(
            madspip.solver, "violation_summary",
            lambda *args, **kw: summarized.append(args) or violation_summary(*args, **kw),
        )
        real = madspip.solver.reselect_incumbent
        rescanned = []

        def at_moves(state):
            if not state.kept:  # a partition move drops the kept terms
                rescanned.append(len(state.cache.entries))
            return real(state)

        monkeypatch.setattr(madspip.solver, "reselect_incumbent", at_moves)
        problem, _ = builtin_problem("two-ring")
        record = solve(
            problem, initial_point(problem, "infeasible-0"),
            SolverConfig(max_evaluations=1500, seed=5), x0_id="infeasible-0",
        )
        assert len(record.rho_trace) >= 3 and len(rescanned) >= 1
        assert len(summarized) <= record.evals_used + sum(rescanned)


    def test_kept_terms_are_float_tuples_the_gc_does_not_track(self):
        problem, _ = builtin_problem("two-ring")
        state = init_state(
            problem, initial_point(problem, "infeasible-0"),
            SolverConfig(max_evaluations=300, seed=5),
        )
        while len(state.cache.entries) < 300:
            iterate(state)
        gc.collect()
        assert len(state.kept) > 100
        for terms in state.kept.values():
            assert type(terms) is tuple and [type(v) for v in terms] == [float] * 3
            assert not gc.is_tracked(terms)


class TestSolve:
    def test_unit_disk_reaches_optimum(self):
        problem, optimum = builtin_problem("unit-disk")
        x0 = initial_point(problem, "feasible-0")
        record = solve(problem, x0, SolverConfig(max_evaluations=1500, seed=1), x0_id="feasible-0")
        assert record.best_feasible_f == pytest.approx(optimum.f_star, abs=1e-4)

    def test_rows_have_the_reference_layout(self):
        # the literal row layout: key order, the status set, and tuple-valued
        # x, g and h (None on a bounds rejection), written as JSON arrays;
        # what the iteration priced a row under is its frame line's, with
        # rho and the interior set None outside pip mode
        keys = ["eval_index", "x", "f", "g", "h", "status"]
        known = {
            "search-success", "poll-success", "unsuccessful", "cache-hit", "rejected-bounds", "failed",
        }
        problem, _ = builtin_problem("two-ring")
        x0 = initial_point(problem, "feasible-0")
        for mode in (MODE_PIP, MODE_EXTREME_BARRIER):
            record = solve(problem, x0, SolverConfig(max_evaluations=300, seed=2, mode=mode))
            statuses = set()
            for row in record.rows:
                assert list(row) == keys
                assert type(row["x"]) is tuple
                bounds = row["status"] == "rejected-bounds"
                for k in ("g", "h"):
                    assert row[k] is None if bounds else type(row[k]) is tuple
                statuses.add(row["status"])
            assert statuses <= known
            assert {"unsuccessful", "poll-success", "rejected-bounds"} <= statuses
            frames = [line for line in record.events if "frame" in line]
            assert [list(line) for line in frames] == [["frame", "rho", "delta_frame", "g_int"]] * len(frames)
            for line in frames:
                assert (line["rho"] is None) == (line["g_int"] is None) == (mode == MODE_EXTREME_BARRIER)

    @pytest.mark.parametrize("name", ["two-ring", "mixed-kkt"])
    def test_rows_share_the_cached_tuples_and_leave_the_gc(self, name):
        # an evaluated row holds the cache entry's own point, g and h, so a
        # held record stores each value once and, after a full collection,
        # gives the cyclic GC no row to walk
        problem, _ = builtin_problem(name)
        state = init_state(
            problem, initial_point(problem, "infeasible-0"),
            SolverConfig(max_evaluations=300, seed=2),
        )
        while state.delta_frame >= DELTA_STOP and len(state.cache.entries) < 300:
            iterate(state)
        entries = list(state.cache.entries.values())  # in eval_index order
        rows = state.record.rows
        gc.collect()
        evaluated = 0
        for row in rows:
            assert not gc.is_tracked(row)
            if row["eval_index"] is None:
                assert type(row["x"]) is tuple and not gc.is_tracked(row["x"])
                continue
            ev = entries[row["eval_index"]]
            assert row["x"] is ev.point and row["g"] is ev.g and row["h"] is ev.h
            evaluated += 1
        assert evaluated > len(entries) >= 100

    def test_cache_hit_rows_hold_the_evaluated_point(self):
        # the lattice maps the start (-0.0, -0.0) back to (0.0, 0.0); a later
        # visit is a cache hit, and its row holds the point evaluated first
        problem, _ = builtin_problem("two-ring")
        record = solve(problem, (-0.0, -0.0), SolverConfig(max_evaluations=400, seed=1))
        starts = [row for row in record.rows if row["eval_index"] == 0]
        assert [row["status"] for row in starts[1:]] == ["cache-hit"] * (len(starts) - 1)
        assert len(starts) >= 2
        for row in starts:
            assert [math.copysign(1.0, v) for v in row["x"]] == [-1.0, -1.0]

    def test_nan_objective_rows_are_failed_and_infeasible(self):
        # NaN right of x_0 = 0.55, close to the optimum (0.5, 0.5), so the
        # poll keeps landing there, often at points whose g says feasible
        def nan_right(x):
            f = x[0] * x[0] + x[1] * x[1] if x[0] <= 0.55 else float("nan")
            return f, (1.0 - x[0] - x[1],), ()

        problem = Problem("nan-right", 2, 1, 0, nan_right, ((-2.0, -2.0), (2.0, 2.0)))
        record = solve(problem, (0.2, 1.2), SolverConfig(max_evaluations=300, seed=1))
        failed = [row for row in record.rows if row["status"] == "failed"]
        assert any(row["g"][0] <= 0.0 for row in failed)
        assert all(row["f"] == INF and row["x"][0] > 0.55 for row in failed)
        # read back, a failed row with g <= 0 is failed and so infeasible: a
        # view that took it as feasible would hold its infinite f, and the
        # replay holds the stop line's view to the rows
        read = [read_row(row, record.evals_used)[1] for row in failed]
        assert all(ev.failed and not is_feasible(ev) for ev in read)
        view = RunView(*record.key, record.n, record.evals_used, record.steps)
        assert view.count == 300 and view.steps and all(f < INF for _, f in view.steps)
        assert check_run_invariants(record) == ([], [])
        # a failed point's violation terms are +inf, as the solver priced
        # it: its stored f = +inf says it failed, whatever its g
        full = expand(record.events)[:-1]
        assert all(row["cint"] == row["cext"] == INF for row in full if row["status"] == "failed")

    def test_budget_exhausted_after_init(self):
        problem, _ = builtin_problem("unit-disk")
        x0 = initial_point(problem, "feasible-0")
        record = solve(problem, x0, SolverConfig(max_evaluations=1, seed=1))
        assert record.outcome == "budget-exhausted"
        assert record.evals_used == 1
        assert len(record.rows) == 1 and with_row_keys(record.events)[1]["incumbent"]

    def test_histories_byte_identical(self, tmp_path):
        from madspip.problem import write_history

        problem, _ = builtin_problem("unit-disk")
        x0 = initial_point(problem, "feasible-0")
        paths = []
        for run in range(2):
            record = solve(problem, x0, SolverConfig(max_evaluations=400, seed=5))
            path = tmp_path / f"run{run}.jsonl"
            write_history(record.rows, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_merit_monotone_and_rho_trace(self):
        problem, _ = builtin_problem("unit-disk")
        x0 = initial_point(problem, "feasible-0")
        record = solve(problem, x0, SolverConfig(max_evaluations=1500, seed=2))
        violations, _ = check_run_invariants(record)
        assert violations == []
        assert len(record.rho_trace) >= 1

    def test_incumbent_strictly_interior_throughout(self):
        problem, _ = builtin_problem("two-ring")
        x0 = initial_point(problem, "infeasible-0")
        record = solve(problem, x0, SolverConfig(max_evaluations=800, seed=4))
        assert all(e["incumbent_cint"] < 0 for e in expand_iterations(record))

    def test_partition_switch_recorded_on_entry(self):
        # infeasible start: the disk constraint begins exterior and moves
        # interior once the incumbent crosses in
        problem, _ = builtin_problem("unit-disk")
        x0 = initial_point(problem, "infeasible-0")
        record = solve(problem, x0, SolverConfig(max_evaluations=1500, seed=1))
        assert record.partition_trace
        assert [idx for _, idx in record.partition_trace] == [0]

    def test_frame_floor_bounds_rho_after_five_cuts(self):
        # a cut needs delta_next <= B_RHO * rho**BETA, and every iterated
        # frame's successor is at least DELTA_STOP / 2
        floor = DELTA_STOP / 2
        fifth_cut_bound = B_RHO * (RHO0 * THETA_RHO**4) ** BETA
        sixth_cut_bound = B_RHO * (RHO0 * THETA_RHO**5) ** BETA
        assert sixth_cut_bound < floor <= fifth_cut_bound, (
            "the solver has no rho stop because the frame floor DELTA_STOP / 2 allows a "
            "5th rho cut (to RHO0 * THETA_RHO**5) and no 6th; these constants change that"
        )

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 16: the cache is keyed by lattice offset")
    def test_one_evaluation_per_float_point(self):
        # the run makes 329 evaluations; evaluation 300 maps to the point
        # of evaluation 295 from another lattice key
        problem, _ = builtin_problem("unit-disk")
        config = SolverConfig(max_evaluations=1500, seed=2, mode=MODE_EXTREME_BARRIER)
        record = solve(problem, initial_point(problem, "feasible-0"), config)
        first = {}
        for row in record.rows:
            if row["eval_index"] is not None:
                assert first.setdefault(row["x"], row["eval_index"]) == row["eval_index"]

    def test_summary_line_fields(self):
        problem, _ = builtin_problem("unit-disk")
        x0 = initial_point(problem, "feasible-0")
        record = solve(problem, x0, SolverConfig(max_evaluations=50, seed=1))
        line = summary_line(record)
        for token in ("problem=unit-disk", "seed=1", "evals=", "best_feasible_f=", "rho=", "delta="):
            assert token in line
        # rho= and delta= are the state the run stopped in: its last frame
        last = record.frames[-1]
        assert f" rho={last['rho']:.3g} delta={last['delta_frame']:.3g} " in line
        config = SolverConfig(max_evaluations=50, seed=1, mode=MODE_EXTREME_BARRIER)
        record = solve(problem, x0, config)
        assert f" rho=- delta={record.frames[-1]['delta_frame']:.3g} " in summary_line(record)
        # a run that cannot start has no frames
        instance = Instance(problem, "infeasible-0", initial_point(problem, "infeasible-0"), 1)
        (record,) = run_matrix([(instance, MODE_EXTREME_BARRIER)], 50).values()
        assert record.outcome == "error" and record.frames == ()
        assert summary_line(record).endswith(" rho=- delta=- outcome=error")


def _frame_runs():
    # every builtin x start x mode at a start-only, a budget-cut and a full
    # budget; runs that cannot start are left out
    for problem, _ in builtin_problems():
        for x0_id in ("feasible-0", "infeasible-0"):
            for mode in (MODE_PIP, MODE_EXTREME_BARRIER):
                for budget in (1, 60, 1500):
                    config = SolverConfig(max_evaluations=budget, seed=3, mode=mode)
                    try:
                        yield solve(problem, initial_point(problem, x0_id), config, x0_id=x0_id)
                    except InitializationError:
                        pass


class TestFrames:
    def test_frames_are_what_each_iteration_was_priced_under(self):
        outcomes = set()
        moves = 0
        for record in _frame_runs():
            frames, entries = record.frames, expand_iterations(record)
            last_row = [row for row in with_row_keys(record.events) if "eval_index" in row][-1]
            pip = record.mode == MODE_PIP
            assert [frame["frame"] for frame in frames] == list(range(len(frames)))
            # frame k + 1 is what iteration k left, so the last frame is the
            # state the run stopped in, whether the budget cut an iteration
            # or not
            assert last_row["iteration"] in (len(frames) - 2, len(frames) - 1)
            assert (frames[-1]["delta_frame"] < DELTA_STOP) == (record.outcome == "delta-converged")
            # the history holds every frame, the one the run stopped in too
            lines = record.events
            assert [line for line in lines if "frame" in line] == list(frames)
            for frame in frames:
                assert (frame["rho"] is None) == (frame["g_int"] is None) == (not pip)
            # the start row is priced as iteration 1 is
            assert dict(frames[1], frame=0) == frames[0]
            cuts = {it for it, _ in record.rho_trace}
            for before, entry, after in zip(frames[1:], entries, frames[2:]):
                # rho changes exactly at rho_trace's iterations, by one
                # contraction, where the criterion fires on the frames
                changed = after["rho"] != before["rho"]
                assert changed == (entry["iteration"] in cuts)
                if pip:
                    fires = not entry["success"] and penalty_update_check(
                        after["delta_frame"], entry["phi_prox"], before["rho"]
                    )
                    assert changed == fires
                    if changed:
                        assert after["rho"] == before["rho"] * THETA_RHO
                    moved = before["g_int"] + tuple(entry["partition_moved"])
                    assert after["g_int"] == tuple(sorted(moved))
            # a last iteration that the budget cut has rows and no entry
            cut = last_row["iteration"] == len(entries) + 1
            outcomes.add((record.outcome, cut, not entries))
            moves += len(record.partition_trace)
        assert outcomes == {
            ("budget-exhausted", False, True),
            ("budget-exhausted", True, False),
            ("budget-exhausted", False, False),
            ("delta-converged", False, False),
        }
        assert moves > 0


class TestExtremeBarrier:
    def test_unit_disk_baseline(self):
        problem, optimum = builtin_problem("unit-disk")
        x0 = initial_point(problem, "feasible-0")
        record = solve(problem, x0, SolverConfig(max_evaluations=1500, seed=1, mode="extreme-barrier"))
        assert record.mode == "extreme-barrier"
        assert record.best_feasible_f == pytest.approx(optimum.f_star, abs=1e-3)

    def test_infeasible_start_rejected(self):
        problem, _ = builtin_problem("unit-disk")
        x0 = initial_point(problem, "infeasible-0")
        with pytest.raises(InitializationError):
            solve(problem, x0, SolverConfig(max_evaluations=100, seed=1, mode="extreme-barrier"))

    def test_equality_problem_rejected(self):
        problem, _ = builtin_problem("sphere-eq")
        x0 = initial_point(problem, "feasible-0")
        with pytest.raises(InitializationError):
            solve(problem, x0, SolverConfig(max_evaluations=100, seed=1, mode="extreme-barrier"))

    @pytest.mark.parametrize("name", ["unit-disk", "maxabs-lin", "two-ring"])
    def test_clean_runs_replay_clean(self, name):
        problem, _ = builtin_problem(name)
        for seed in (1, 2, 3, 4):
            config = SolverConfig(max_evaluations=1500, seed=seed, mode=MODE_EXTREME_BARRIER)
            record = solve(problem, initial_point(problem, "feasible-0"), config)
            assert check_run_invariants(record) == ([], [])

    def test_replay_checks_row_statuses(self):
        # a row priced at f when feasible and +inf otherwise
        problem, _ = builtin_problem("unit-disk")
        config = SolverConfig(max_evaluations=1500, seed=1, mode=MODE_EXTREME_BARRIER)
        record = solve(problem, initial_point(problem, "feasible-0"), config)
        events = record.events
        i, row = next(
            (i, row) for i, row in enumerate(with_row_keys(events)) if row.get("status") == "poll-success"
        )
        events[i] = dict(events[i], status="unsuccessful")
        assert check_run_invariants(record) == (
            [f"iteration {row['iteration']}: eval {row['eval_index']} lowers the merit but is unsuccessful"],
            [],
        )

    def test_matches_pip_on_unconstrained(self):
        # with no constraints the merit equals f, so both modes follow the
        # same trajectory given the same seed
        problem = Problem("sphere", 2, 0, 0, lambda x: (x[0] ** 2 + x[1] ** 2, (), ()))
        config = SolverConfig(max_evaluations=300, seed=7, search_enabled=False)
        pip = solve(problem, (1.0, -0.7), config)
        baseline = solve(problem, (1.0, -0.7), replace(config, mode="extreme-barrier"))

        def rows(record):
            return [
                (r["x"], r["f"], r["status"], r["iteration"])
                for r in with_row_keys(record.events) if "eval_index" in r
            ]

        assert rows(pip) == rows(baseline)


# (problem, x0_id): (iterations of the rho cuts, partition moves) at seed 5
# and budget 1500; rho starts at 0.1 and shrinks by 1e-2 at each cut
PINNED_TRACES = {
    ("unit-disk", "feasible-0"): ([12, 40, 71, 120, 134], []),
    ("unit-disk", "infeasible-0"): ([18, 36, 73, 138, 156], [(1, 0)]),
    ("sphere-eq", "feasible-0"): ([30, 54, 73, 150, 172], []),
    ("sphere-eq", "infeasible-0"): ([52, 82, 103, 174], []),
    ("sphere-eq-3", "feasible-0"): ([14, 80, 119, 160, 190], []),
    ("sphere-eq-3", "infeasible-0"): ([28, 80, 99, 122, 224], []),
    ("mixed-kkt", "feasible-0"): ([22, 86, 143], []),
    ("mixed-kkt", "infeasible-0"): ([46, 200, 273], []),
    ("maxabs-lin", "feasible-0"): ([16, 38, 67, 92, 110], []),
    ("maxabs-lin", "infeasible-0"): ([26, 44, 59, 80, 112], [(2, 0)]),
    ("two-ring", "feasible-0"): ([18, 42, 67, 94, 108], []),
    ("two-ring", "infeasible-0"): ([24, 46, 81, 114, 174], [(2, 0)]),
}

# (problem, x0_id, mode): SHA-256 of a run's rows (expanded back to the
# full layout), iterations, params (history_expansion.params_of) and
# invariant verdicts, encoded as JSON, at seed 5 and budget 1500; a run that
# cannot start is pinned by its error text
PINNED_RUNS = {
    ("unit-disk", "feasible-0", "pip"): "f9ad0d7e4a17b40be7cd3fd627b8192ee818c4dc514b827718247e5227dd4cd4",
    ("unit-disk", "feasible-0", "extreme-barrier"): "d39a9b9ecc480143193a60c3e285ae461e60ced0aa44b134bd4e3e3bedf40263",
    ("unit-disk", "infeasible-0", "pip"): "cb12b1c7cda4be9de595618e32f74c8aa7fcd7a1c4fb5754871228176e79ba66",
    ("unit-disk", "infeasible-0", "extreme-barrier"): "extreme-barrier mode needs a feasible starting point",
    ("sphere-eq", "feasible-0", "pip"): "af64d614bc7020e38b7b2465aaf117c33567c684bf9b061bf0efada9756d7745",
    ("sphere-eq", "feasible-0", "extreme-barrier"): "extreme-barrier mode handles inequality constraints only (p must be 0)",
    ("sphere-eq", "infeasible-0", "pip"): "ff32456daca2d0555552da640b1b7b64da9cd587b89a32b72d54b0268cf12472",
    ("sphere-eq", "infeasible-0", "extreme-barrier"): "extreme-barrier mode handles inequality constraints only (p must be 0)",
    ("sphere-eq-3", "feasible-0", "pip"): "38c99f1f11d1d4d7806f4b331770323e63e5e8ea986afd8046a5d6f859f92c96",
    ("sphere-eq-3", "feasible-0", "extreme-barrier"): "extreme-barrier mode handles inequality constraints only (p must be 0)",
    ("sphere-eq-3", "infeasible-0", "pip"): "87f286187e22f36d8153dd66a91498b581d2158e5fd2c617098d1f502be0ed5b",
    ("sphere-eq-3", "infeasible-0", "extreme-barrier"): "extreme-barrier mode handles inequality constraints only (p must be 0)",
    ("mixed-kkt", "feasible-0", "pip"): "f0ae807911979bae0476ffcb4eceaa534d6838a3dfd97225aa526a6cfc0048b1",
    ("mixed-kkt", "feasible-0", "extreme-barrier"): "extreme-barrier mode handles inequality constraints only (p must be 0)",
    ("mixed-kkt", "infeasible-0", "pip"): "f772cb214a6a8dd9629aea884cbea2d4cf2c29b5190ffedbfbf58dd037d26130",
    ("mixed-kkt", "infeasible-0", "extreme-barrier"): "extreme-barrier mode handles inequality constraints only (p must be 0)",
    ("maxabs-lin", "feasible-0", "pip"): "8509ac2c23d1dd09d9ee21e85630898814328dedb49f96e96c039bede43ad335",
    ("maxabs-lin", "feasible-0", "extreme-barrier"): "5524ecd1e8d7ac25a2b6b68d3c3837ee8eb59c603ae5ba397ebda51ef1234e13",
    ("maxabs-lin", "infeasible-0", "pip"): "2c46651fdec7d5f75255acdc597d5bde751736df77810a29ed0227b6a7cd38ce",
    ("maxabs-lin", "infeasible-0", "extreme-barrier"): "extreme-barrier mode needs a feasible starting point",
    ("two-ring", "feasible-0", "pip"): "91fd3a0a4847ba66b4c3aefc0610a930ddbf73f9cacce0cfdb0f0dd38a6ac21c",
    ("two-ring", "feasible-0", "extreme-barrier"): "d12b025445d10685ade9df03ed7ab0faf54557b5df7c52aead1f6957fd83348d",
    ("two-ring", "infeasible-0", "pip"): "111eda7aff47eeb57ae013463b8e09705ef65fff58c7c28d0402cda74ed4e301",
    ("two-ring", "infeasible-0", "extreme-barrier"): "extreme-barrier mode needs a feasible starting point",
}


def _run_digest(record):
    # the rows, and the iteration entries rebuilt from frames and rows, in
    # the full layouts they were pinned in
    rows = expand(record.events)[:-1]
    blob = json.dumps(
        [rows, expand_iterations(record), params_of(record), check_run_invariants(record)],
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class TestPinnedTraces:
    def test_rho_and_partition_traces(self):
        seen = set()
        for problem, _ in builtin_problems():
            for x0_id in ("feasible-0", "infeasible-0"):
                record = solve(
                    problem, initial_point(problem, x0_id),
                    SolverConfig(max_evaluations=1500, seed=5), x0_id=x0_id,
                )
                cuts, moves = PINNED_TRACES[problem.name, x0_id]
                rho, expected = 0.1, []
                for it in cuts:
                    rho *= 1e-2
                    expected.append((it, rho))
                assert record.rho_trace == expected
                assert record.partition_trace == moves
                assert check_run_invariants(record)[0] == []
                seen.add((problem.name, x0_id))
        assert seen == set(PINNED_TRACES)

    def test_rows_and_iterations_pinned(self):
        seen = {}
        for problem, _ in builtin_problems():
            for x0_id in ("feasible-0", "infeasible-0"):
                for mode in (MODE_PIP, MODE_EXTREME_BARRIER):
                    config = SolverConfig(max_evaluations=1500, seed=5, mode=mode)
                    try:
                        record = solve(problem, initial_point(problem, x0_id), config, x0_id=x0_id)
                    except InitializationError as exc:
                        seen[problem.name, x0_id, mode] = str(exc)
                    else:
                        seen[problem.name, x0_id, mode] = _run_digest(record)
        assert seen == PINNED_RUNS

    @pytest.mark.parametrize("budget", [1, 37, 1500])
    def test_replay_needs_only_the_history(self, tmp_path, budget):
        # the written history is the run's events, last frame and stop line
        # included (at budget 1 the last frame is frame 1, with no row
        # after it), and a record of it read back is the run again: the
        # same summary attributes and the in-memory replay verdict
        replayed = 0
        for problem, _ in builtin_problems():
            for x0_id in ("feasible-0", "infeasible-0"):
                for mode in (MODE_PIP, MODE_EXTREME_BARRIER):
                    config = SolverConfig(max_evaluations=budget, seed=5, mode=mode)
                    try:
                        record = solve(problem, initial_point(problem, x0_id), config, x0_id=x0_id)
                    except InitializationError:
                        continue
                    path = tmp_path / f"{problem.name}-{x0_id}-{mode}.jsonl"
                    write_history(record.events, path)
                    back = RunRecord(*record.key, record.n, events=read_history(path))
                    assert back.events == json.loads(json.dumps(record.events))
                    assert "stop" in back.events[-1]
                    last = back.frames[-1]
                    assert last == json.loads(json.dumps(record.frames[-1]))
                    if budget == 1:
                        assert back.events[-2] == last and last["frame"] == 1
                    assert (back.outcome, back.evals_used, back.best_feasible_f) == (
                        record.outcome, record.evals_used, record.best_feasible_f
                    )
                    assert back.steps == record.steps
                    assert check_run_invariants(back) == check_run_invariants(record)
                    replayed += 1
        assert replayed == 15  # 12 pip runs, 3 extreme-barrier

    @staticmethod
    def _cut_run():
        # unit-disk (m = 1) cuts rho at iterations 12, 32, 49, 68 and 164 and
        # moves no index
        problem, _ = builtin_problem("unit-disk")
        return solve(
            problem, initial_point(problem, "feasible-0"),
            SolverConfig(max_evaluations=600, seed=3), x0_id="feasible-0",
        )

    def test_corrupted_run_verdicts(self):
        record = self._cut_run()
        events = record.events

        def first(k, success):
            # the event index of iteration k's first success row, or first
            # unsuccessful one
            statuses = ("search-success", "poll-success") if success else ("unsuccessful",)
            return next(
                i for i, row in enumerate(with_row_keys(events))
                if row.get("iteration") == k and row["status"] in statuses
            )

        for i, status in ((first(13, True), "unsuccessful"), (first(48, False), "poll-success")):
            events[i] = dict(events[i], status=status)
        i = first(100, True)
        events[i] = dict(events[i], f=events[i]["f"] + 1.0)
        record.frames[13]["delta_frame"] = 1.0
        violations, warnings = check_run_invariants(record)
        # the frame rule follows the re-priced merits: frame 13 neither
        # halves frame 12 nor is halved by frame 14, and iteration 100, no
        # success once re-priced, grew its frame after one row
        assert violations == [
            "iteration 12: frame 13's delta_frame 1.0 is not 0.625",
            "iteration 12: delta_next 1.0 exceeds criterion bound 0.9999999976974148",
            "iteration 13: eval 44 lowers the merit but is unsuccessful",
            "iteration 13: frame 14's delta_frame 1.25 is not 2.0",
            "iteration 48: eval 168 is poll-success but does not lower the merit",
            "iteration 100: eval 337 is search-success but does not lower the merit",
            "iteration 100: frame 101's delta_frame 2.384185791015625e-06 is not 5.960464477539062e-07",
            "iteration 100: 1 rows without a success, not 4 or 5",
        ]
        assert warnings == []

    @staticmethod
    def _flat_run():
        # the merit is f under every frame: the interior constraint's g = -2
        # gives c_int = -1, whose barrier log is 0, and the exterior one's
        # g = 0 no penalty, so an edit of rho or of an interior set without
        # index 1 changes no row's price
        problem = Problem("flat", 2, 2, 0, lambda x: (x[0] ** 2 + x[1] ** 2, (-2.0, 0.0), ()))
        record = solve(problem, (1.0, -0.7), SolverConfig(max_evaluations=1500, seed=7))
        assert record.outcome == "delta-converged"
        assert record.frames[-1]["g_int"] == (0,) and record.partition_trace == []
        assert check_run_invariants(record) == ([], [])
        return record

    @pytest.mark.parametrize("case", [
        "lowers-but-unsuccessful", "success-not-lowering", "contraction", "cut-at-success",
        "criterion-bound", "move-at-cut", "interior-shrinks", "incumbent-not-interior",
        "frame-1-resized", "success-keeps-the-frame", "poll-too-long",
    ])
    def test_each_corruption_gives_its_one_message(self, case):
        record = self._flat_run()
        events, frames = record.events, record.frames
        cuts = [k for k, _ in record.rho_trace]
        if case == "lowers-but-unsuccessful":
            i, row = next(
                (i, row) for i, row in enumerate(with_row_keys(events)) if row.get("status") == "poll-success"
            )
            events[i] = dict(events[i], status="unsuccessful")
            message = f"iteration {row['iteration']}: eval {row['eval_index']} lowers the merit but is unsuccessful"
        elif case == "success-not-lowering":
            # past frame 0 and the start row
            i, row = next(
                (i, row) for i, row in enumerate(with_row_keys(events)[2:], 2) if row.get("status") == "unsuccessful"
            )
            events[i] = dict(events[i], status="poll-success")
            message = f"iteration {row['iteration']}: eval {row['eval_index']} is poll-success but does not lower the merit"
        elif case == "contraction":
            # every frame after the last cut at half its rho
            for frame in frames[cuts[-1] + 1:]:
                frame["rho"] *= 0.5
            before, after = frames[cuts[-1]]["rho"], frames[cuts[-1] + 1]["rho"]
            message = f"rho at iteration {cuts[-1]} is {after!r}, expected {before * THETA_RHO!r}"
        elif case == "cut-at-success":
            # the last success before the last cut takes over the next cut
            k = max(k for k in range(1, cuts[-1]) if succeeded(record, k))
            for frame in frames[k + 1:min(c for c in cuts if c > k) + 1]:
                frame["rho"] *= THETA_RHO
            message = f"rho reduced at successful iteration {k}"
        elif case == "criterion-bound":
            # the first cut moves to the last failure before it, whose next
            # frame the solver found still above the bound
            k = max(k for k in range(1, cuts[0]) if not succeeded(record, k))
            for frame in frames[k + 1:cuts[0] + 1]:
                frame["rho"] *= THETA_RHO
            bound = B_RHO * frames[k]["rho"] ** BETA
            message = f"iteration {k}: delta_next {frames[k + 1]['delta_frame']!r} exceeds criterion bound {bound!r}"
        elif case == "move-at-cut":
            # index 0 enters the interior set at the first cut
            for frame in frames[:cuts[0] + 1]:
                frame["g_int"] = ()
            message = f"iteration {cuts[0]}: partition switch and rho reduction in the same iteration"
        elif case == "interior-shrinks":
            for frame in frames[2:]:
                frame["g_int"] = ()
            message = "iteration 1: frame 2's g_int does not contain frame 1's"
        elif case == "frame-1-resized":
            frames[0]["delta_frame"] *= 2
            message = f"frame 1's delta_frame {frames[1]['delta_frame']!r} is not frame 0's {frames[0]['delta_frame']!r}"
        elif case == "success-keeps-the-frame":
            # every frame after the first success at half its size
            k = next(k for k in range(1, len(frames) - 1) if succeeded(record, k))
            for frame in frames[k + 1:]:
                frame["delta_frame"] /= 2
            before = frames[k]["delta_frame"]
            message = f"iteration {k}: frame {k + 1}'s delta_frame {before!r} is not {2 * before!r}"
        elif case == "poll-too-long":
            # a cache-hit row of a failed iteration written twice more
            i, row = next(
                (i, row) for i, row in enumerate(with_row_keys(events))
                if row.get("status") == "cache-hit" and not succeeded(record, row["iteration"])
            )
            k = row["iteration"]
            rows = sum(row.get("iteration") == k for row in with_row_keys(events)) + 2
            events[i:i] = [events[i], events[i]]
            message = f"iteration {k}: {rows} rows without a success, not 4 or 5"
        else:
            # index 1 (g = 0, never strictly feasible) enters at the last
            # iteration, so no evaluation has a finite merit
            last = len(frames) - 2
            assert last not in cuts
            frames[-1]["g_int"] = (0, 1)
            message = f"iteration {last}: incumbent c_int 0.0 not negative"
        assert check_run_invariants(record) == ([message], [])


class TestInvariantChecker:
    def test_clean_run_has_no_violations(self):
        problem, _ = builtin_problem("maxabs-lin")
        x0 = initial_point(problem, "feasible-0")
        record = solve(problem, x0, SolverConfig(max_evaluations=1000, seed=3))
        violations, warnings = check_run_invariants(record)
        assert violations == []

    def test_late_frame_warning_prices_the_moved_partition(self):
        # maxabs-lin's one constraint starts exterior (c_int = -1 at every
        # point) and moves to the interior set at iteration 2; the late cut
        # at iteration 134 polls a point just outside it
        problem, _ = builtin_problem("maxabs-lin")
        record = solve(
            problem, initial_point(problem, "infeasible-0"), SolverConfig(1500, seed=8)
        )
        assert record.partition_trace == [(2, 0)]
        late = "iteration 134: evaluated frame point with c_int {} (late-run frame not strictly interior)"
        assert check_run_invariants(record) == ([], [late.format("4.146211152189494e-10")])
        # a strictly interior frame point whose f came back NaN is stored
        # as a failure, f = +inf beside finite g, and its c_int is +inf
        i, row = next(
            (i, row) for i, row in enumerate(with_row_keys(record.events))
            if row.get("iteration") == 134 and row["eval_index"] is not None and row["g"][0] < 0.0
        )
        record.events[i] = dict(record.events[i], f=INF, status="failed")
        assert sorted(check_run_invariants(record)[1]) == [
            late.format("4.146211152189494e-10"), late.format("inf"),
        ]

    def test_detects_corrupted_rho_trace(self):
        problem, _ = builtin_problem("unit-disk")
        x0 = initial_point(problem, "feasible-0")
        record = solve(problem, x0, SolverConfig(max_evaluations=600, seed=3))
        first_cut = record.rho_trace[0][0]
        record.frames[first_cut + 1]["rho"] = 0.05
        violations, _ = check_run_invariants(record)
        assert any("expected" in v for v in violations)
        # the corrupted frame prices iteration 13 under rho = 0.05, where
        # its poll success does not lower the merit, so 13 reads as an
        # unsuccessful cut whose next frame neither halves nor meets the
        # criterion bound, after a poll cut short
        assert violations == [
            "rho at iteration 12 is 0.05, expected 0.001",
            "iteration 13: eval 44 is poll-success but does not lower the merit",
            "iteration 13: frame 14's delta_frame 1.25 is not 0.3125",
            "iteration 13: 3 rows without a success, not 4 or 5",
            "rho at iteration 13 is 0.001, expected 0.0005",
            "iteration 13: delta_next 1.25 exceeds criterion bound 0.4999999985021337",
        ]

    def test_detects_merit_increase(self):
        problem, _ = builtin_problem("unit-disk")
        x0 = initial_point(problem, "feasible-0")
        record = solve(problem, x0, SolverConfig(max_evaluations=600, seed=3))
        frames = record.frames
        # the last success row in an iteration that leaves rho and g_int as
        # they were, its f raised
        i = max(
            i for i, row in enumerate(with_row_keys(record.events))
            if row.get("status") in ("search-success", "poll-success") and row["iteration"] + 1 < len(frames)
            and frames[row["iteration"] + 1]["rho"] == frames[row["iteration"]]["rho"]
        )
        row = with_row_keys(record.events)[i]
        record.events[i] = dict(record.events[i], f=row["f"] + 1.0)
        violations, _ = check_run_invariants(record)
        assert violations[0] == (
            f"iteration {row['iteration']}: eval {row['eval_index']} is {row['status']} "
            "but does not lower the merit"
        )

    FRAME_0 = {"frame": 0, "rho": 0.1, "delta_frame": 10.0, "g_int": ()}
    START = {"eval_index": 0, "x": (0.5, 0.5), "f": 0.5, "g": (-0.5,), "h": (), "status": "unsuccessful"}
    STOP = {"stop": "budget-exhausted", "n": 2, "count": 1, "steps": [], "builtin": True}

    @pytest.mark.parametrize("events", [
        [FRAME_0],
        [FRAME_0, dict(FRAME_0, frame=1)],
        [FRAME_0, STOP],
        [STOP],
        [START, FRAME_0],
        [dict(FRAME_0, frame=1), START],
        [FRAME_0, dict(START, eval_index=None, f=None, g=None, h=None, status="rejected-bounds")],
    ], ids=["frame-0", "two-frames", "frame-0-stop", "stop", "row-first", "frame-1-first", "rejection"])
    def test_events_that_do_not_start_a_run_give_one_violation(self, events):
        record = RunRecord("unit-disk", "feasible-0", 1, MODE_PIP, 2, events=events)
        assert check_run_invariants(record) == (
            ["the events do not start with frame 0 and the start row"], []
        )

    @staticmethod
    def _budget_60_run():
        problem, _ = builtin_problem("unit-disk")
        return solve(
            problem, initial_point(problem, "feasible-0"),
            SolverConfig(max_evaluations=60, seed=3), x0_id="feasible-0",
        )

    def _budget_60_record(self, tmp_path, read_back):
        """The budget-60 run, as solved or read back from its history."""
        record = self._budget_60_run()
        assert check_run_invariants(record) == ([], [])
        if read_back:
            path = tmp_path / "run.jsonl"
            write_history(record.events, path)
            record = RunRecord(*record.key, record.n, events=read_history(path))
        return record

    @pytest.mark.parametrize("edit", [
        {"eval_index": 31}, {"eval_index": -1}, {"eval_index": 30.0}, {"eval_index": "30"},
        {"eval_index": True}, {"g": None}, {"f": None}, {"status": None}, {"g": []},
    ], ids=[
        "skips-ahead", "negative", "float", "string", "bool", "g-null", "f-null", "status-null",
        "g-shorter-than-m",
    ])
    @pytest.mark.parametrize("read_back", [False, True], ids=["in-memory", "read-back"])
    def test_a_row_the_replay_cannot_price_gives_one_violation(self, tmp_path, edit, read_back):
        record = self._budget_60_record(tmp_path, read_back)
        # the new evaluation 30, mid-run
        i = next(i for i, event in enumerate(record.events) if event.get("eval_index") == 30)
        record.events[i] = dict(record.events[i], **edit)
        violations, _ = check_run_invariants(record)
        assert len(violations) == 1 and violations[0].startswith(f"event {i}: ")

    @pytest.mark.parametrize("line", [[0.0, 1.0], 5, None], ids=["array", "number", "null"])
    @pytest.mark.parametrize("read_back", [False, True], ids=["in-memory", "read-back"])
    def test_a_line_that_is_not_an_object_gives_one_violation(self, tmp_path, read_back, line):
        record = self._budget_60_record(tmp_path, read_back)
        mid = next(i for i, event in enumerate(record.events) if event.get("eval_index") == 30)
        for i, expected in (
            (0, "the events do not start with frame 0 and the start row"),
            (mid, f"event {mid}: the line is not an object"),
        ):
            events = list(record.events)
            events[i] = line
            violations, _ = check_run_invariants(RunRecord(*record.key, record.n, events=events))
            assert violations == [expected]

    @pytest.mark.parametrize("line", [[0.0, 1.0], 5, None, "eval_index frame"], ids=["array", "number", "null", "string"])
    @pytest.mark.parametrize("read_back", [False, True], ids=["in-memory", "read-back"])
    def test_rows_and_frames_pass_over_a_line_that_is_not_an_object(self, tmp_path, read_back, line):
        record = self._budget_60_record(tmp_path, read_back)
        mid = next(i for i, event in enumerate(record.events) if event.get("eval_index") == 30)
        events = list(record.events)
        events.insert(mid, line)
        edited = RunRecord(*record.key, record.n, events=events)
        assert (edited.rows, edited.frames) == (record.rows, record.frames)

    @pytest.mark.parametrize("edit", [
        {"rho": None}, {"rho": 0.0}, {"rho": "0.1"}, {"g_int": None}, {"g_int": [1]},
        {"g_int": [0.0]}, {"g_int": [0, 0]}, {"delta_frame": None}, {"delta_frame": 0.0},
        {"delta_frame": -10.0}, {"delta_frame": INF}, {"delta_frame": "10.0"}, {"frame": None},
        {"frame": 5.0}, {"frame": "5"}, {"frame": True},
    ], ids=[
        "rho-null", "rho-zero", "rho-string", "g_int-null", "g_int-past-m", "g_int-float",
        "g_int-twice", "delta-null", "delta-zero", "delta-negative", "delta-inf",
        "delta-string", "frame-null", "frame-float", "frame-string", "frame-bool",
    ])
    @pytest.mark.parametrize("read_back", [False, True], ids=["in-memory", "read-back"])
    def test_a_frame_the_replay_cannot_use_gives_one_violation(self, tmp_path, edit, read_back):
        record = self._budget_60_record(tmp_path, read_back)
        frames = [i for i, event in enumerate(record.events) if "frame" in event]
        # frame 5 mid-run, and frame 0 where the edit keeps it frame 0
        for i in frames[5:6] + frames[:1] * ("frame" not in edit):
            events = list(record.events)
            events[i] = dict(events[i], **edit)
            violations, _ = check_run_invariants(RunRecord(*record.key, record.n, events=events))
            assert len(violations) == 1 and violations[0].startswith(f"event {i}: "), violations

    def test_an_extreme_barrier_frame_needs_no_rho_or_g_int(self):
        problem, _ = builtin_problem("unit-disk")
        record = solve(
            problem, initial_point(problem, "feasible-0"),
            SolverConfig(max_evaluations=60, seed=3, mode=MODE_EXTREME_BARRIER),
        )
        assert all(frame["rho"] is None and frame["g_int"] is None for frame in record.frames)
        assert check_run_invariants(record) == ([], [])
        i = [i for i, event in enumerate(record.events) if "frame" in event][5]
        record.events[i] = dict(record.events[i], delta_frame=None)
        violations, _ = check_run_invariants(record)
        assert len(violations) == 1 and violations[0].startswith(f"event {i}: ")

    @pytest.mark.parametrize("mode", [MODE_PIP, MODE_EXTREME_BARRIER])
    def test_a_failed_start_row_gives_one_violation(self, mode):
        # a run that cannot evaluate its start stops before any history
        record = self._budget_60_run()
        record.mode = mode
        record.events[1] = dict(record.events[1], f=INF, status="failed")
        assert check_run_invariants(record) == (["event 1: the start evaluation failed"], [])

    @pytest.mark.parametrize("edit", [{"g": None}, {"status": None}], ids=["g-null", "status-null"])
    def test_a_bad_cache_hit_or_start_row_gives_one_violation(self, edit):
        record = self._budget_60_run()
        hit = next(i for i, event in enumerate(record.events) if event.get("status") == "cache-hit")
        for i in (1, hit):  # the start row, and a cache hit
            events = list(record.events)
            events[i] = dict(events[i], **edit)
            violations, _ = check_run_invariants(RunRecord(*record.key, record.n, events=events))
            assert len(violations) == 1 and violations[0].startswith(f"event {i}: ")

    @pytest.mark.parametrize("edit", [
        lambda stop: {"count": stop["count"] + 5}, lambda stop: {"count": stop["count"] - 1},
        lambda stop: {"steps": [[0, -5.0]]}, lambda stop: {"steps": stop["steps"][:-1]},
        lambda stop: {"n": 7}, lambda stop: {"n": 1}, lambda stop: {"stop": "delta-converged"},
        lambda stop: {"stop": "interrupted"},
    ], ids=[
        "count-more", "count-less", "steps-other", "steps-fewer", "n-more", "n-less",
        "converged-unconverged", "unknown-outcome",
    ])
    @pytest.mark.parametrize("read_back", [False, True], ids=["in-memory", "read-back"])
    def test_a_stop_line_that_lies_gives_one_violation(self, tmp_path, edit, read_back):
        # each edit leaves a line that profile reads, but not the one this
        # run's rows and frames end in: a budget-exhausted run of 60
        # evaluations in 2 variables with 8 improvements
        record = self._budget_60_record(tmp_path, read_back)
        stop = record.events[-1]
        record.events[-1] = dict(stop, **edit(stop))
        violations, _ = check_run_invariants(record)
        last = len(record.events) - 1
        assert len(violations) == 1 and violations[0].startswith(f"event {last}: stop line: "), violations

    @pytest.mark.parametrize("edit", [
        {"steps": 5}, {"steps": "ab"}, {"steps": None}, {"steps": [[0, "1.0"]]}, {"count": -1},
        {"count": 60.0}, {"n": True}, {"builtin": 1}, {"stop": None}, {"stop": ["budget-exhausted"]},
    ], ids=[
        "steps-number", "steps-string", "steps-null", "f-string", "count-negative", "count-float",
        "n-bool", "builtin-number", "stop-null", "stop-list",
    ])
    @pytest.mark.parametrize("read_back", [False, True], ids=["in-memory", "read-back"])
    def test_a_stop_line_no_run_writes_gives_one_violation(self, tmp_path, edit, read_back):
        record = self._budget_60_record(tmp_path, read_back)
        record.events[-1] = dict(record.events[-1], **edit)
        violations, _ = check_run_invariants(record)
        last = len(record.events) - 1
        assert len(violations) == 1 and violations[0].startswith(f"event {last}: stop line: "), violations
        # the record reads a stop line it refuses as none
        assert (record.outcome, record.evals_used, record.steps, record.best_feasible_f) == (
            "error", 0, (), None
        )
        assert "outcome=error" in summary_line(record)

    @pytest.mark.parametrize("read_back", [False, True], ids=["in-memory", "read-back"])
    def test_a_stop_line_before_the_last_line_gives_one_violation(self, tmp_path, read_back):
        record = self._budget_60_record(tmp_path, read_back)
        *body, stop = record.events
        mid = next(i for i, event in enumerate(body) if event.get("eval_index") == 30)
        for events in (body[:mid] + [stop] + body[mid:] + [stop], body[:mid] + [stop] + body[mid:]):
            violations, _ = check_run_invariants(RunRecord(*record.key, record.n, events=events))
            assert violations == [f"event {mid}: a stop line before the last line"]

    @pytest.mark.parametrize("number", [7, 0, -3, 100, None], ids=["7", "0", "-3", "100", "dropped"])
    @pytest.mark.parametrize("read_back", [False, True], ids=["in-memory", "read-back"])
    def test_a_frame_out_of_order_gives_one_violation(self, tmp_path, number, read_back):
        # frame k + 1 follows frame k: frame 5 renumbered or dropped
        record = self._budget_60_record(tmp_path, read_back)
        events = list(record.events)
        i = [i for i, event in enumerate(events) if "frame" in event][5]
        if number is None:
            del events[i]
            i = next(j for j in range(i, len(events)) if "frame" in events[j])  # frame 6
        else:
            events[i] = dict(events[i], frame=number)
        violations, _ = check_run_invariants(RunRecord(*record.key, record.n, events=events))
        assert len(violations) == 1 and violations[0].startswith(f"event {i}: frame "), violations

    def test_rho_reductions_only_at_failures(self):
        problem, _ = builtin_problem("two-ring")
        x0 = initial_point(problem, "feasible-0")
        record = solve(problem, x0, SolverConfig(max_evaluations=1500, seed=5))
        reductions = [it for it, _ in record.rho_trace]
        assert reductions
        assert not any(succeeded(record, it) for it in reductions)

    def test_many_reductions_on_converged_run(self):
        # bounded-level-set run allowed to stop naturally shows the penalty
        # parameter marching to zero
        problem, _ = builtin_problem("unit-disk")
        x0 = initial_point(problem, "feasible-0")
        record = solve(problem, x0, SolverConfig(max_evaluations=100_000, seed=1))
        assert record.outcome == "delta-converged"
        assert len(record.rho_trace) >= 3
