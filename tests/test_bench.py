import random

import pytest

from madspip.bench import (
    ProfileCurve,
    RunView,
    best_feasible_table,
    convergence_index,
    data_profile,
    export,
    feasibility_profile,
    read_curves_csv,
    reference_table,
    run_matrix,
    view_of_history,
)
from madspip.problem import read_history, write_history
from madspip.solver import SolverConfig, solve
from madspip.suite import builtin_problem, builtin_problems, initial_point, make_instances


def view(problem, x0_id, seed, mode, n, evals):
    return RunView(problem=problem, x0_id=x0_id, seed=seed, mode=mode, n=n, evals=tuple(evals))


def fixture_views():
    """Three hand-built n=2 instances (groups of three evaluations).

    A: feasible from the first evaluation (f_ref 10), optimal value 2.0
       first reached at evaluation index 6, i.e. group ceil(7/3) = 3.
    B: never feasible.
    C: first feasible at evaluation index 3 (group 2) with value 5.0,
       which is also its best and reference value.
    """
    a = view("A", "feasible-0", 1, "pip", 2, [(10.0, True), (9.0, True), (8.5, True),
                                              (8.0, True), (7.0, True), (6.0, True),
                                              (2.0, True)])
    b = view("B", "infeasible-0", 1, "pip", 2, [(3.0, False), (2.0, False),
                                                (1.0, False), (0.5, False), (0.1, False)])
    c = view("C", "infeasible-0", 1, "pip", 2, [(9.0, False), (8.0, False),
                                                (7.0, False), (5.0, True)])
    return [a, b, c]


class TestConvergenceIndex:
    def test_group_arithmetic(self):
        a = fixture_views()[0]
        assert convergence_index(a, f_star=2.0, f_ref=10.0, tau=0.1) == 3

    def test_degenerate_tau_one(self):
        a = fixture_views()[0]
        # any feasible point at or below f_ref qualifies
        assert convergence_index(a, f_star=2.0, f_ref=10.0, tau=1.0) == 1

    def test_never_feasible(self):
        b = fixture_views()[1]
        assert convergence_index(b, f_star=0.0, f_ref=3.0, tau=0.5) is None

    def test_argument_errors(self):
        a = fixture_views()[0]
        with pytest.raises(ValueError):
            convergence_index(a, f_star=2.0, f_ref=1.0, tau=0.1)
        with pytest.raises(ValueError):
            convergence_index(a, f_star=2.0, f_ref=10.0, tau=0.0)

    def test_qualifying_eval_within_group_bounds(self):
        a = fixture_views()[0]
        k = convergence_index(a, f_star=2.0, f_ref=10.0, tau=0.1)
        qualifying_index = 6
        assert (k - 1) * (a.n + 1) < qualifying_index + 1 <= k * (a.n + 1)

    def test_accepts_run_records(self):
        problem, optimum = builtin_problem("unit-disk")
        record = solve(
            problem,
            initial_point(problem, "feasible-0"),
            SolverConfig(max_evaluations=300, seed=1),
            x0_id="feasible-0",
        )
        k = convergence_index(record, optimum.f_star, record.f_x0, tau=0.5)
        assert k is not None and k >= 1


class TestTables:
    def test_best_feasible_and_reference(self):
        views = fixture_views()
        f_star = best_feasible_table(views)
        assert f_star[("A", "feasible-0", 1)] == 2.0
        assert f_star[("B", "infeasible-0", 1)] is None
        assert f_star[("C", "infeasible-0", 1)] == 5.0
        f_ref = reference_table(views)
        assert f_ref[("A", "feasible-0", 1)] == 10.0
        assert f_ref[("B", "infeasible-0", 1)] is None
        assert f_ref[("C", "infeasible-0", 1)] == 5.0

    def test_known_optimum_improves(self):
        views = fixture_views()
        f_star = best_feasible_table(views, known={"A": 1.5})
        assert f_star[("A", "feasible-0", 1)] == 1.5

    def test_reference_is_max_of_first_feasible_across_modes(self):
        c1 = view("C", "infeasible-0", 1, "pip", 2, [(9.0, False), (5.0, True)])
        c2 = view("C", "infeasible-0", 1, "eb", 2, [(9.0, False), (6.0, True)])
        f_ref = reference_table([c1, c2])
        assert f_ref[("C", "infeasible-0", 1)] == 6.0


class TestProfiles:
    def test_data_profile_matches_hand_computation(self):
        views = fixture_views()
        curves = data_profile(views, 0.1, best_feasible_table(views), reference_table(views))
        assert len(curves) == 1
        curve = curves[0]
        assert curve.label == "pip"
        assert curve.groups == (0, 1, 2, 3)
        # instance B is dropped from the denominator: C solves at group 2,
        # A at group 3, out of two counted instances
        assert curve.fraction == (0.0, 0.0, 0.5, 1.0)

    def test_feasibility_profile_matches_hand_computation(self):
        views = fixture_views()
        curve = feasibility_profile(views)[0]
        assert curve.tau == 0.0
        assert curve.groups == (0, 1, 2, 3)
        assert curve.fraction == (0.0, 1 / 3, 2 / 3, 2 / 3)

    def test_single_instance_step(self):
        a = fixture_views()[0]
        curves = data_profile([a], 0.1, best_feasible_table([a]), reference_table([a]))
        assert curves[0].fraction == (0.0, 0.0, 0.0, 1.0)

    def test_hopeless_mode_is_identically_zero(self):
        b = fixture_views()[1]
        a = fixture_views()[0]
        f_star, f_ref = best_feasible_table([a, b]), reference_table([a, b])
        losing = view("A", "feasible-0", 1, "eb", 2, [(10.0, True)] + [(9.9, True)] * 6)
        curves = data_profile([a, b, losing], 0.001, f_star, f_ref)
        by_label = {c.label: c for c in curves}
        assert set(by_label) == {"pip", "eb"}
        assert all(f == 0.0 for f in by_label["eb"].fraction)

    def test_identical_records_identical_curves(self):
        a = fixture_views()[0]
        twin = view("A", "feasible-0", 1, "eb", 2, a.evals)
        curves = data_profile([a, twin], 0.1, best_feasible_table([a, twin]), reference_table([a, twin]))
        assert curves[0].fraction == curves[1].fraction

    def test_adding_better_mode_never_raises_existing_curve(self):
        views = fixture_views()
        before = data_profile(views, 0.1, best_feasible_table(views), reference_table(views))[0]
        better = view("A", "feasible-0", 1, "eb", 2, [(10.0, True), (1.0, True)])
        extended = views + [better]
        after_curves = data_profile(
            extended, 0.1, best_feasible_table(extended), reference_table(extended)
        )
        after = {c.label: c for c in after_curves}["pip"]
        assert all(b <= a for a, b in zip(before.fraction, after.fraction))

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            data_profile([], 0.1, {}, {})
        with pytest.raises(ValueError):
            feasibility_profile([])

    def test_randomized_profiles_monotone(self):
        # ProfileCurve construction enforces monotone fractions in [0, 1];
        # sweep randomized record sets through both profile builders
        rng = random.Random(123)
        for trial in range(1000):
            views = []
            for i in range(rng.randint(1, 4)):
                n = rng.randint(1, 4)
                evals = []
                for _ in range(rng.randint(1, 30)):
                    evals.append((rng.uniform(-5, 5), rng.random() < 0.4))
                views.append(view(f"P{i}", "feasible-0", rng.randint(1, 3), "pip", n, evals))
            f_star, f_ref = best_feasible_table(views), reference_table(views)
            for curve in feasibility_profile(views) + data_profile(views, 0.3, f_star, f_ref):
                assert all(b >= a for a, b in zip(curve.fraction, curve.fraction[1:]))
                assert all(0.0 <= f <= 1.0 for f in curve.fraction)


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        views = fixture_views()
        curves = data_profile(views, 0.1, best_feasible_table(views), reference_table(views))
        path = tmp_path / "profile.csv"
        export(curves, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "label,tau,k,fraction"
        assert len(lines) == 1 + len(curves[0].groups)
        reread = read_curves_csv(path)
        assert reread == curves

    def test_svg_structure(self, tmp_path):
        views = fixture_views()
        curves = feasibility_profile(views)
        path = tmp_path / "profile.svg"
        export(curves, "svg", path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == len(curves)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export([], "csv", tmp_path / "x.csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            export([ProfileCurve("a", 0.1, (0,), (0.0,))], "pdf", tmp_path / "x.pdf")


class TestRunMatrix:
    def test_cardinality_and_keys(self):
        problems = [builtin_problem("unit-disk")[0]]
        instances = make_instances(problems, 2, [1, 2])
        jobs = [(inst, mode) for inst in instances for mode in ("pip", "extreme-barrier")]
        records = run_matrix(jobs, budget=60)
        assert len(records) == 8
        for (problem, x0_id, seed, mode), record in records.items():
            assert record.problem_name == problem
            assert record.x0_id == x0_id
            assert record.seed == seed
            assert record.mode == mode

    def test_rerun_identical(self):
        instances = make_instances([builtin_problem("two-ring")[0]], 1, [3])
        a = run_matrix([(inst, "pip") for inst in instances], budget=80)
        b = run_matrix([(inst, "pip") for inst in instances], budget=80)
        key = next(iter(a))
        assert a[key].rows == b[key].rows

    def test_error_isolation(self):
        # the baseline cannot start on an equality-constrained problem or
        # from an infeasible point; those runs carry outcome=error while the
        # rest of the batch completes
        instances = make_instances([builtin_problem("sphere-eq")[0]], 2, [1])
        jobs = [(inst, mode) for inst in instances for mode in ("pip", "extreme-barrier")]
        records = run_matrix(jobs, budget=60)
        outcomes = {key: rec.outcome for key, rec in records.items()}
        assert all(
            outcomes[key] == "error" for key in outcomes if key[3] == "extreme-barrier"
        )
        assert all(outcomes[key] != "error" for key in outcomes if key[3] == "pip")

    def test_view_of_history_strict_equality_threshold(self):
        rows = [
            {"eval_index": 0, "x": [0.0, 0.0], "f": 1.0, "g": [], "h": [1e-7],
             "status": "unsuccessful"},
            {"eval_index": 1, "x": [0.1, 0.0], "f": 0.5, "g": [], "h": [2e-7],
             "status": "unsuccessful"},
        ]
        v = view_of_history(rows, "eqp", "infeasible-0", 1, "pip")
        assert all(not feasible for _, feasible in v.evals)
        curve = feasibility_profile([v])[0]
        assert all(f == 0.0 for f in curve.fraction)

    def test_view_of_record_counts_true_evaluations(self):
        problem, _ = builtin_problem("unit-disk")
        record = solve(
            problem,
            initial_point(problem, "feasible-0"),
            SolverConfig(max_evaluations=100, seed=1),
            x0_id="feasible-0",
        )
        v = view_of_history(record.rows, *record.key)
        assert len(v.evals) == record.evals_used

    def test_solver_and_bench_agree_on_feasibility(self, tmp_path):
        # the solver's best feasible f and the bench's view of the history
        # written to disk must apply the same feasibility rule
        problems = [p for p, _ in builtin_problems()]
        instances = make_instances(problems, 2, [1])
        jobs = [(inst, mode) for inst in instances for mode in ("pip", "extreme-barrier")]
        checked, flags = [], set()
        for key, record in run_matrix(jobs, budget=300).items():
            if record.outcome == "error":
                continue  # extreme-barrier on equalities or infeasible starts
            path = tmp_path / ("__".join(map(str, key)) + ".jsonl")
            write_history(record.rows, path)
            view = view_of_history(read_history(path), *key)
            feasible_f = [f for f, feasible in view.evals if feasible]
            assert record.best_feasible_f == (min(feasible_f) if feasible_f else None), key
            flags.update(feasible for _, feasible in view.evals)
            checked.append(key)
        assert {key[0] for key in checked} == {p.name for p in problems}
        assert {key[3] for key in checked} == {"pip", "extreme-barrier"}
        assert flags == {True, False}

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            run_matrix([], budget=10)
