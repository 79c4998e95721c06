import csv
import math
import random
import threading
from xml.etree import ElementTree

import pytest
from hypothesis import given, strategies as st

import madspip.bench
from madspip.bench import (
    ProfileCurve,
    RunView,
    best_feasible_table,
    convergence_index,
    data_profile,
    export,
    feasibility_index,
    feasibility_profile,
    reference_table,
    run_matrix,
    view_of_history,
)
from madspip.problem import is_feasible, read_history, write_history
from madspip.history import improvement_steps, read_row, read_stop, read_stop_line
from madspip.solver import RunRecord, SolverConfig, check_run_invariants, solve
from madspip.suite import Instance, builtin_problem, builtin_problems, initial_point, make_instances


def view(problem, x0_id, seed, mode, n, evals):
    return RunView(problem, x0_id, seed, mode, n, *improvement_steps(evals))


def record_view(record):
    """A finished record's view, from its stop line, with the replay holding
    that stop line to the rows."""
    assert check_run_invariants(record)[0] == [], record.key
    return RunView(*record.key, record.n, record.evals_used, record.steps)


def read_rows(rows):
    """``(status, evaluation)`` of each row, each read after the evaluations
    before it, as the replay reads them."""
    fresh, read = 0, []
    for row in rows:
        status, ev = read_row(row, fresh)
        fresh += ev is not None and ev.eval_index == fresh
        read.append((status, ev))
    return read


A_EVALS = [(10.0, True), (9.0, True), (8.5, True), (8.0, True), (7.0, True), (6.0, True),
           (2.0, True)]


def fixture_views():
    """Three hand-built n=2 instances (groups of three evaluations).

    A: feasible from the first evaluation (f_ref 10), optimal value 2.0
       first reached at evaluation index 6, i.e. group ceil(7/3) = 3.
    B: never feasible.
    C: first feasible at evaluation index 3 (group 2) with value 5.0,
       which is also its best and reference value.
    """
    a = view("A", "feasible-0", 1, "pip", 2, A_EVALS)
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
        # an infinite tau makes the threshold f_star + inf * 0 = nan when
        # f_ref == f_star, so the instance would never count as solved
        for tau in (math.nan, math.inf):
            with pytest.raises(ValueError):
                convergence_index(a, f_star=2.0, f_ref=10.0, tau=tau)

    def test_qualifying_eval_within_group_bounds(self):
        a = fixture_views()[0]
        k = convergence_index(a, f_star=2.0, f_ref=10.0, tau=0.1)
        qualifying_index = 6
        assert (k - 1) * (a.n + 1) < qualifying_index + 1 <= k * (a.n + 1)

    def test_solved_record_view(self):
        problem, optimum = builtin_problem("unit-disk")
        record = solve(
            problem,
            initial_point(problem, "feasible-0"),
            SolverConfig(max_evaluations=300, seed=1),
            x0_id="feasible-0",
        )
        view = record_view(record)
        k = convergence_index(view, optimum.f_star, record.rows[0]["f"], tau=0.5)
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
        twin = view("A", "feasible-0", 1, "eb", 2, A_EVALS)
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


# The per-evaluation definitions that RunView's steps replace, kept as the
# reference: each reads the full (f, feasible) sequence of a run.
def per_eval_convergence(evals, n, threshold):
    for index, (f, feasible) in enumerate(evals):
        if feasible and f <= threshold:
            return math.ceil((index + 1) / (n + 1))
    return None


def per_eval_feasibility(evals, n):
    for index, (_, feasible) in enumerate(evals):
        if feasible:
            return math.ceil((index + 1) / (n + 1))
    return None


def per_eval_best_table(runs):
    table = {}
    for key, _, evals in runs:
        best = table.get(key)
        for f, feasible in evals:
            if feasible and (best is None or f < best):
                best = f
        table[key] = best
    return table


def per_eval_reference_table(runs):
    table = {key: None for key, _, _ in runs}
    from_x0 = set()
    for key, _, evals in runs:
        if evals and evals[0][1]:
            table[key] = evals[0][0]
            from_x0.add(key)
    for key, _, evals in runs:
        if key in from_x0:
            continue
        first = next((f for f, feasible in evals if feasible), None)
        if first is not None:
            table[key] = first if table[key] is None else max(table[key], first)
    return table


def exact(table):
    """A table with each float as its hex string, so -0.0 differs from 0.0."""
    return {key: None if v is None else float.hex(v) for key, v in table.items()}


# ties, repeated values and both zeros are drawn often; a run never writes a
# feasible non-finite f, and stores an infeasible one as +inf
_F = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
_EVAL = st.one_of(
    st.tuples(_F, st.booleans()),
    st.just((math.inf, False)),
)
_RUN = st.tuples(
    st.sampled_from(["P", "Q"]), st.sampled_from(["pip", "eb"]), st.lists(_EVAL, max_size=30)
)


class TestCompressedViews:
    @given(st.lists(_EVAL, max_size=40), st.integers(1, 4), _F, st.floats(0.0, 1e3),
           st.sampled_from([1e-3, 0.1, 1.0]))
    def test_indices_match_the_per_evaluation_definitions(self, evals, n, f_star, gap, tau):
        v = view("P", "feasible-0", 1, "pip", n, evals)
        assert v.count == len(evals)
        assert v.group_count == math.ceil(len(evals) / (n + 1))
        assert feasibility_index(v) == per_eval_feasibility(evals, n)
        f_ref = f_star + gap
        threshold = f_star + tau * (f_ref - f_star)
        assert convergence_index(v, f_star, f_ref, tau) == per_eval_convergence(evals, n, threshold)

    @given(st.lists(_RUN, min_size=1, max_size=6))
    def test_tables_match_the_per_evaluation_definitions(self, runs):
        by_key = {}
        for problem, mode, evals in runs:
            # one run per (instance, mode), as in a bench directory
            by_key.setdefault((problem, "feasible-0", 1, mode), evals)
        keyed = [(key[:3], key[3], evals) for key, evals in by_key.items()]
        views = [view(*key, 2, evals) for key, evals in by_key.items()]
        assert exact(best_feasible_table(views)) == exact(per_eval_best_table(keyed))
        assert exact(reference_table(views)) == exact(per_eval_reference_table(keyed))

    def test_steps_keep_the_first_of_equal_values(self):
        v = view("P", "feasible-0", 1, "pip", 1,
                 [(math.inf, False), (0.0, True), (-0.0, True), (0.0, True), (-1.0, False),
                  (-0.5, True), (-0.5, True)])
        assert v.count == 7
        assert [(i, float.hex(f)) for i, f in v.steps] == [(1, "0x0.0p+0"), (5, "-0x1.0000000000000p-1")]

    def test_empty_history(self):
        v = view_of_history([], "P", "feasible-0", 1, "pip")
        assert (v.n, v.count, v.steps, v.group_count) == (0, 0, (), 0)
        assert feasibility_index(v) is None
        assert best_feasible_table([v]) == reference_table([v]) == {("P", "feasible-0", 1): None}

    def test_a_history_with_lines_and_no_stop_line_has_no_view(self):
        problem, _ = builtin_problem("unit-disk")
        record = solve(problem, initial_point(problem, "feasible-0"), SolverConfig(60, 3),
                       x0_id="feasible-0")
        for events in (record.events[:-1], record.events[:2], record.rows):
            with pytest.raises(ValueError, match="^no stop line$"):
                view_of_history(events, *record.key)


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        views = fixture_views()
        curves = data_profile(views, 0.1, best_feasible_table(views), reference_table(views))
        path = tmp_path / "profile.csv"
        export(curves, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "label,tau,k,fraction"
        assert len(lines) == 1 + len(curves[0].groups)
        expected = [
            f"{curve.label},{curve.tau!r},{k},{fraction!r}"
            for curve in curves
            for k, fraction in zip(curve.groups, curve.fraction)
        ]
        assert lines[1:] == expected

    def test_svg_structure(self, tmp_path):
        views = fixture_views()
        curves = feasibility_profile(views)
        path = tmp_path / "profile.svg"
        export(curves, "svg", path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == len(curves)

    def test_any_label_round_trips(self, tmp_path):
        label = 'a&b<c>,"d"\r\ne'
        curves = [ProfileCurve(label, 0.1, (0, 1), (0.0, 0.5))]
        export(curves, "csv", tmp_path / "p.csv")
        export(curves, "svg", tmp_path / "p.svg")
        with open(tmp_path / "p.csv", newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh))[1:] == [[label, "0.1", "0", "0.0"], [label, "0.1", "1", "0.5"]]
        root = ElementTree.parse(tmp_path / "p.svg").getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[-1] == label.replace("\r\n", "\n")  # XML reads a line break as \n

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

    def test_non_finite_start_is_an_error_record(self):
        problem = builtin_problem("unit-disk")[0]
        good = make_instances([problem], 1, [1])[0]
        bad = Instance(problem, "feasible-1", (math.nan, 0.0), 1)
        records = run_matrix([(good, "pip"), (bad, "pip")], budget=40)
        assert records[good.problem.name, good.x0_id, 1, "pip"].outcome != "error"
        record = records[problem.name, "feasible-1", 1, "pip"]
        assert record.outcome == "error" and record.rows == ()
        assert any("not finite" in flag for flag in record.flags)

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

    def test_read_row_strict_equality_threshold(self):
        rows = [
            {"eval_index": 0, "x": [0.0, 0.0], "f": 1.0, "g": [], "h": [1e-7],
             "status": "unsuccessful"},
            {"eval_index": 1, "x": [0.1, 0.0], "f": 0.5, "g": [], "h": [2e-7],
             "status": "unsuccessful"},
        ]
        evs = [ev for _, ev in read_rows(rows)]
        v = RunView("eqp", "infeasible-0", 1, "pip", 2,
                    *improvement_steps((ev.f, is_feasible(ev)) for ev in evs))
        assert v.count == 2 and v.steps == ()  # neither evaluation is feasible
        curve = feasibility_profile([v])[0]
        assert all(f == 0.0 for f in curve.fraction)

    @pytest.mark.parametrize(
        "row",
        [
            {"eval_index": 0, "x": [0.0], "g": [], "h": [], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": "1.0", "g": [], "h": [], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": 5, "h": [], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": "abc", "h": [], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": [None], "h": [], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": [], "h": {"a": 1.0}, "status": "unsuccessful"},
            {"eval_index": "0", "x": [0.0], "f": 1.0, "g": [], "h": [], "status": "unsuccessful"},
            {"eval_index": [0], "x": [0.0], "f": 1.0, "g": [], "h": [], "status": "unsuccessful"},
            {"eval_index": 0, "f": 1.0, "g": [], "h": [], "status": "unsuccessful"},
            [0.0, 1.0],
            # a run writes every row with its status
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": [], "h": []},
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": [], "h": [], "status": None},
            # true is not index 1, nor the number 1
            {"eval_index": True, "x": [0.0], "f": 1.0, "g": [], "h": [], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": True, "g": [], "h": [], "status": "unsuccessful"},
            # a run writes f as a float; this integer overflows one
            {"eval_index": 0, "x": [0.0], "f": 10**400, "g": [], "h": [], "status": "unsuccessful"},
            # a run stores a non-finite output as +inf: a NaN or -inf f would
            # become every mode's f*, and a NaN or -inf g or h is no output
            {"eval_index": 0, "x": [0.0], "f": math.nan, "g": [], "h": [], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": -math.inf, "g": [-1.0], "h": [0.0], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": [math.nan], "h": [], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": [], "h": [math.nan], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": [], "h": [-math.inf], "status": "unsuccessful"},
            # a run writes every g and h entry as a float; false and 0 compare
            # as the number 0 and would make these rows feasible
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": [False], "h": [], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": [], "h": [False], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": [0], "h": [], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": [-1.0, 0], "h": [], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": [], "h": [0], "status": "unsuccessful"},
            {"eval_index": 0, "x": [0.0], "f": 1.0, "g": [True], "h": [], "status": "unsuccessful"},
            # a run numbers its evaluations 0, 1, 2, ...: a lone row is index 0
            {"eval_index": 1, "x": [0.0], "f": 1.0, "g": [], "h": [], "status": "unsuccessful"},
            {"eval_index": 3, "x": [0.0], "f": 1.0, "g": [], "h": [], "status": "unsuccessful"},
            {"eval_index": -1, "x": [0.0], "f": 1.0, "g": [], "h": [], "status": "unsuccessful"},
            # a run has at least one variable: an empty x would make n = 0
            {"eval_index": 0, "x": [], "f": 1.0, "g": [], "h": [], "status": "unsuccessful"},
        ],
    )
    def test_read_row_rejects_rows_no_run_writes(self, row):
        with pytest.raises(ValueError):
            read_row(row, 0)

    def test_read_row_reads_failed_and_constraint_free_rows(self):
        rows = [
            {"eval_index": 0, "x": [0.0], "f": 2.0, "g": [], "h": [], "status": "unsuccessful"},
            {"eval_index": 1, "x": [1.0], "f": math.inf, "g": [], "h": [], "status": "failed"},
            {"eval_index": None, "x": [9.0], "f": None, "g": None, "h": None,
             "status": "rejected-bounds"},
        ]
        (_, start), (_, failed), rejected = read_rows(rows)
        assert start.point == [0.0] and is_feasible(start) and not start.failed
        assert failed.failed and not is_feasible(failed)
        assert rejected == ("rejected-bounds", None)

    def test_read_row_reads_an_inf_f_as_a_failed_infeasible_row(self):
        # failed is +inf in f, g or h, whatever the status says
        rows = [
            {"eval_index": 0, "x": [0.0], "f": math.inf, "g": [-1.0], "h": [],
             "status": "unsuccessful"},
            {"eval_index": 1, "x": [1.0], "f": 3.0, "g": [-1.0], "h": [], "status": "unsuccessful"},
        ]
        (_, inf_f), (_, ev) = read_rows(rows)
        assert inf_f.failed and not is_feasible(inf_f)
        assert not ev.failed and is_feasible(ev)

    def test_view_of_record_counts_true_evaluations(self):
        problem, _ = builtin_problem("unit-disk")
        record = solve(
            problem,
            initial_point(problem, "feasible-0"),
            SolverConfig(max_evaluations=100, seed=1),
            x0_id="feasible-0",
        )
        v = record_view(record)
        # a cache hit repeats an eval_index and a bound rejection has none
        assert v.count == len({row["eval_index"] for row in record.rows} - {None})

    def test_solver_and_bench_agree_on_feasibility(self, tmp_path):
        # the solver's best feasible f and the view profile reads from the
        # history written to disk must apply the same feasibility rule; the
        # replay holds the stop line to the rows read back
        problems = [p for p, _ in builtin_problems()]
        instances = make_instances(problems, 2, [1])
        jobs = [(inst, mode) for inst in instances for mode in ("pip", "extreme-barrier")]
        checked, feasible_starts = [], set()
        for key, record in run_matrix(jobs, budget=300).items():
            if record.outcome == "error":
                continue  # extreme-barrier on equalities or infeasible starts
            path = tmp_path / ("__".join(map(str, key)) + ".jsonl")
            write_history(record.events, path)
            assert check_run_invariants(RunRecord(*key, record.n, events=read_history(path)))[0] == []
            view = RunView(*key, *read_stop(read_stop_line(path))[1:4])
            best = view.steps[-1][1] if view.steps else None
            assert record.best_feasible_f == best, key
            feasible_starts.add(bool(view.steps) and view.steps[0][0] == 0)
            checked.append(key)
        assert {key[0] for key in checked} == {p.name for p in problems}
        assert {key[3] for key in checked} == {"pip", "extreme-barrier"}
        assert feasible_starts == {True, False}

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            run_matrix([], budget=10)

    def test_on_record_runs_in_the_calling_thread_and_results_keep_job_order(self):
        instances = make_instances([builtin_problem("sphere-eq")[0]], 2, [1, 2])
        jobs = [(inst, mode) for inst in instances for mode in ("pip", "extreme-barrier")]
        keys = [(i.problem.name, i.x0_id, i.seed, mode) for i, mode in jobs]

        def on_record(key, record):
            return key, record.key, threading.get_ident()

        results = run_matrix(jobs, budget=60, on_record=on_record)
        assert list(results) == keys
        assert all(key == handed == record_key for key, (handed, record_key, _) in results.items())
        assert {thread for _, _, thread in results.values()} == {threading.get_ident()}
        # without on_record the records themselves come back, in job order
        records = run_matrix(jobs, budget=60)
        assert [record.key for record in records.values()] == keys

    def test_no_job_starts_after_on_record_raises(self, monkeypatch):
        instances = make_instances([builtin_problem("unit-disk")[0]], 1, [1, 2, 3, 4])
        jobs = [(inst, "pip") for inst in instances]
        solved = []
        real_solve = madspip.bench.solve

        def counting_solve(problem, x0, config, **kwargs):
            solved.append(config.seed)
            return real_solve(problem, x0, config, **kwargs)

        def on_record(key, record):
            if key[2] == 2:
                raise RuntimeError("disk full")

        monkeypatch.setattr(madspip.bench, "solve", counting_solve)
        with pytest.raises(RuntimeError, match="disk full"):
            run_matrix(jobs, budget=20, on_record=on_record)
        assert solved == [1, 2]
