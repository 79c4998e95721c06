"""Acceptance gate: analytic-optimum reproductions, equality feasibility,
baseline contrast, invariant replay, determinism and the profile engine.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on passing runs).  The expensive run matrices are shared module fixtures.
"""

import math
import random
import time

import mpmath
import pytest

from madspip.bench import (
    RunView,
    best_feasible_table,
    convergence_index,
    data_profile,
    feasibility_profile,
    reference_table,
    run_matrix,
    view_of_history,
)
from madspip.cli import main as cli_main
from madspip.merit import (
    MeritParams,
    Partition,
    compute_b_ext,
    merit,
    penalty_update_check,
    violation_summary,
)
from madspip.mesh import MeshState, snap_steps, update_frame
from madspip.problem import is_feasible, Evaluation
from madspip.solver import SolverConfig, check_run_invariants, improvement_steps, solve
from madspip.suite import builtin_problem, initial_point, make_instances


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def crit2_records():
    problems = [builtin_problem(n)[0] for n in ("unit-disk", "maxabs-lin", "two-ring")]
    instances = make_instances(problems, 2, list(range(1, 11)))
    start = time.monotonic()
    records = run_matrix([(inst, "pip") for inst in instances], budget=1500)
    return records, time.monotonic() - start


@pytest.fixture(scope="module")
def crit3_records():
    problems = [builtin_problem(n)[0] for n in ("sphere-eq", "mixed-kkt")]
    instances = [
        inst
        for inst in make_instances(problems, 2, list(range(1, 11)))
        if inst.x0_id == "infeasible-0"
    ]
    start = time.monotonic()
    records = run_matrix([(inst, "pip") for inst in instances], budget=3000)
    return records, time.monotonic() - start


class TestCriterion1FormulaSuite:
    def test_formula_examples(self):
        start = time.monotonic()
        # interior violation and proximity: (phi_prox, c_int) with every
        # constraint interior
        def interior(g):
            return violation_summary(g, [], Partition(range(len(g)), ()))[:2]

        assert interior([-2.0, -0.5])[0] == -0.5
        assert interior([0.5, -2.0])[0] == 0.5
        assert interior([0.0, -1.0])[0] == 0.0
        assert interior([-3.0, -1.5])[1] == -1.0
        assert interior([-0.5, -0.25])[1] == pytest.approx(-0.125)
        assert interior([0.5, -2.0])[1] == 0.5
        assert interior([])[1] == -1.0

        # exterior violation: c_ext with every inequality exterior
        def exterior(g, h):
            return violation_summary(g, h, Partition((), range(len(g))))[2]

        assert exterior([0.3, -1.0], [0.2]) == pytest.approx(0.13)
        assert exterior([-1.0, -2.0], []) == 0.0
        assert exterior([], [1.0, -1.0]) == pytest.approx(2.0)
        # merit values incl. the high-precision oracle fixture
        p = MeritParams(rho=0.1)
        assert merit(1.0, -1.0, 0.0, p) == 1.0
        assert merit(2.0, 0.0, 0.0, p) == math.inf
        mpmath.mp.dps = 50
        oracle = float(
            mpmath.mpf(2)
            - mpmath.mpf("0.1") * mpmath.log(mpmath.mpf("0.5"))
            + 10 * mpmath.mpf("0.04")
        )
        assert merit(2.0, -0.5, 0.04, p) == pytest.approx(oracle, rel=1e-15)
        # exterior scaling
        assert [compute_b_ext(v) for v in (523.0, 0.0, 0.05, -523.0)] == [100.0, 1.0, 1.0, 100.0]
        # penalty criterion incl. the oracle-settled boundary case
        assert penalty_update_check(1e-4, -1e-3, p) is True
        assert penalty_update_check(0.5, -1.0, p) is True
        assert penalty_update_check(2.0, -1.0, p) is False
        assert penalty_update_check(1e-4, 0.0, p) is False
        # mesh arithmetic: frame delta0 * 2**exp, mesh min(frame, frame**2/delta0)
        for exp, delta_mesh in ((0, 1.0), (-1, 0.25), (1, 2.0)):
            m = MeshState(1.0, exp)
            assert math.ldexp(m.delta0, m.mesh_exp) == delta_mesh
        assert update_frame(MeshState(1.0), True).delta_frame == 2.0
        shrunk = update_frame(MeshState(1.0), False)
        assert (shrunk.delta_frame, math.ldexp(shrunk.delta0, shrunk.mesh_exp)) == (0.5, 0.25)
        assert update_frame(MeshState(1.0, 9), True).delta_frame == 512.0  # growth cap
        # snapping (0.26, -0.24) and 0.125 onto mesh 0.25, in units of 0.001
        assert snap_steps((260, -240), 250) == (1, -1)
        assert snap_steps((125,), 250) == (1,)
        # feasibility rule
        assert is_feasible(Evaluation((0.0,), 1.0, (-0.1,), (5e-9,), 0))
        assert not is_feasible(Evaluation((0.0,), 1.0, (1e-12,), (), 0))
        # profile group arithmetic
        view = RunView("A", "feasible-0", 1, "pip", 2,
                       *improvement_steps([(10.0, True)] * 6 + [(2.0, True)]))
        assert convergence_index(view, 2.0, 10.0, 0.1) == 3
        elapsed = time.monotonic() - start
        passed = elapsed < 5.0
        report("1 formula-unit-suite", passed, f"runtime {elapsed:.2f}s < 5s")
        assert passed


class TestCriterion2AnalyticOptimization:
    def test_inequality_problems_reach_optima(self, crit2_records):
        records, elapsed = crit2_records
        results = []
        for (problem_name, x0_id, seed, _), record in records.items():
            f_star = builtin_problem(problem_name)[1].f_star
            tolerance = 1e-4 * max(1.0, abs(f_star))
            ok = (
                record.best_feasible_f is not None
                and abs(record.best_feasible_f - f_star) <= tolerance
            )
            results.append(ok)
        fraction = sum(results) / len(results)
        passed = fraction >= 0.9 and elapsed < 60.0
        report(
            "2 analytic-optimization",
            passed,
            f"{sum(results)}/{len(results)} instances within tolerance, runtime {elapsed:.1f}s < 60s",
        )
        assert len(results) == 60
        assert fraction >= 0.9
        assert elapsed < 60.0


class TestCriterion3EqualityFeasibility:
    def test_equality_problems(self, crit3_records):
        records, elapsed = crit3_records
        feasible_flags = []
        accuracy_flags = []
        for (problem_name, _, _, _), record in records.items():
            f_star = builtin_problem(problem_name)[1].f_star
            feasible_flags.append(record.best_feasible_f is not None)
            accuracy_flags.append(
                record.best_feasible_f is not None
                and abs(record.best_feasible_f - f_star) <= 1e-3
            )
        feas_fraction = sum(feasible_flags) / len(feasible_flags)
        acc_fraction = sum(accuracy_flags) / len(accuracy_flags)
        passed = feas_fraction >= 0.9 and acc_fraction >= 0.7 and elapsed < 120.0
        report(
            "3 equality-feasibility",
            passed,
            f"feasible {sum(feasible_flags)}/{len(feasible_flags)}, "
            f"f within 1e-3 {sum(accuracy_flags)}/{len(accuracy_flags)}, "
            f"runtime {elapsed:.1f}s < 120s",
        )
        assert len(feasible_flags) == 20
        assert feas_fraction >= 0.9
        assert acc_fraction >= 0.7
        assert elapsed < 120.0


class TestCriterion4BaselineContrast:
    def test_extreme_barrier_inapplicable_on_equalities(self, tmp_path, capsys):
        code = cli_main(
            [
                "solve", "--problem", "sphere-eq", "--x0", "feasible-0",
                "--mode", "extreme-barrier", "--budget", "100",
                "--out", str(tmp_path),
            ]
        )
        capsys.readouterr()
        passed = code == 2
        report("4a baseline-inapplicable-on-equality", passed, f"exit status {code}")
        assert passed

    def test_unit_disk_profile_comparison(self, crit2_records):
        records, _ = crit2_records
        problem, optimum = builtin_problem("unit-disk")
        x0 = initial_point(problem, "feasible-0")
        wins = 0
        for seed in range(1, 11):
            pip_record = records[("unit-disk", "feasible-0", seed, "pip")]
            eb_record = solve(
                problem,
                x0,
                SolverConfig(max_evaluations=1500, seed=seed, mode="extreme-barrier"),
                x0_id="feasible-0",
            )
            pair = [view_of_history(r.rows, *r.key) for r in (pip_record, eb_record)]
            f_star = best_feasible_table(pair, known={"unit-disk": optimum.f_star})
            f_ref = reference_table(pair)
            curves = {c.label: c for c in data_profile(pair, 1e-3, f_star, f_ref)}
            if curves["pip"].fraction[-1] >= curves["extreme-barrier"].fraction[-1]:
                wins += 1
        passed = wins >= 5
        report("4b baseline-contrast-profile", passed, f"pip matches or beats baseline on {wins}/10 seeds")
        assert passed


class TestCriterion5ConvergenceEchoes:
    def test_invariant_replay_all_runs(self, crit2_records, crit3_records):
        all_records = list(crit2_records[0].values()) + list(crit3_records[0].values())
        violations = []
        frame_warnings = 0
        rho_reduction_counts = []
        for record in all_records:
            v, w = check_run_invariants(record)
            violations.extend((record.key, msg) for msg in v)
            frame_warnings += len(w)
            if record.mode == "pip" and record.evals_used >= 3000:
                rho_reduction_counts.append(len(record.rho_trace))
        too_few_reductions = [c for c in rho_reduction_counts if c < 2]
        passed = not violations and not too_few_reductions
        report(
            "5 convergence-theory-echoes",
            passed,
            f"{len(all_records)} runs replayed, {len(violations)} violations, "
            f"{frame_warnings} logged-only frame warnings, "
            f"min reductions per 3000-eval run "
            f"{min(rho_reduction_counts) if rho_reduction_counts else 'n/a'}",
        )
        assert violations == []
        assert too_few_reductions == []


class TestCriterion6Determinism:
    def test_bench_byte_identical(self, tmp_path, capsys):
        outputs = []
        for run in ("first", "second"):
            out_dir = tmp_path / run
            code = cli_main(
                [
                    "bench", "--problem", "unit-disk,two-ring", "--x0-count", "2",
                    "--seeds", "1,2", "--budget", "200", "--mode", "pip,extreme-barrier",
                    "--out", str(out_dir),
                ]
            )
            assert code == 0
            code = cli_main(["profile", "--histories", str(out_dir), "--tau", "0.1,0.001"])
            assert code == 0
            capsys.readouterr()
            files = {
                p.name: p.read_bytes()
                for p in sorted(out_dir.iterdir())
                if p.suffix in (".jsonl", ".csv")
            }
            outputs.append(files)
        same_names = set(outputs[0]) == set(outputs[1])
        same_bytes = same_names and all(outputs[0][k] == outputs[1][k] for k in outputs[0])
        report(
            "6 determinism",
            same_bytes,
            f"{len(outputs[0])} JSONL/CSV files byte-identical across reruns",
        )
        assert same_names and same_bytes


class TestCriterion7ProfileEngine:
    def test_fixture_and_property(self):
        # hand-built three-instance fixture: A solves in group 3, C in group
        # 2, B never becomes feasible and leaves the denominator
        a = RunView("A", "feasible-0", 1, "pip", 2,
                    *improvement_steps([(10.0, True), (9.0, True), (8.5, True), (8.0, True),
                                        (7.0, True), (6.0, True), (2.0, True)]))
        b = RunView("B", "infeasible-0", 1, "pip", 2,
                    *improvement_steps([(3.0, False), (2.0, False), (1.0, False), (0.5, False)]))
        c = RunView("C", "infeasible-0", 1, "pip", 2,
                    *improvement_steps([(9.0, False), (8.0, False), (7.0, False), (5.0, True)]))
        views = [a, b, c]
        data = data_profile(views, 0.1, best_feasible_table(views), reference_table(views))[0]
        feas = feasibility_profile(views)[0]
        exact = data.fraction == (0.0, 0.0, 0.5, 1.0) and feas.fraction == (
            0.0, 1 / 3, 2 / 3, 2 / 3,
        )

        rng = random.Random(777)
        monotone = True
        for _ in range(1000):
            sample = []
            for i in range(rng.randint(1, 4)):
                evals = tuple(
                    (rng.uniform(-5, 5), rng.random() < 0.4)
                    for _ in range(rng.randint(1, 25))
                )
                sample.append(RunView(f"P{i}", "feasible-0", 1, "pip", rng.randint(1, 4),
                                      *improvement_steps(evals)))
            tables = best_feasible_table(sample), reference_table(sample)
            for curve in feasibility_profile(sample) + data_profile(sample, 0.25, *tables):
                if any(b2 < a2 for a2, b2 in zip(curve.fraction, curve.fraction[1:])):
                    monotone = False
        passed = exact and monotone
        report(
            "7 profile-engine",
            passed,
            f"hand fixtures exact={exact}, 1000 randomized sets monotone={monotone}",
        )
        assert exact and monotone
