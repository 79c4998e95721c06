import math

import numpy as np
import pytest

from madspip.problem import Cache, evaluate, is_feasible
from madspip.suite import (
    builtin_problem,
    builtin_problems,
    initial_point,
    load_problem_file,
    make_instances,
    x0_ids,
    DEFAULT_BENCH_NAMES,
)

GRID_CERT_MARGIN = 1e-6


def names():
    return [p.name for p, _ in builtin_problems()]


class TestCatalogue:
    def test_expected_problems_present(self):
        expected = {"unit-disk", "sphere-eq", "sphere-eq-3", "mixed-kkt", "maxabs-lin", "two-ring"}
        assert expected <= set(names())

    def test_known_values(self):
        assert builtin_problem("unit-disk")[1].f_star == pytest.approx(-math.sqrt(2.0))
        assert builtin_problem("sphere-eq")[1].f_star == pytest.approx(0.2)
        assert builtin_problem("sphere-eq-3")[1].f_star == pytest.approx(1.0 / 3.0)
        assert builtin_problem("mixed-kkt")[1].f_star == pytest.approx(0.36)
        assert builtin_problem("maxabs-lin")[1].f_star == pytest.approx(0.5)
        assert builtin_problem("two-ring")[1].f_star == pytest.approx(-2.0)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_problem("nope")

    def test_default_bench_names_resolve(self):
        assert len(DEFAULT_BENCH_NAMES) == 5
        for name in DEFAULT_BENCH_NAMES:
            builtin_problem(name)


class TestOptimaAttained:
    @pytest.mark.parametrize(
        "name,minimizer",
        [
            ("unit-disk", (-1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))),
            ("sphere-eq", (0.2,) * 5),
            ("sphere-eq-3", (1.0 / 3.0,) * 3),
            ("mixed-kkt", (0.2, 0.4, 0.4)),
            ("maxabs-lin", (0.5, 0.5)),
            ("two-ring", (0.0, -2.0)),
        ],
    )
    def test_minimizer_feasible_and_attains(self, name, minimizer):
        problem, optimum = builtin_problem(name)
        assert problem.contains(minimizer)
        ev = evaluate(problem, minimizer, Cache())
        assert is_feasible(ev, eq_tol=1e-8)
        assert ev.f == pytest.approx(optimum.f_star, abs=1e-12)


class TestGridCertification:
    """Independent dense checks that no feasible point beats f_star."""

    def test_unit_disk(self):
        problem, optimum = builtin_problem("unit-disk")
        (lo, _), (hi, _) = problem.bounds[0], problem.bounds[1]
        axis = np.linspace(lo, hi, 1000)
        xx, yy = np.meshgrid(axis, axis)
        feasible = xx**2 + yy**2 - 1.0 <= 0.0
        values = (xx + yy)[feasible]
        assert values.size >= 5e5
        assert values.min() >= optimum.f_star - GRID_CERT_MARGIN

    def test_two_ring(self):
        problem, optimum = builtin_problem("two-ring")
        lo, hi = problem.bounds[0][0], problem.bounds[1][0]
        axis = np.linspace(lo, hi, 1000)
        xx, yy = np.meshgrid(axis, axis)
        r2 = xx**2 + yy**2
        feasible = (1.0 - r2 <= 0.0) & (r2 - 4.0 <= 0.0)
        assert yy[feasible].min() >= optimum.f_star - GRID_CERT_MARGIN

    def test_maxabs_lin(self):
        problem, optimum = builtin_problem("maxabs-lin")
        axis = np.linspace(-2.0, 2.0, 1000)
        xx, yy = np.meshgrid(axis, axis)
        feasible = 1.0 - xx - yy <= 0.0
        values = np.maximum(np.abs(xx), np.abs(yy))[feasible]
        assert values.min() >= optimum.f_star - GRID_CERT_MARGIN

    def test_sphere_eq_5_on_constraint_manifold(self):
        # parametrize the plane by the first four coordinates: 32^4 > 1e6
        _, optimum = builtin_problem("sphere-eq")
        axis = np.linspace(-1.0, 1.0, 34)
        grids = np.meshgrid(*([axis] * 4))
        y = np.stack([g.ravel() for g in grids], axis=1)
        last = 1.0 - y.sum(axis=1)
        f = (y**2).sum(axis=1) + last**2
        assert f.size >= 1e6
        assert f.min() >= optimum.f_star - GRID_CERT_MARGIN

    def test_sphere_eq_3_on_constraint_manifold(self):
        _, optimum = builtin_problem("sphere-eq-3")
        axis = np.linspace(-1.0, 1.5, 1024)
        y1, y2 = np.meshgrid(axis, axis)
        last = 1.0 - y1 - y2
        f = y1**2 + y2**2 + last**2
        assert f.size >= 1e6
        assert f.min() >= optimum.f_star - GRID_CERT_MARGIN

    def test_mixed_kkt_on_constraint_manifold(self):
        _, optimum = builtin_problem("mixed-kkt")
        axis = np.linspace(-1.0, 1.5, 1024)
        y1, y2 = np.meshgrid(axis, axis)
        feasible = y1 - 0.2 <= 0.0
        last = 1.0 - y1 - y2
        f = (y1**2 + y2**2 + last**2)[feasible]
        assert f.size >= 5e5
        assert f.min() >= optimum.f_star - GRID_CERT_MARGIN

    @pytest.mark.parametrize("name", ["unit-disk", "sphere-eq", "sphere-eq-3", "mixed-kkt", "maxabs-lin", "two-ring"])
    def test_evaluates_cleanly_on_bound_box(self, name):
        problem, _ = builtin_problem(name)
        lower, upper = problem.bounds
        rng = np.random.default_rng(0)
        corners = [lower, upper]
        randoms = [
            tuple(float(rng.uniform(l, u)) for l, u in zip(lower, upper)) for _ in range(200)
        ]
        for point in corners + randoms:
            ev = evaluate(problem, point, Cache())
            assert not ev.failed


class TestInitialPoints:
    @pytest.mark.parametrize("name", ["unit-disk", "maxabs-lin", "two-ring"])
    def test_feasible_points_feasible(self, name):
        problem, _ = builtin_problem(name)
        for i in range(3):
            x0 = initial_point(problem, f"feasible-{i}")
            ev = evaluate(problem, x0, Cache())
            assert is_feasible(ev, eq_tol=1e-8)
            assert problem.contains(x0)

    @pytest.mark.parametrize("name", names())
    def test_infeasible_points_infeasible(self, name):
        problem, _ = builtin_problem(name)
        for i in range(3):
            x0 = initial_point(problem, f"infeasible-{i}")
            ev = evaluate(problem, x0, Cache())
            assert not is_feasible(ev, eq_tol=1e-8)
            assert problem.contains(x0)

    @pytest.mark.parametrize("name", ["sphere-eq", "sphere-eq-3", "mixed-kkt"])
    def test_equality_feasible_points_on_manifold(self, name):
        problem, _ = builtin_problem(name)
        x0 = initial_point(problem, "feasible-0")
        ev = evaluate(problem, x0, Cache())
        assert is_feasible(ev, eq_tol=1e-8)

    def test_deterministic(self):
        problem, _ = builtin_problem("unit-disk")
        assert initial_point(problem, "feasible-0") == initial_point(problem, "feasible-0")
        assert initial_point(problem, "feasible-0") != initial_point(problem, "feasible-1")

    def test_malformed_id(self):
        problem, _ = builtin_problem("unit-disk")
        with pytest.raises(ValueError):
            initial_point(problem, "wild-0")


class TestMakeInstances:
    def test_cardinality(self):
        problems = [builtin_problem(n)[0] for n in DEFAULT_BENCH_NAMES]
        instances = make_instances(problems, 2, list(range(10)))
        assert len(instances) == 100

    def test_determinism(self):
        problems = [builtin_problem("unit-disk")[0]]
        a = make_instances(problems, 2, [1, 2])
        b = make_instances(problems, 2, [1, 2])
        assert a == b

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            make_instances([builtin_problem("unit-disk")[0]], 2, [])

    def test_unique_keys(self):
        problems = [builtin_problem(n)[0] for n in ("unit-disk", "two-ring")]
        instances = make_instances(problems, 4, [1, 2, 3])
        keys = {(i.problem.name, i.x0_id, i.seed) for i in instances}
        assert len(keys) == len(instances)

    def test_x0_ids_alternate(self):
        assert x0_ids(4) == ["feasible-0", "infeasible-0", "feasible-1", "infeasible-1"]


class TestProblemFile:
    def test_load_and_evaluate(self, tmp_path):
        exe = tmp_path / "bb.sh"
        exe.write_text("#!/bin/sh\nread line\necho \"2.5 -1.0 0.0\"\n")
        exe.chmod(0o755)
        definition = tmp_path / "prob.txt"
        definition.write_text(
            "# toy external problem\n"
            "name = external-toy\n"
            "n = 2\n"
            "m = 1\n"
            "p = 1\n"
            "lower = -1, -1\n"
            "upper = 1, 1\n"
            f"evaluator = {exe}\n"
        )
        problem = load_problem_file(definition)
        assert (problem.name, problem.n, problem.m, problem.p) == ("external-toy", 2, 1, 1)
        ev = evaluate(problem, (0.0, 0.0), Cache())
        assert ev.f == 2.5 and ev.g == (-1.0,) and ev.h == (0.0,)

    def test_eval_exe_override(self, tmp_path):
        other = tmp_path / "other.sh"
        other.write_text("#!/bin/sh\nread line\necho \"9.0\"\n")
        other.chmod(0o755)
        definition = tmp_path / "prob.txt"
        definition.write_text("name = t\nn = 1\nm = 0\np = 0\nevaluator = /nonexistent\n")
        problem = load_problem_file(definition, eval_exe=str(other))
        ev = evaluate(problem, (0.0,), Cache())
        assert ev.f == 9.0

    def test_missing_key_rejected(self, tmp_path):
        definition = tmp_path / "prob.txt"
        definition.write_text("name = t\nn = 1\n")
        with pytest.raises(ValueError):
            load_problem_file(definition)

    @pytest.mark.parametrize("present", ["lower", "upper"])
    def test_one_sided_bounds_rejected(self, tmp_path, present):
        definition = tmp_path / "prob.txt"
        definition.write_text(
            f"name = t\nn = 1\nm = 0\np = 0\n{present} = -1\nevaluator = /bin/true\n"
        )
        with pytest.raises(ValueError, match="lower and upper"):
            load_problem_file(definition)

    @pytest.mark.parametrize(
        "name", ["", "a__b", "../escaped", "a/b", "a\\b", "two words", "tab\tname", ".hidden"]
    )
    def test_unsafe_name_rejected(self, tmp_path, name):
        definition = tmp_path / "prob.txt"
        definition.write_text(f"name = {name}\nn = 1\nm = 0\np = 0\nevaluator = /bin/true\n")
        with pytest.raises(ValueError, match="problem name"):
            load_problem_file(definition)

    @pytest.mark.parametrize("name", names())
    def test_builtin_names_accepted(self, tmp_path, name):
        definition = tmp_path / "prob.txt"
        definition.write_text(f"name = {name}\nn = 1\nm = 0\np = 0\nevaluator = /bin/true\n")
        assert load_problem_file(definition).name == name
