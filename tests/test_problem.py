import math
import stat

import pytest

from madspip.problem import (
    Cache,
    Evaluation,
    ExternalEvaluator,
    Problem,
    evaluate,
    history_row,
    is_feasible,
    read_history,
    run_external,
    write_history,
)

INF = math.inf


def sphere_problem():
    return Problem("sphere", 2, 0, 0, lambda x: (x[0] ** 2 + x[1] ** 2, (), ()))


def make_script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


class TestProblem:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Problem("bad", 2, 0, 0, lambda x: (0.0, (), ()), bounds=((0.0, 0.0), (-1.0, 1.0)))

    @pytest.mark.parametrize(
        "lower,upper",
        [(-INF, INF), (0.0, INF), (-1e308, 1e308), (math.nan, 1.0), (0.0, math.nan)],
    )
    def test_bounds_need_a_finite_span(self, lower, upper):
        # an infinite span makes every trial point NaN or infinite
        with pytest.raises(ValueError, match="finite"):
            Problem("wide", 2, 0, 0, lambda x: (0.0, (), ()), bounds=((0.0, lower), (1.0, upper)))

    def test_contains(self):
        p = Problem("p", 2, 0, 0, lambda x: (0.0, (), ()), bounds=((-1.0, -1.0), (1.0, 1.0)))
        assert p.contains((0.0, 1.0))
        assert not p.contains((0.0, 1.5))


class TestEvaluate:
    def test_analytic_point(self):
        cache = Cache()
        ev = evaluate(sphere_problem(), (0.0, 0.0), cache)
        assert ev.f == 0.0 and ev.g == () and ev.h == ()
        assert ev.eval_index == 0 and not ev.failed

    def test_cache_idempotence(self):
        cache = Cache()
        problem = sphere_problem()
        first = evaluate(problem, (0.5, 0.5), cache)
        second = evaluate(problem, (0.5, 0.5), cache)
        assert first is second
        assert cache.eval_count == 1

    def test_budget_counts_distinct_points(self):
        calls = []

        def spy(x):
            calls.append(tuple(x))
            return (sum(x), (), ())

        problem = Problem("spy", 2, 0, 0, spy)
        cache = Cache()
        for point in [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]:
            evaluate(problem, point, cache)
        assert cache.eval_count == 3
        assert len(calls) == 3

    def test_nan_objective_flags_failure(self):
        problem = Problem("nanf", 1, 0, 0, lambda x: (float("nan"), (), ()))
        ev = evaluate(problem, (0.0,), Cache())
        assert ev.f == INF and ev.failed

    def test_nan_equality_is_hard_failure(self):
        problem = Problem("nanh", 1, 0, 1, lambda x: (1.0, (), (float("nan"),)))
        ev = evaluate(problem, (0.0,), Cache())
        assert ev.failed and ev.h == (INF,)
        assert not is_feasible(ev)

    def test_crash_becomes_worst_case(self):
        def boom(x):
            raise RuntimeError("no")

        problem = Problem("boom", 1, 2, 1, boom)
        ev = evaluate(problem, (0.0,), Cache())
        assert ev.failed and ev.f == INF and ev.g == (INF, INF) and ev.h == (INF,)

    def test_wrong_arity_raises(self):
        problem = Problem("short", 1, 2, 0, lambda x: (0.0, (1.0,), ()))
        with pytest.raises(ValueError):
            evaluate(problem, (0.0,), Cache())

    def test_explicit_key(self):
        cache = Cache()
        problem = sphere_problem()
        evaluate(problem, (0.25, 0.25), cache, key=("a", "b"))
        assert ("a", "b") in cache


class TestIsFeasible:
    def test_relaxed_equality(self):
        ev = Evaluation((0.0,), 1.0, (-0.1,), (5e-9,), 0)
        assert is_feasible(ev, eq_tol=1e-8)

    def test_strict_inequality(self):
        ev = Evaluation((0.0,), 1.0, (1e-12,), (), 0)
        assert not is_feasible(ev)

    def test_failed_never_feasible(self):
        ev = Evaluation((0.0,), 1.0, (-1.0,), (), 0, failed=True)
        assert not is_feasible(ev)

    def test_equality_at_tolerance_excluded(self):
        ev = Evaluation((0.0,), 1.0, (), (1e-8,), 0)
        assert not is_feasible(ev, eq_tol=1e-8)


class TestRunExternal:
    def test_round_trip(self, tmp_path):
        exe = make_script(tmp_path, "echoer.sh", 'read line; echo "1.0 -1.0"')
        f, g, h = run_external(exe, (0.5,), timeout=10.0, m=1, p=0)
        assert f == 1.0 and g == (-1.0,) and h == ()

    def test_point_format_17_digits(self, tmp_path):
        exe = make_script(tmp_path, "reflect.sh", 'read line; echo "$line"')
        value = 0.1234567890123456789
        f, g, h = run_external(exe, (value, 1.0, -2.0), timeout=10.0, m=2, p=0)
        assert f == pytest.approx(value, rel=1e-16)
        assert g == (1.0, -2.0)

    def test_nonzero_exit(self, tmp_path):
        exe = make_script(tmp_path, "fail.sh", "exit 1")
        f, g, h = run_external(exe, (0.0,), timeout=10.0, m=1, p=1)
        assert f == INF and g == (INF,) and h == (INF,)

    def test_inf_output(self, tmp_path):
        exe = make_script(tmp_path, "inf.sh", 'read line; echo "inf 0 0"')
        f, g, h = run_external(exe, (0.0,), timeout=10.0, m=1, p=1)
        assert f == INF

    def test_malformed_output(self, tmp_path):
        exe = make_script(tmp_path, "garbage.sh", 'read line; echo "pelican"')
        f, g, h = run_external(exe, (0.0,), timeout=10.0, m=0, p=0)
        assert f == INF

    def test_wrong_count(self, tmp_path):
        exe = make_script(tmp_path, "short.sh", 'read line; echo "1.0"')
        f, g, h = run_external(exe, (0.0,), timeout=10.0, m=1, p=0)
        assert f == INF and g == (INF,)

    def test_wrapper_marks_failed_through_evaluate(self, tmp_path):
        exe = make_script(tmp_path, "inf2.sh", 'read line; echo "inf 0 0"')
        problem = Problem("ext", 1, 1, 1, ExternalEvaluator(exe, 1, 1, timeout=10.0))
        ev = evaluate(problem, (0.0,), Cache())
        assert ev.failed and ev.f == INF


class TestHistory:
    def test_round_trip(self, tmp_path):
        rows = [
            history_row(
                eval_index=0,
                x=[0.1, 0.2],
                f=1.5,
                g=[-0.1],
                h=[],
                cint=-0.1,
                cext=0.0,
                rho=0.1,
                delta_frame=1.0,
                incumbent=True,
                iteration=0,
                status="unsuccessful",
            ),
            history_row(
                eval_index=None,
                x=[9.0, 9.0],
                f=None,
                g=None,
                h=None,
                cint=None,
                cext=None,
                rho=0.1,
                delta_frame=1.0,
                incumbent=False,
                iteration=1,
                status="rejected-bounds",
            ),
        ]
        path = tmp_path / "run.jsonl"
        write_history(rows, path)
        assert read_history(path) == rows

    def test_infinity_round_trips(self, tmp_path):
        row = history_row(
            eval_index=0,
            x=[0.0],
            f=INF,
            g=[INF],
            h=[],
            cint=INF,
            cext=INF,
            rho=0.1,
            delta_frame=1.0,
            incumbent=False,
            iteration=1,
            status="failed",
        )
        path = tmp_path / "run.jsonl"
        write_history([row], path)
        assert read_history(path)[0]["f"] == INF

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            history_row(
                eval_index=0,
                x=[0.0],
                f=0.0,
                g=[],
                h=[],
                cint=None,
                cext=None,
                rho=None,
                delta_frame=1.0,
                incumbent=False,
                iteration=0,
                status="meh",
            )

    def test_deterministic_bytes(self, tmp_path):
        rows = [
            history_row(
                eval_index=i,
                x=[i * 0.1],
                f=float(i),
                g=[],
                h=[],
                cint=None,
                cext=None,
                rho=None,
                delta_frame=0.5,
                incumbent=False,
                iteration=i,
                status="unsuccessful",
            )
            for i in range(5)
        ]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_history(rows, a)
        write_history(rows, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unencodable_row_keeps_the_old_file(self, tmp_path):
        good = history_row(
            eval_index=0,
            x=[0.0],
            f=1.0,
            g=[],
            h=[],
            cint=None,
            cext=None,
            rho=None,
            delta_frame=1.0,
            incumbent=True,
            iteration=0,
            status="unsuccessful",
        )
        path = tmp_path / "run.jsonl"
        write_history([good, good], path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_history([good, {"x": object()}], path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.jsonl"]

    def test_circular_row_rejected(self, tmp_path):
        row = {"x": []}
        row["x"].append(row)
        with pytest.raises(ValueError, match="[Cc]ircular"):
            write_history([row], tmp_path / "run.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        # a directory where the history should go: the rename fails after
        # the temp file was written, and the temp file goes with it
        (tmp_path / "run.jsonl").mkdir()
        with pytest.raises(OSError):
            write_history([{"eval_index": 0}], tmp_path / "run.jsonl")
        assert [p.name for p in tmp_path.iterdir()] == ["run.jsonl"]
        assert (tmp_path / "run.jsonl").is_dir()
