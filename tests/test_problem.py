import contextlib
import inspect
import json
import logging
import math
import os
import signal
import stat
import subprocess
import time
import tracemalloc

import numpy as np
import pytest

from madspip.cli import main
from madspip.history import read_row
from madspip.problem import (
    EQ_TOL,
    Cache,
    Evaluation,
    ExternalEvaluator,
    Problem,
    _sanitize,
    evaluate,
    is_feasible,
    read_history,
    run_external,
    write_history,
)
from madspip.solver import MODE_EXTREME_BARRIER, MODE_PIP, InitializationError, SolverConfig, solve
from madspip.suite import builtin_problem, builtin_problems, initial_point

INF = math.inf


def _running(pid):
    """Whether ``pid`` is a live process; a zombie has already exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


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
        # a zero span leaves no frame to poll; its solve would fail in
        # initial_frame_size, not here
        with pytest.raises(ValueError, match="below"):
            Problem("z", 2, 0, 0, lambda x: (0.0, (), ()), bounds=((0.0, -1.0), (0.0, 1.0)))

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
        assert len(cache.entries) == 1

    def test_budget_counts_distinct_points(self):
        calls = []

        def spy(x):
            calls.append(tuple(x))
            return (sum(x), (), ())

        problem = Problem("spy", 2, 0, 0, spy)
        cache = Cache()
        for point in [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]:
            evaluate(problem, point, cache)
        assert len(cache.entries) == 3
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
        assert is_feasible(ev)

    def test_strict_inequality(self):
        ev = Evaluation((0.0,), 1.0, (1e-12,), (), 0)
        assert not is_feasible(ev)

    def test_failed_never_feasible(self):
        ev = Evaluation((0.0,), 1.0, (-1.0,), (), 0, failed=True)
        assert not is_feasible(ev)

    def test_equality_at_tolerance_excluded(self):
        ev = Evaluation((0.0,), 1.0, (), (1e-8,), 0)
        assert not is_feasible(ev)


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
        with pytest.raises(ValueError, match="exited with status 1"):
            run_external(exe, (0.0,), timeout=10.0, m=1, p=1)

    def test_inf_output(self, tmp_path):
        exe = make_script(tmp_path, "inf.sh", 'read line; echo "inf 0 0"')
        f, g, h = run_external(exe, (0.0,), timeout=10.0, m=1, p=1)
        assert f == INF

    def test_malformed_output(self, tmp_path):
        exe = make_script(tmp_path, "garbage.sh", 'read line; echo "pelican"')
        with pytest.raises(ValueError, match="unparsable output 'pelican"):
            run_external(exe, (0.0,), timeout=10.0, m=0, p=0)

    def test_wrong_count(self, tmp_path):
        exe = make_script(tmp_path, "short.sh", 'read line; echo "1.0"')
        with pytest.raises(ValueError, match="returned 1 values, expected 2"):
            run_external(exe, (0.0,), timeout=10.0, m=1, p=0)

    def test_timeout_raises(self, tmp_path):
        exe = make_script(tmp_path, "slow.sh", "exec sleep 30")
        start = time.monotonic()
        with pytest.raises(subprocess.TimeoutExpired):
            run_external(exe, (0.0,), timeout=0.3, m=1, p=1)
        assert time.monotonic() - start < 10.0

    def test_missing_executable_raises(self, tmp_path):
        missing = str(tmp_path / "no-such-evaluator")
        with pytest.raises(FileNotFoundError):
            run_external(missing, (0.0,), timeout=10.0, m=1, p=0)

    def test_non_executable_raises(self, tmp_path):
        path = tmp_path / "plain.sh"
        path.write_text('#!/bin/sh\necho "1.0"\n')
        with pytest.raises(PermissionError):
            run_external(str(path), (0.0,), timeout=10.0, m=0, p=0)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    def test_timeout_kills_the_evaluators_own_children(self, tmp_path):
        # the evaluator's shell waits on a background child; the timeout must
        # take the child down with the shell rather than orphan it
        pidfile = tmp_path / "child.pid"
        exe = make_script(tmp_path, "spawner.sh", f'sleep 30 &\necho $! > "{pidfile}"\nwait')
        pid = None
        try:
            with pytest.raises(subprocess.TimeoutExpired):
                run_external(exe, (0.0,), timeout=0.5, m=1, p=0)
            pid = int(pidfile.read_text())
            deadline = time.monotonic() + 5.0
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not _running(pid)
        finally:
            if pid is None and pidfile.exists():
                with contextlib.suppress(ValueError):
                    pid = int(pidfile.read_text())
            if pid is not None and _running(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    @pytest.mark.parametrize("answer", ['echo "1.0 -1.0"', "exit 3"], ids=["answer", "exit-3"])
    def test_every_outcome_kills_the_evaluators_own_children(self, tmp_path, answer):
        # a child left running in the background must not outlive an
        # evaluation that ended normally, with an answer or a nonzero exit
        pidfile = tmp_path / "child.pid"
        exe = make_script(
            tmp_path, "leaver.sh",
            f'read line\nsleep 30 >/dev/null 2>&1 &\necho $! > "{pidfile}"\n{answer}',
        )
        pid = None
        try:
            if answer == "exit 3":
                with pytest.raises(ValueError, match="exited with status 3"):
                    run_external(exe, (0.0,), timeout=10.0, m=1, p=0)
            else:
                assert run_external(exe, (0.0,), timeout=10.0, m=1, p=0) == (1.0, (-1.0,), ())
            pid = int(pidfile.read_text())
            deadline = time.monotonic() + 5.0
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not _running(pid)
        finally:
            if pid is None and pidfile.exists():
                with contextlib.suppress(ValueError):
                    pid = int(pidfile.read_text())
            if pid is not None and _running(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    def test_undecodable_stdout_raises(self, tmp_path):
        exe = make_script(tmp_path, "latin1.sh", r"read line; printf '1.0 \377\n'")
        with pytest.raises(ValueError, match="non-UTF-8 output"):
            run_external(exe, (0.0,), timeout=10.0, m=1, p=0)

    def test_undecodable_stderr_keeps_a_correct_answer(self, tmp_path):
        exe = make_script(
            tmp_path, "noisy.sh", r"""read line; printf '\377\n' >&2; echo "1.0 -1.0" """
        )
        assert run_external(exe, (0.0,), timeout=10.0, m=1, p=0) == (1.0, (-1.0,), ())
        problem = Problem("ext", 1, 1, 0, ExternalEvaluator(exe, 1, 0, timeout=10.0))
        ev = evaluate(problem, (0.0,), Cache())
        assert not ev.failed and (ev.f, ev.g) == (1.0, (-1.0,))

    def test_undecodable_stderr_is_logged_on_a_nonzero_exit(self, tmp_path, caplog):
        exe = make_script(tmp_path, "noisy_fail.sh", r"printf 'bad \377 byte\n' >&2; exit 3")
        with pytest.raises(ValueError, match="status 3: bad \ufffd byte"):
            run_external(exe, (0.0,), timeout=10.0, m=1, p=0)
        problem = Problem("ext", 1, 1, 0, ExternalEvaluator(exe, 1, 0, timeout=10.0))
        with caplog.at_level(logging.WARNING, logger="madspip.problem"):
            assert evaluate(problem, (0.0,), Cache()).failed
        assert "status 3: bad \ufffd byte" in caplog.text

    def test_wrapper_marks_failed_through_evaluate(self, tmp_path):
        exe = make_script(tmp_path, "inf2.sh", 'read line; echo "inf 0 0"')
        problem = Problem("ext", 1, 1, 1, ExternalEvaluator(exe, 1, 1, timeout=10.0))
        ev = evaluate(problem, (0.0,), Cache())
        assert ev.failed and ev.f == INF

    FAILURES = {
        "nonzero_exit": ("read line; exit 2", 10.0),
        "timeout": ("exec sleep 30", 0.3),
        "missing_executable": (None, 10.0),
        "non_executable": ("not executable", 10.0),
        "non_utf8_stdout": (r"read line; printf '1.0 \377 0\n'", 10.0),
        "wrong_count": ('read line; echo "1.0 2.0"', 10.0),
        "unparsable_output": ('read line; echo "1.0 pelican 0"', 10.0),
    }

    @pytest.mark.parametrize("kind", sorted(FAILURES))
    def test_every_failure_is_one_warning_and_the_failed_evaluation(self, tmp_path, caplog, kind):
        # each way an external evaluation fails reaches the same failed
        # Evaluation as a raising Python evaluator, with one logged line
        body, timeout = self.FAILURES[kind]
        if body is None:
            exe = str(tmp_path / "no-such-evaluator")
        else:
            exe = make_script(tmp_path, f"{kind}.sh", body)
            if kind == "non_executable":
                os.chmod(exe, 0o644)
        point = (0.25, -1.5)
        problem = Problem("ext", 2, 1, 1, ExternalEvaluator(exe, 1, 1, timeout=timeout))
        with caplog.at_level(logging.WARNING, logger="madspip.problem"):
            ev = evaluate(problem, point, Cache())
        assert ev == _sanitize(point, None, 0, 1, 1)
        warnings = [
            r for r in caplog.records if r.name == "madspip.problem" and r.levelno == logging.WARNING
        ]
        assert len(warnings) == 1
        assert exe in warnings[0].getMessage()


def _row(eval_index=0, x=(0.0,), f=1.0, g=(), h=(), cint=None, cext=None, rho=None,
        delta_frame=1.0, incumbent=False, iteration=0, status="unsuccessful"):
    """A row in the 12-key layout histories held before frame lines;
    ``write_history`` and ``read_history`` take any dicts."""
    return {
        "eval_index": eval_index,
        "x": list(x),
        "f": f,
        "g": None if g is None else list(g),
        "h": None if h is None else list(h),
        "cint": cint,
        "cext": cext,
        "rho": rho,
        "delta_frame": delta_frame,
        "incumbent": incumbent,
        "iteration": iteration,
        "status": status,
    }


class TestHistory:
    def test_round_trip(self, tmp_path):
        rows = [
            _row(x=[0.1, 0.2], f=1.5, g=[-0.1], cint=-0.1, cext=0.0, rho=0.1, incumbent=True),
            _row(eval_index=None, x=[9.0, 9.0], f=None, g=None, h=None, rho=0.1, iteration=1,
                 status="rejected-bounds"),
        ]
        path = tmp_path / "run.jsonl"
        write_history(rows, path)
        assert read_history(path) == rows

    def test_infinity_round_trips(self, tmp_path):
        failed = _row(f=INF, g=[INF], cint=INF, cext=INF, rho=0.1, iteration=1, status="failed")
        path = tmp_path / "run.jsonl"
        write_history([failed], path)
        assert read_history(path)[0]["f"] == INF

    def test_deterministic_bytes(self, tmp_path):
        rows = [_row(eval_index=i, x=[i * 0.1], f=float(i), delta_frame=0.5, iteration=i) for i in range(5)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_history(rows, a)
        write_history(rows, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unencodable_row_keeps_the_old_file(self, tmp_path):
        good = _row(incumbent=True)
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


def read_per_line(path):
    """The reference reader: one ``json.loads`` per stripped, nonblank line
    of the whole text, as text mode reads it, whose error is positioned in
    that text."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    rows = []
    offset = 0
    for line in text.split("\n"):
        try:
            if line.strip():
                rows.append(json.loads(line.strip()))
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(exc.msg, text, offset + len(line) - len(line.lstrip()) + exc.pos)
        offset += len(line) + 1
    return rows


def outcome(read, path):
    try:
        return "rows", repr(read(path))
    except json.JSONDecodeError as exc:
        return "error", str(exc)


class TestReadHistory:
    # each text is written as UTF-8 bytes, so "\r\n" endings reach the reader
    ACCEPTED = {
        "plain": '{"a":1}\n{"b":[1,2]}\n',
        "blanks_and_crlf": '\n  {"a":1}  \r\n\r\n\t\n {"b":{"c":null}}\t\r\n \n',
        "lone_cr_endings": '{"a":1}\r{"b":2}\r',
        "no_final_newline": '{"a":1}\n{"b":2}',
        "non_finite_tokens": '{"f":Infinity,"g":[-Infinity,NaN],"h":[]}\n',
        "inner_whitespace": '{ "a" : [ 1 , 2.5e-3 ] , "b" : "x y" }\n',
        "other_unicode_blanks": '\x0c{"a":1}\x0b\n\u3000\n',
        "scalars_and_arrays": '1\n"s"\n[0.0, 1.0]\nnull\n',
        "escapes": '{"s":"a\\"b\\\\c\\u00e9\\n"}\n',
        "empty": "",
        "only_blanks": "\n \r\n\t\n",
    }
    REJECTED = {
        # joined by "," into one array, the two lines would read as [{"s": "},{"}]
        "string_split_over_two_lines": '{"s":"}\n{"}\n',
        "two_objects_on_one_line": '{"a":1}{"b":2}\n',
        "two_objects_apart": '{"a":1} {"b":2}\n',
        "trailing_garbage": '{"a":1}\n{"b":2} x\n',
        "truncated": '{"a":1}\n{"eval_index": 0, "x": [0.0\n',
        "not_json": '{"a":1}\nINVALID\n',
        "byte_order_mark": '\ufeff{"a":1}\n',
        "bare_word": "nan\n",
        "control_character_in_string": '{"s":"a\tb"}\n',
        "indented_error_after_crlf_lines": '{"a":1}\r\n\r\n \t{"b":x}\r\n',
    }

    @pytest.mark.parametrize("name", sorted(ACCEPTED))
    def test_accepts_what_per_line_loads_accepts(self, tmp_path, name):
        path = tmp_path / "run.jsonl"
        path.write_bytes(self.ACCEPTED[name].encode("utf-8"))
        expected = outcome(read_per_line, path)
        assert expected[0] == "rows"
        assert outcome(read_history, path) == expected

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_rejects_what_per_line_loads_rejects(self, tmp_path, name):
        path = tmp_path / "run.jsonl"
        path.write_bytes(self.REJECTED[name].encode("utf-8"))
        expected = outcome(read_per_line, path)
        assert expected[0] == "error"
        assert outcome(read_history, path) == expected

    def test_an_error_names_the_line_of_the_file(self, tmp_path, capsys):
        # a canonical history cut 41 characters into its line 46: the error
        # is positioned in the file, read directly and in profile's warning
        problem, _ = builtin_problem("unit-disk")
        record = solve(problem, initial_point(problem, "feasible-0"), SolverConfig(1500, 1))
        whole = tmp_path / "unit-disk__feasible-0__seed1__pip.jsonl"
        write_history(record.events, whole)
        text = whole.read_bytes()
        start = sum(len(line) + 1 for line in text.split(b"\n")[:45])
        cut = tmp_path / "unit-disk__infeasible-0__seed1__pip.jsonl"
        cut.write_bytes(text[: start + 41])
        with pytest.raises(json.JSONDecodeError) as info:
            read_history(cut)
        error = info.value
        assert (error.lineno, error.colno, error.pos) == (46, 42, start + 41)
        assert str(error) == f"{error.msg}: line 46 column 42 (char {start + 41})"
        assert main(["profile", "--histories", str(tmp_path), "--out", str(tmp_path / "out")]) == 0
        warnings = json.loads(capsys.readouterr().out.splitlines()[0])["warnings"]
        assert warnings == [f"skipping {cut.name}: {error}"]

    def test_profile_skips_each_rejected_file_once(self, tmp_path, capsys):
        problem, _ = builtin_problem("unit-disk")
        good = solve(problem, initial_point(problem, "feasible-0"), SolverConfig(30, 1))
        write_history(good.events, tmp_path / "good__feasible-0__seed1__pip.jsonl")
        expected = []
        for i, name in enumerate(sorted(self.REJECTED)):
            path = tmp_path / f"bad{i}__feasible-0__seed1__pip.jsonl"
            path.write_bytes(self.REJECTED[name].encode("utf-8"))
            expected.append(f"skipping {path.name}: {outcome(read_per_line, path)[1]}")
        assert main(["profile", "--histories", str(tmp_path), "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["warnings"] == expected
        assert [line for line in lines if line.startswith("warning: ")] == [
            f"warning: {w}" for w in expected
        ]


def encoded_per_row(rows):
    """The reference bytes: one ``JSONEncoder.encode`` per row."""
    encoder = json.JSONEncoder(separators=(",", ":"))
    return "".join(encoder.encode(row) + "\n" for row in rows).encode("utf-8")


class TestWriteHistory:
    @pytest.mark.parametrize("mode", [MODE_PIP, MODE_EXTREME_BARRIER])
    @pytest.mark.parametrize("x0_id", ["feasible-0", "infeasible-0"])
    def test_solver_rows_encode_as_per_row_encode(self, tmp_path, x0_id, mode):
        for problem, _ in builtin_problems():
            config = SolverConfig(max_evaluations=60, seed=3, mode=mode)
            try:
                rows = solve(problem, initial_point(problem, x0_id), config).rows
            except InitializationError:  # bench writes an empty history
                rows = []
            path = tmp_path / f"{problem.name}.jsonl"
            write_history(rows, path)
            assert path.read_bytes() == encoded_per_row(rows), problem.name

    def test_streams_rows_without_holding_the_history_text(self, tmp_path):
        # rows are encoded and written in batches: the whole history is never
        # one string, so the write peaks well below the file it writes
        problem, _ = builtin_problem("sphere-eq")
        rows = solve(
            problem, initial_point(problem, "feasible-0"), SolverConfig(max_evaluations=1500, seed=1)
        ).rows[:1500]
        assert len(rows) == 1500
        path = tmp_path / "run.jsonl"
        tracemalloc.start()
        try:
            write_history(rows, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == encoded_per_row(rows)
        assert peak < path.stat().st_size / 2

    def test_hand_made_rows_encode_as_per_row_encode(self, tmp_path):
        rows = [
            {"f": INF, "g": [-INF, math.nan], "h": (0.0, -0.0), "cint": None},
            {"incumbent": True, "failed": False, "eval_index": 7, "big": 2**70, "neg": -3},
            {"x": (1.5, (2, [3.25])), "nested": {"a": {"b": None}}, "empty": [], "e": {}},
            {"np": np.float64(0.1), "np_inf": np.float64(INF), "np_list": [np.float64(-2.5e-300)]},
            {"s": 'quote " back \\ tab \t newline \n \u00e9 \u2028 \U0001f600', "\u00e9": 1},
            {1: "int key", 2.5: "float key", True: "bool key", None: "none key"},
            {"tiny": 5e-324, "huge": 1.7976931348623157e308, "third": 1 / 3},
        ]
        path = tmp_path / "run.jsonl"
        write_history(rows, path)
        assert path.read_bytes() == encoded_per_row(rows)


class TestEvaluation:
    def test_fields_are_read_only(self):
        ev = Evaluation((0.0,), 1.0, (), (), 0)
        for name in ("point", "f", "g", "h", "eval_index", "failed"):
            with pytest.raises(AttributeError):
                setattr(ev, name, None)

    def test_field_order_and_failed_default(self):
        parameters = inspect.signature(Evaluation).parameters
        assert list(parameters) == ["point", "f", "g", "h", "eval_index", "failed"]
        assert parameters["failed"].default is False
        assert [p.default for p in list(parameters.values())[:-1]] == [inspect.Parameter.empty] * 5
        assert Evaluation((0.0,), 1.0, (2.0,), (3.0,), 4).failed is False

    def test_equality_and_hash_follow_the_fields(self):
        a = Evaluation((0.0, 1.0), 1.0, (-1.0,), (), 3)
        b = Evaluation((0.0, 1.0), 1.0, (-1.0,), (), 3, False)
        assert a == b and hash(a) == hash(b)
        for other in (
            Evaluation((0.0, 1.0), 1.0, (-1.0,), (), 3, True),
            Evaluation((0.0, 1.0), 1.0, (-1.0,), (), 4),
            Evaluation((0.0, 2.0), 1.0, (-1.0,), (), 3),
        ):
            assert a != other

    @pytest.mark.parametrize(
        "g,h,status",
        [
            ((0.0,), (), "unsuccessful"),
            ((-0.0, -1.0), (), "unsuccessful"),
            ((5e-324,), (), "unsuccessful"),
            ((), (EQ_TOL,), "unsuccessful"),
            ((), (-EQ_TOL,), "unsuccessful"),
            ((), (math.nextafter(EQ_TOL, 0.0),), "poll-success"),
            ((-1.0,), (0.0,), "failed"),
            ((INF,), (INF,), "failed"),
            ((-1.0,), (INF,), "unsuccessful"),
        ],
    )
    def test_read_row_feasibility_is_is_feasible(self, g, h, status):
        # a row is failed when f, g or h holds +inf, as _sanitize stores it
        row = {"eval_index": 0, "x": [0.0], "f": 2.0, "g": list(g), "h": list(h), "status": status}
        read_status, ev = read_row(row, 0)
        assert read_status == status and ev.eval_index == 0 and ev.failed is (INF in g + h)
        assert is_feasible(ev) is is_feasible(Evaluation((0.0,), 2.0, g, h, 0, INF in g + h))
