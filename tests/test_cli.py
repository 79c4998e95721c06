import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path
from xml.etree import ElementTree

import pytest

import madspip.bench
import madspip.cli
import madspip.problem
import madspip.solver
import madspip.suite
from madspip.cli import main, _read_config_file, _parse_history_name, _run_name
from madspip.suite import check_name_part, load_problem_file

from history_expansion import bytes_with_row_keys, expanded_bytes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_without_stop(data: bytes) -> bytes:
    """A history's bytes without its last line, which must be a stop line
    after at least one row; an error run's 0-byte history stays empty."""
    if not data:
        return data
    rows, stop = data[:-1].rsplit(b"\n", 1)
    assert "stop" in json.loads(stop)
    return rows + b"\n"


def without_stopping_frame(data: bytes) -> bytes:
    """A history's bytes without the frame line of the state its run stopped
    in when no row follows that line, as histories were written before
    every frame was."""
    lines = data.splitlines(keepends=True)
    if len(lines) >= 2 and "frame" in json.loads(lines[-2]):
        del lines[-2]
    return b"".join(lines)


def machine_line(out: str) -> dict:
    return json.loads(out.strip().splitlines()[0])


def one_error_line(err: str) -> bool:
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


def tree(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in path.iterdir()}


class TestSolveCommand:
    def test_smoke(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--problem", "unit-disk", "--x0", "0.1,0.1",
            "--seed", "1", "--budget", "200", "--out", str(tmp_path),
        )
        assert code == 0
        machine = machine_line(out)
        assert machine["command"] == "solve"
        history = tmp_path / "unit-disk__literal__seed1__pip.jsonl"
        assert history.exists()
        # rows include zero-cost events (cache hits, bound rejections)
        assert len(history.read_text().splitlines()) >= machine["evals"] >= 1

    def test_builtin_x0_id(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--problem", "two-ring", "--x0", "feasible-0",
            "--seed", "2", "--budget", "100", "--out", str(tmp_path),
        )
        assert code == 0
        assert machine_line(out)["x0_id"] == "feasible-0"

    def test_unknown_problem_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--problem", "warp-core", "--x0", "0,0", "--out", str(tmp_path)
        )
        assert code == 2
        assert "warp-core" in err

    def test_extreme_barrier_on_equality_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "solve", "--problem", "sphere-eq", "--x0", "feasible-0",
            "--mode", "extreme-barrier", "--budget", "50", "--out", str(tmp_path),
        )
        assert code == 2
        assert "extreme-barrier" in err or "inequality" in err

    def test_machine_output_precedes_summary(self, tmp_path, capsys):
        _, out, _ = run_cli(
            capsys,
            "solve", "--problem", "unit-disk", "--x0", "feasible-0",
            "--budget", "60", "--out", str(tmp_path),
        )
        lines = out.strip().splitlines()
        json.loads(lines[0])
        with pytest.raises(json.JSONDecodeError):
            json.loads(lines[1])

    def test_check_invariants_flag(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--problem", "unit-disk", "--x0", "feasible-0",
            "--budget", "300", "--check-invariants", "--out", str(tmp_path),
        )
        assert code == 0
        assert machine_line(out)["invariant_violations"] == []

    def test_check_invariants_reports_each_violation_and_exits_1(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            madspip.cli, "check_run_invariants", lambda record: (["rho went up"], [])
        )
        code, out, err = run_cli(
            capsys,
            "solve", "--problem", "unit-disk", "--x0", "feasible-0",
            "--budget", "50", "--check-invariants", "--out", str(tmp_path),
        )
        assert code == 1
        assert machine_line(out)["invariant_violations"] == ["rho went up"]
        assert err == "invariant violation: rho went up\n"

    def test_x0_file(self, tmp_path, capsys):
        x0_file = tmp_path / "start.txt"
        x0_file.write_text("0.1, 0.2\n")
        code, out, _ = run_cli(
            capsys,
            "solve", "--problem", "unit-disk", "--x0-file", str(x0_file),
            "--budget", "50", "--out", str(tmp_path),
        )
        assert code == 0
        assert machine_line(out)["x0_id"] == "start"

    @pytest.mark.parametrize("literal", ["1e-3,0", "-2.5E-1, 1e-2", "0.1,0.1"])
    def test_literal_x0_in_any_float_notation(self, tmp_path, capsys, literal):
        code, out, _ = run_cli(
            capsys,
            "solve", "--problem", "unit-disk", "--x0", literal,
            "--budget", "30", "--out", str(tmp_path),
        )
        assert code == 0
        assert machine_line(out)["x0_id"] == "literal"
        # line 0 is iteration 0's frame line, line 1 the start row
        first = json.loads((tmp_path / "unit-disk__literal__seed0__pip.jsonl").read_text().splitlines()[1])
        assert first["x"] == [float(v) for v in literal.split(",")]

    @pytest.mark.parametrize("text", ["nan\n0\n", "0, inf\n"])
    def test_non_finite_x0_file_exits_2(self, tmp_path, capsys, text):
        exe = tmp_path / "one.sh"
        exe.write_text('#!/bin/sh\nread line\necho "1.0"\n')
        exe.chmod(0o755)
        definition = tmp_path / "free.txt"
        definition.write_text(f"name = free\nn = 2\nm = 0\np = 0\nevaluator = {exe}\n")
        x0_file = tmp_path / "start.txt"
        x0_file.write_text(text)
        code, _, err = run_cli(
            capsys,
            "solve", "--problem", str(definition), "--x0-file", str(x0_file),
            "--budget", "30", "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert one_error_line(err) and "not finite" in err
        assert not list(tmp_path.rglob("*.jsonl"))

    @pytest.mark.parametrize("stem", ["a__b", "start_", ".hidden", "two words"])
    def test_x0_file_stem_must_name_a_history(self, tmp_path, capsys, stem):
        x0_file = tmp_path / f"{stem}.txt"
        x0_file.write_text("0.1, 0.2\n")
        code, _, err = run_cli(
            capsys,
            "solve", "--problem", "unit-disk", "--x0-file", str(x0_file),
            "--budget", "30", "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert one_error_line(err) and "x0 id" in err
        assert not list(tmp_path.rglob("*.jsonl"))

    def test_external_blackbox_end_to_end(self, tmp_path, capsys):
        exe = tmp_path / "bb.sh"
        # feasible everywhere, objective is the first coordinate
        exe.write_text('#!/bin/sh\nread x1 x2\necho "$x1 -1.0"\n')
        exe.chmod(0o755)
        definition = tmp_path / "ext.txt"
        definition.write_text(
            "name = ext-line\nn = 2\nm = 1\np = 0\n"
            "lower = -1, -1\nupper = 1, 1\n"
            f"evaluator = {exe}\n"
        )
        code, out, _ = run_cli(
            capsys,
            "solve", "--problem", str(definition), "--x0", "0.5,0.0",
            "--seed", "3", "--budget", "40", "--out", str(tmp_path),
        )
        assert code == 0
        machine = machine_line(out)
        assert machine["problem"] == "ext-line"
        assert machine["evals"] <= 40
        assert machine["best_feasible_f"] < 0.5  # moved below the start value

    def test_eval_exe_overrides_builtin_evaluator(self, tmp_path, capsys):
        exe = tmp_path / "const.sh"
        exe.write_text('#!/bin/sh\nread line\necho "7.0 -1.0"\n')
        exe.chmod(0o755)
        code, out, _ = run_cli(
            capsys,
            "solve", "--problem", "unit-disk", "--x0", "0.1,0.1",
            "--eval-exe", str(exe), "--budget", "15", "--out", str(tmp_path),
        )
        assert code == 0
        # the external stub answers for the builtin's analytic formula
        assert machine_line(out)["best_feasible_f"] == 7.0
        # so the run's problem is not the builtin, and a profile will not
        # normalize it against the builtin's f*
        stop = madspip.history.read_stop_line(machine_line(out)["history"])
        assert stop["builtin"] is False

    def test_eval_exe_bare_name_runs_the_checked_file(self, tmp_path, capsys, monkeypatch):
        # a bare name passes the existence check in the current directory, so
        # it must run that file, not a PATH lookup of the name
        exe = tmp_path / "const.sh"
        exe.write_text('#!/bin/sh\nread line\necho "7.0 -1.0"\n')
        exe.chmod(0o755)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys,
            "solve", "--problem", "unit-disk", "--x0", "0.1,0.1",
            "--eval-exe", "const.sh", "--budget", "15", "--out", "out",
        )
        assert (code, err) == (0, "")
        assert machine_line(out)["best_feasible_f"] == 7.0

    def test_problem_file_evaluator_path_is_relative_to_the_file(self, tmp_path, capsys, monkeypatch):
        # "./two_ring.sh" beside the problem file once resolved against the
        # current directory, and the run failed at its starting evaluation
        problems = tmp_path / "problems"
        problems.mkdir()
        exe = problems / "two_ring.sh"
        exe.write_text("#!/bin/sh\nawk '{print $1*$1 + $2*$2}'\n")
        exe.chmod(0o755)
        definition = problems / "ring.txt"
        definition.write_text("name = ring\nn = 2\nm = 0\np = 0\nevaluator = ./two_ring.sh\n")
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        code, out, err = run_cli(
            capsys,
            "solve", "--problem", str(definition), "--x0", "1,1", "--budget", "20", "--out", "out",
        )
        assert (code, err) == (0, "")
        assert machine_line(out)["best_feasible_f"] < 2.0

    def test_eval_exe_keeps_the_builtin_starting_point(self, tmp_path, capsys):
        exe = tmp_path / "const.sh"
        exe.write_text('#!/bin/sh\nread line\necho "1.0 -1.0 -1.0"\n')
        exe.chmod(0o755)
        code, out, _ = run_cli(
            capsys,
            "solve", "--problem", "two-ring", "--x0", "feasible-0",
            "--eval-exe", str(exe), "--budget", "5", "--out", str(tmp_path),
        )
        assert code == 0
        history = Path(machine_line(out)["history"])
        first = json.loads(history.read_text().splitlines()[1])  # after the frame line
        problem, _ = madspip.suite.builtin_problem("two-ring")
        assert tuple(first["x"]) == madspip.suite.initial_point(problem, "feasible-0")

    def test_problem_file_named_like_a_builtin_starts_from_an_id(self, tmp_path, capsys):
        # a 3-D file named unit-disk gets the uniform draw, not the 2-D disk point
        exe = tmp_path / "bowl.sh"
        exe.write_text("#!/bin/sh\nawk '{print $1*$1 + $2*$2 + $3*$3, -1}'\n")
        exe.chmod(0o755)
        definition = tmp_path / "disk3.txt"
        definition.write_text(
            "name = unit-disk\nn = 3\nm = 1\np = 0\n"
            f"lower = -1, -1, -1\nupper = 1, 1, 1\nevaluator = {exe}\n"
        )
        code, out, err = run_cli(
            capsys,
            "solve", "--problem", str(definition), "--x0", "feasible-0",
            "--budget", "20", "--out", str(tmp_path),
        )
        assert code == 0, err
        machine = machine_line(out)
        assert (machine["problem"], machine["x0_id"]) == ("unit-disk", "feasible-0")
        first = json.loads(Path(machine["history"]).read_text().splitlines()[1])  # after the frame line
        assert len(first["x"]) == 3 and all(-1.0 <= v <= 1.0 for v in first["x"])

    def test_one_sided_bounds_exit_2(self, tmp_path, capsys):
        definition = tmp_path / "ext.txt"
        definition.write_text("name = ext\nn = 1\nm = 0\np = 0\nlower = -1\nevaluator = /bin/true\n")
        code, _, err = run_cli(
            capsys, "solve", "--problem", str(definition), "--x0", "0", "--out", str(tmp_path)
        )
        assert code == 2
        assert "lower and upper" in err

    @pytest.mark.parametrize("lower,upper", [("-inf,-inf", "inf,inf"), ("-1e308,0", "1e308,1")])
    def test_bounds_without_finite_span_exit_2(self, tmp_path, capsys, lower, upper):
        exe = tmp_path / "zero.sh"
        exe.write_text('#!/bin/sh\nread line\necho "0.0"\n')
        exe.chmod(0o755)
        definition = tmp_path / "ext.txt"
        definition.write_text(
            f"name = ext\nn = 2\nm = 0\np = 0\nlower = {lower}\nupper = {upper}\nevaluator = {exe}\n"
        )
        code, _, err = run_cli(
            capsys, "solve", "--problem", str(definition), "--x0", "0,0", "--out", str(tmp_path)
        )
        assert code == 2
        assert one_error_line(err)
        assert not list(tmp_path.rglob("*.jsonl"))

    def test_unsafe_problem_name_exits_2(self, tmp_path, capsys):
        exe = tmp_path / "zero.sh"
        exe.write_text('#!/bin/sh\nread line\necho "0.0"\n')
        exe.chmod(0o755)
        definition = tmp_path / "ext.txt"
        definition.write_text(f"name = ../escaped\nn = 1\nm = 0\np = 0\nevaluator = {exe}\n")
        code, _, err = run_cli(
            capsys, "solve", "--problem", str(definition), "--x0", "0",
            "--budget", "10", "--out", str(tmp_path / "nm" / "out"),
        )
        assert code == 2
        assert "../escaped" in err
        assert not list(tmp_path.rglob("*.jsonl"))

    def test_out_is_a_file_exits_2(self, tmp_path, capsys, monkeypatch):
        # the unusable --out fails before the solve spends any budget
        calls = []
        real_builtin_problem = madspip.cli.builtin_problem

        def counting_problem(name):
            problem, optimum = real_builtin_problem(name)

            def evaluator(x):
                calls.append(x)
                return problem.evaluator(x)

            return dataclasses.replace(problem, evaluator=evaluator), optimum

        monkeypatch.setattr(madspip.cli, "builtin_problem", counting_problem)
        out = tmp_path / "taken"
        out.write_text("x")
        code, _, err = run_cli(
            capsys, "solve", "--problem", "unit-disk", "--x0", "feasible-0",
            "--budget", "20", "--out", str(out),
        )
        assert code == 2
        assert one_error_line(err)
        assert calls == []

    def test_missing_eval_exe_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "solve", "--problem", "unit-disk", "--x0", "0.1,0.1",
            "--eval-exe", str(tmp_path / "ghost"), "--out", str(tmp_path),
        )
        assert code == 2


class TestBenchCommand:
    def test_small_matrix(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code, out, _ = run_cli(
            capsys,
            "bench", "--problem", "unit-disk", "--x0-count", "2",
            "--seeds", "1,2", "--budget", "60", "--mode", "pip,extreme-barrier",
            "--out", str(out_dir),
        )
        assert code == 0
        machine = machine_line(out)
        assert machine["runs"] == 8
        histories = sorted(p.name for p in out_dir.glob("*.jsonl"))
        assert len(histories) == 8
        assert sorted(p.name for p in out_dir.iterdir()) == histories
        assert "manifest" not in machine

    def test_resume_skips_completed(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        args = (
            "bench", "--problem", "unit-disk", "--x0-count", "1",
            "--seeds", "1,2", "--budget", "50", "--out", str(out_dir),
        )
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and machine_line(out)["completed"] == 2
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        machine = machine_line(out)
        assert machine["skipped"] == 2 and machine["completed"] == 0

    def test_one_solve_per_history(self, tmp_path, capsys, monkeypatch):
        solved = []
        real_solve = madspip.bench.solve

        def counting_solve(problem, x0, config, x0_id="x0"):
            solved.append((problem.name, x0_id, config.seed, config.mode))
            return real_solve(problem, x0, config, x0_id=x0_id)

        monkeypatch.setattr(madspip.bench, "solve", counting_solve)
        out_dir = tmp_path / "bench"
        args = (
            "bench", "--problem", "unit-disk", "--x0-count", "2",
            "--seeds", "1,2", "--budget", "40", "--out", str(out_dir),
        )
        code, out, _ = run_cli(capsys, *args, "--mode", "pip,extreme-barrier")
        machine = machine_line(out)
        assert code == 0 and machine["completed"] + machine["errors"] == 8
        assert len(solved) == len(set(solved)) == 8

        # adding a mode to a finished bench solves only the new pairs
        other = tmp_path / "other"
        code, _, _ = run_cli(capsys, *args[:-1], str(other), "--mode", "pip")
        assert code == 0
        solved.clear()
        code, out, _ = run_cli(capsys, *args[:-1], str(other), "--mode", "pip,extreme-barrier")
        assert code == 0
        machine = machine_line(out)
        assert machine["skipped"] == 4 and machine["completed"] + machine["errors"] == 4
        assert len(solved) == 4
        assert {key[3] for key in solved} == {"extreme-barrier"}

    def test_history_on_disk_is_a_finished_run(self, tmp_path, capsys, monkeypatch):
        # a history put in the directory by other means (copied in, or
        # written by `solve --out`) is skipped, never re-read or re-solved
        args = (
            "bench", "--problem", "unit-disk", "--x0-count", "1",
            "--seeds", "1,2", "--budget", "50",
        )
        first = tmp_path / "first"
        code, _, _ = run_cli(capsys, *args, "--out", str(first))
        assert code == 0
        name = "unit-disk__feasible-0__seed1__pip.jsonl"
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        (fresh / name).write_bytes((first / name).read_bytes())
        inode = (fresh / name).stat().st_ino
        solved = []
        real_solve = madspip.bench.solve

        def counting_solve(problem, x0, config, x0_id="x0"):
            solved.append((problem.name, x0_id, config.seed, config.mode))
            return real_solve(problem, x0, config, x0_id=x0_id)

        monkeypatch.setattr(madspip.bench, "solve", counting_solve)
        code, out, _ = run_cli(capsys, *args, "--out", str(fresh))
        assert code == 0
        machine = machine_line(out)
        assert machine["skipped"] == 1 and machine["completed"] == 1
        assert solved == [("unit-disk", "feasible-0", 2, "pip")]
        assert (fresh / name).read_bytes() == (first / name).read_bytes()
        assert (fresh / name).stat().st_ino == inode

    def test_repeated_seed_solved_once(self, tmp_path, capsys, monkeypatch):
        solved = []
        real_solve = madspip.bench.solve

        def counting_solve(*args, **kwargs):
            solved.append(args[0].name)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(madspip.bench, "solve", counting_solve)
        code, out, _ = run_cli(
            capsys, "bench", "--problem", "unit-disk", "--x0-count", "1", "--seeds", "1,1",
            "--budget", "40", "--out", str(tmp_path / "bench"),
        )
        assert code == 0 and len(solved) == 1
        assert machine_line(out)["completed"] == 1
        assert sum(1 for line in out.splitlines() if line.startswith("problem=")) == 1

    def test_repeated_runs_counted_once(self, tmp_path, capsys):
        args = (
            "bench", "--problem", "unit-disk,unit-disk", "--x0-count", "1", "--seeds", "1,1",
            "--budget", "40", "--out", str(tmp_path / "bench"),
        )
        for _ in range(2):  # the second pass skips the one finished run
            code, out, _ = run_cli(capsys, *args)
            machine = machine_line(out)
            assert code == 0
            assert machine["runs"] == machine["completed"] + machine["errors"] + machine["skipped"] == 1

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--budget", "0"),
            ("--mode", "pip,foo"),
            ("--mode", ""),
            ("--mode", ","),
            ("--problem", ","),
        ],
    )
    def test_bad_run_setting_exits_2_before_any_run(self, tmp_path, capsys, flag, value):
        code, _, err = run_cli(
            capsys, "bench", "--problem", "unit-disk", "--seeds", "1", "--budget", "40",
            flag, value, "--out", str(tmp_path / "bench"),
        )
        assert code == 2
        assert one_error_line(err)
        assert not list(tmp_path.rglob("*.jsonl"))

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, workers):
        code, _, err = run_cli(
            capsys, "bench", "--problem", "unit-disk", "--seeds", "1",
            "--workers", workers, "--out", str(tmp_path),
        )
        assert code == 2
        assert "workers" in err

    def test_unknown_problem_is_named_unquoted(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--problem", "nosuch", "--seeds", "1", "--out", str(tmp_path)
        )
        assert code == 2
        assert err == "error: no builtin problem named 'nosuch'\n"

    def test_empty_seeds_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--problem", "unit-disk", "--seeds", "", "--out", str(tmp_path)
        )
        assert code == 2

    def test_default_suite_cardinality(self, tmp_path, capsys):
        # canonical five problems x 2 x0 x 10 seeds x 2 modes = 200 histories
        out_dir = tmp_path / "bench"
        code, out, _ = run_cli(
            capsys,
            "bench", "--x0-count", "2", "--seeds", "1,2,3,4,5,6,7,8,9,10",
            "--budget", "40", "--mode", "pip,extreme-barrier", "--out", str(out_dir),
        )
        assert code == 0
        machine = machine_line(out)
        assert machine["runs"] == 200
        assert len(list(out_dir.glob("*.jsonl"))) == 200
        # machine line first, then one console summary per executed run
        lines = out.strip().splitlines()
        assert sum(1 for line in lines if line.startswith("problem=")) == 200

    # SHA-256 of the 20 histories, concatenated in sorted name order, that
    # the bench below writes (numpy 2.4.6), each expanded back to full rows
    # (tests/history_expansion.py) and without its stop line: the rows
    # alone, as they were before histories had stop lines and frame lines;
    # any change to solver arithmetic that moves a single byte of any row
    # changes it
    HISTORY_SHA256 = "45fa419510397c9f84ee0364cbd01bce0ff3711766a453498db0102aea997f5d"
    # the same 20 histories expanded, stop lines included
    HISTORY_WITH_STOP_SHA256 = "317ee5518765fc53a29de4f11d145b8a5843adfc8c6f908f2dc25030d24f9e77"
    # the same 20 histories as written: frame lines, 6-key rows and stop
    # lines
    SIX_KEY_HISTORY_SHA256 = "29bea1a01c0b21bbc3fba334b7a1cf2024d19c8edd1b08dc3c4cc6c76e4dfc54"
    # the same 20 histories with each row given back its incumbent and
    # iteration keys (history_expansion.bytes_with_row_keys), as they were
    # written while rows held 8 keys
    WRITTEN_HISTORY_SHA256 = "1887d949ea8c108405cb68735de942709b03e9a97b71f6daa852452c353d9d66"
    # those 8-key histories with each last frame line that no row follows
    # removed, as they were written before every frame was
    COMPACT_HISTORY_SHA256 = "3040c606f49bb42abc2fa0ab3f33aab038d24b8a3e784b9a028219d6b2563b93"
    # the bench's stdout between its machine line and its last line (both
    # name the output directory): the 20 per-run summary lines, each with
    # its final rho= and delta=
    BENCH_STDOUT_SHA256 = "4429d5d8c2475832c3c58cb3f6b1663776b08f9c913e5cc712ea5228f8dd2a9a"

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_history_bytes_pinned(self, tmp_path, capsys, workers):
        out_dir = tmp_path / "bench"
        code, out, _ = run_cli(
            capsys,
            "bench", "--seeds", "1", "--budget", "400", "--mode", "pip,extreme-barrier",
            "--workers", workers, "--out", str(out_dir),
        )
        assert code == 0
        summaries = "".join(line + "\n" for line in out.splitlines()[1:-1])
        assert hashlib.sha256(summaries.encode()).hexdigest() == self.BENCH_STDOUT_SHA256
        paths = sorted(out_dir.glob("*.jsonl"), key=lambda p: p.name)
        assert len(paths) == 20
        written = [p.read_bytes() for p in paths]
        assert hashlib.sha256(b"".join(written)).hexdigest() == self.SIX_KEY_HISTORY_SHA256
        eight_key = [bytes_with_row_keys(data) for data in written]
        assert hashlib.sha256(b"".join(eight_key)).hexdigest() == self.WRITTEN_HISTORY_SHA256
        compact = [without_stopping_frame(data) for data in eight_key]
        assert hashlib.sha256(b"".join(compact)).hexdigest() == self.COMPACT_HISTORY_SHA256
        whole = [expanded_bytes(data) for data in written]
        assert hashlib.sha256(b"".join(whole)).hexdigest() == self.HISTORY_WITH_STOP_SHA256
        digest = hashlib.sha256(b"".join(rows_without_stop(data) for data in whole)).hexdigest()
        assert digest == self.HISTORY_SHA256

    # SHA-256 of the six profile files, concatenated in sorted name order,
    # that `profile` writes from the 20 histories pinned above (numpy 2.4.6)
    PROFILE_SHA256 = "8d6d0ea9d1adb3e3b0c80698baeb0400cbe8a6d18c426f901d3b7345fdc94a20"

    def test_profile_bytes_pinned(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code, _, _ = run_cli(capsys, *self.PINNED_BENCH, "--workers", "1", "--out", str(out_dir))
        assert code == 0
        code, out, _ = run_cli(
            capsys, "profile", "--histories", str(out_dir), "--out", str(tmp_path / "profile")
        )
        assert code == 0 and machine_line(out)["warnings"] == []
        paths = sorted((tmp_path / "profile").iterdir(), key=lambda p: p.name)
        assert len(paths) == 6
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()
        assert digest == self.PROFILE_SHA256

    def test_closed_stdout_exits_without_traceback(self, tmp_path, capsys):
        # as in `madspip bench ... | head -1`, but the reader is gone before
        # the first write, so every print meets a closed pipe
        args = [
            "bench", "--problem", "unit-disk,two-ring", "--x0-count", "2",
            "--seeds", "1,2", "--budget", "60", "--mode", "pip,extreme-barrier",
        ]
        code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "whole"))
        assert code == 0
        env = dict(os.environ, PYTHONPATH=str(Path(madspip.bench.__file__).parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "madspip.cli", *args, "--out", str(tmp_path / "cut")],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr and b"BrokenPipeError" not in proc.stderr
        whole = sorted((tmp_path / "whole").iterdir())
        cut = sorted((tmp_path / "cut").iterdir())
        assert [p.name for p in cut] == [p.name for p in whole] and len(cut) == 16
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(whole, cut))

    PINNED_BENCH = (
        "bench", "--seeds", "1", "--budget", "400", "--mode", "pip,extreme-barrier",
    )

    def test_interrupted_bench_keeps_finished_runs_and_resumes(
        self, tmp_path, capsys, monkeypatch
    ):
        clean = tmp_path / "clean"
        code, _, _ = run_cli(capsys, *self.PINNED_BENCH, "--workers", "1", "--out", str(clean))
        assert code == 0
        calls = []
        real_solve = madspip.bench.solve

        def interrupted_solve(*args, **kwargs):
            calls.append(args[0].name)
            if len(calls) == 5:
                raise KeyboardInterrupt
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(madspip.bench, "solve", interrupted_solve)
        cut = tmp_path / "cut"
        with pytest.raises(KeyboardInterrupt):
            main([*self.PINNED_BENCH, "--workers", "1", "--out", str(cut)])
        assert len(calls) == 5
        kept = tree(cut)
        histories = {name for name in kept if name.endswith(".jsonl")}
        assert len(histories) == 4 and set(kept) == histories
        assert all(kept[name] == (clean / name).read_bytes() for name in histories)

        monkeypatch.setattr(madspip.bench, "solve", real_solve)
        code, out, _ = run_cli(capsys, *self.PINNED_BENCH, "--out", str(cut))
        assert code == 0 and machine_line(out)["skipped"] == 4
        assert tree(cut) == tree(clean)

    def test_records_alive_bounded_by_workers(self, tmp_path, capsys, monkeypatch):
        # each finished run is written and dropped before the next job
        # starts, so at most --workers records exist when a solve begins
        refs, alive_at_call = [], []
        real_solve = madspip.bench.solve

        def tracking_solve(*args, **kwargs):
            alive_at_call.append(sum(ref() is not None for ref in refs))
            record = real_solve(*args, **kwargs)
            refs.append(weakref.ref(record))
            return record

        monkeypatch.setattr(madspip.bench, "solve", tracking_solve)
        code, _, _ = run_cli(
            capsys, *self.PINNED_BENCH, "--workers", "2", "--out", str(tmp_path / "bench")
        )
        assert code == 0
        assert len(alive_at_call) == 20 and len(refs) == 13
        assert max(alive_at_call) <= 2

    def test_workers_start_no_thread(self, tmp_path, capsys, monkeypatch):
        # --workers is checked but has no effect: every solve runs in the
        # calling thread
        before = threading.active_count()
        seen = []
        real_solve = madspip.bench.solve

        def counting_solve(*args, **kwargs):
            seen.append((threading.active_count(), threading.get_ident()))
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(madspip.bench, "solve", counting_solve)
        code, _, _ = run_cli(
            capsys, "bench", "--problem", "unit-disk", "--x0-count", "2", "--seeds", "1,2",
            "--budget", "20", "--workers", "4", "--out", str(tmp_path / "bench"),
        )
        assert code == 0 and len(seen) == 4
        assert set(seen) == {(before, threading.get_ident())}

    def test_out_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("x")
        code, _, err = run_cli(
            capsys, "bench", "--problem", "unit-disk", "--seeds", "1", "--budget", "20",
            "--out", str(out),
        )
        assert code == 2
        assert one_error_line(err)

    def test_failed_history_write_keeps_written_runs(self, tmp_path, capsys):
        # a directory with a history's name is not a finished run: bench
        # tries to write over it and fails, keeping seed 1's history
        out_dir = tmp_path / "bench"
        blocker = out_dir / "unit-disk__feasible-0__seed2__pip.jsonl"
        blocker.mkdir(parents=True)
        args = (
            "bench", "--problem", "unit-disk", "--x0-count", "1", "--seeds", "1,2",
            "--budget", "50", "--workers", "1", "--out", str(out_dir),
        )
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert one_error_line(err)
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "unit-disk__feasible-0__seed1__pip.jsonl",
            "unit-disk__feasible-0__seed2__pip.jsonl",
        ]
        assert blocker.is_dir()
        blocker.rmdir()
        code, out, _ = run_cli(capsys, *args)
        machine = machine_line(out)
        assert code == 0 and machine["skipped"] == 1 and machine["completed"] == 1

    def test_partial_failures_reported(self, tmp_path, capsys):
        # extreme barrier errors out on the equality problem but pip completes
        out_dir = tmp_path / "bench"
        code, out, _ = run_cli(
            capsys,
            "bench", "--problem", "sphere-eq", "--x0-count", "1", "--seeds", "1",
            "--budget", "50", "--mode", "pip,extreme-barrier", "--out", str(out_dir),
        )
        assert code == 0
        machine = machine_line(out)
        assert machine["completed"] == 1 and machine["errors"] == 1

    def test_no_completed_run_exits_1(self, tmp_path, capsys):
        # extreme barrier refuses the equality problem, so no run completes
        code, out, err = run_cli(
            capsys,
            "bench", "--problem", "sphere-eq", "--x0-count", "1", "--seeds", "1",
            "--budget", "50", "--mode", "extreme-barrier", "--out", str(tmp_path / "bench"),
        )
        assert code == 1 and err == ""
        machine = machine_line(out)
        assert machine["completed"] == 0 and machine["errors"] == 1 and machine["skipped"] == 0


class TestProfileCommand:
    @pytest.fixture()
    def bench_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        run_cli(
            capsys,
            "bench", "--problem", "unit-disk,two-ring", "--x0-count", "2",
            "--seeds", "1,2", "--budget", "120", "--mode", "pip,extreme-barrier",
            "--out", str(out_dir),
        )
        capsys.readouterr()
        return out_dir

    def test_writes_expected_files(self, bench_dir, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--histories", str(bench_dir), "--tau", "0.1,0.001"
        )
        assert code == 0
        machine = machine_line(out)
        assert machine["histories"] == 16
        names = {p.rsplit("/", 1)[-1] for p in machine["files"]}
        assert names == {
            "data_profile_tau0.1.csv", "data_profile_tau0.1.svg",
            "data_profile_tau0.001.csv", "data_profile_tau0.001.svg",
            "feasibility_profile.csv", "feasibility_profile.svg",
        }

    def test_feasibility_only_with_empty_tau(self, bench_dir, capsys):
        code, out, _ = run_cli(capsys, "profile", "--histories", str(bench_dir), "--tau", "")
        assert code == 0
        names = {p.rsplit("/", 1)[-1] for p in machine_line(out)["files"]}
        assert names == {"feasibility_profile.csv", "feasibility_profile.svg"}

    def test_corrupt_history_warns_but_succeeds(self, bench_dir, capsys):
        bad = bench_dir / "unit-disk__feasible-0__seed1__pip.jsonl"
        bad.write_text('{"eval_index": 0, INVALID\n')
        code, out, _ = run_cli(capsys, "profile", "--histories", str(bench_dir))
        assert code == 0
        assert machine_line(out)["warnings"]

    @pytest.mark.parametrize(
        "line",
        [
            '{"eval_index": 0, "x": [0.0], "g": [], "h": [], "status": "unsuccessful"}',
            '{"eval_index": 0, "x": [0.0], "f": 1.0, "g": 5, "h": [], "status": "unsuccessful"}',
            '{"eval_index": 0, "x": [0.0], "f": 1.0, "g": [false], "h": [], "status": "unsuccessful"}',
            '[0.0, 1.0]',
            # evaluation 7 right after evaluation 0
            '{"eval_index": 0, "x": [0.0, 0.0], "f": 1.0, "g": [], "h": [], "status": "unsuccessful"}\n'
            '{"eval_index": 7, "x": [0.5, 0.0], "f": 0.5, "g": [], "h": [], "status": "unsuccessful"}',
            # a row that is not an object after a well-formed first row
            '{"eval_index": 0, "x": [0.0, 0.0], "f": 1.0, "g": [], "h": [], "status": "unsuccessful"}\n'
            '[0.0, 1.0]',
        ],
    )
    def test_hostile_json_history_warns_but_succeeds(self, bench_dir, capsys, line):
        (bench_dir / "unit-disk__feasible-9__seed1__pip.jsonl").write_text(line + "\n")
        code, out, _ = run_cli(capsys, "profile", "--histories", str(bench_dir))
        assert code == 0
        machine = machine_line(out)
        assert machine["histories"] == 16
        assert [w.split(":")[0] for w in machine["warnings"]] == [
            "skipping unit-disk__feasible-9__seed1__pip.jsonl"
        ]

    def test_second_spelling_of_a_seed_is_skipped(self, bench_dir, capsys):
        # seed05 would parse to the run key of seed1's neighbour seed5 and
        # feed the tables a history that the curves then drop
        real = bench_dir / "two-ring__feasible-0__seed1__pip.jsonl"
        (bench_dir / "two-ring__feasible-0__seed01__pip.jsonl").write_bytes(real.read_bytes())
        code, out, _ = run_cli(capsys, "profile", "--histories", str(bench_dir))
        assert code == 0
        machine = machine_line(out)
        assert machine["histories"] == 16
        assert [w.split(":")[0] for w in machine["warnings"]] == [
            "skipping two-ring__feasible-0__seed01__pip.jsonl"
        ]

    @pytest.mark.parametrize("mode", ["a&b<c>", 'x,y"z'])
    def test_hostile_mode_label_keeps_the_profiles_well_formed(self, tmp_path, capsys, mode):
        # a mode label comes from the file name, which may hold XML and CSV
        # metacharacters
        problem, _ = madspip.suite.builtin_problem("unit-disk")
        record = madspip.solver.solve(
            problem, madspip.suite.initial_point(problem, "feasible-0"), madspip.solver.SolverConfig(30, 1)
        )
        madspip.problem.write_history(record.events, tmp_path / f"p__feasible-0__seed1__{mode}.jsonl")
        code, out, _ = run_cli(capsys, "profile", "--histories", str(tmp_path), "--tau", "0.1")
        assert code == 0 and machine_line(out)["warnings"] == []
        for name in ("data_profile_tau0.1", "feasibility_profile"):
            root = ElementTree.parse(tmp_path / f"{name}.svg").getroot()
            assert mode in [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
            with open(tmp_path / f"{name}.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["label", "tau", "k", "fraction"]
            assert all(len(r) == 4 and r[0] == mode for r in rows[1:])

    def test_problem_file_named_like_a_builtin_keeps_its_own_optimum(self, tmp_path, capsys):
        # optimum 5 at the origin; the builtin two-ring's f* is -2, which
        # would put the tau = 0.1 threshold at -1.1, out of this run's reach
        exe = tmp_path / "bowl.sh"
        exe.write_text("#!/bin/sh\nawk '{print $1*$1 + $2*$2 + 5}'\n")
        exe.chmod(0o755)
        definition = tmp_path / "ring.txt"
        definition.write_text(
            f"name = two-ring\nn = 2\nm = 0\np = 0\nlower = -5, -5\nupper = 5, 5\nevaluator = {exe}\n"
        )
        out_dir = tmp_path / "runs"
        code, out, err = run_cli(
            capsys,
            "solve", "--problem", str(definition), "--x0", "1,1",
            "--budget", "100", "--out", str(out_dir),
        )
        assert code == 0, err
        assert machine_line(out)["best_feasible_f"] < 5.2
        code, out, _ = run_cli(capsys, "profile", "--histories", str(out_dir), "--tau", "0.1")
        assert code == 0 and machine_line(out)["warnings"] == []
        with open(out_dir / "data_profile_tau0.1.csv", newline="", encoding="utf-8") as fh:
            fractions = [float(row[3]) for row in list(csv.reader(fh))[1:]]
        assert fractions[0] == 0.0 and fractions[-1] == 1.0

    def test_unreadable_history_warns_but_succeeds(self, bench_dir, capsys):
        (bench_dir / "unit-disk__feasible-9__seed1__pip.jsonl").mkdir()
        code, out, _ = run_cli(capsys, "profile", "--histories", str(bench_dir))
        assert code == 0
        assert machine_line(out)["histories"] == 16
        assert len(machine_line(out)["warnings"]) == 1

    # "0.1,0.1000001" and "0.1,0.1" name one file, data_profile_tau0.1, twice
    @pytest.mark.parametrize(
        "tau", ["0", "-1", "0.1,0", "0.1,0.1000001", "0.1,0.1", "inf", "0.1,inf"]
    )
    def test_bad_tau_exits_2(self, bench_dir, capsys, tau):
        code, _, err = run_cli(capsys, "profile", "--histories", str(bench_dir), f"--tau={tau}")
        assert code == 2
        assert one_error_line(err) and err.startswith("error: --tau")
        assert not list(bench_dir.glob("*.csv"))

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "profile", "--histories", str(tmp_path / "none"))
        assert code == 2

    def test_no_readable_history_exits_2(self, tmp_path, capsys):
        (tmp_path / "unit-disk__feasible-0__seed1__pip.jsonl").write_text("[0.0]\n")
        code, out, err = run_cli(capsys, "profile", "--histories", str(tmp_path))
        assert code == 2 and out == ""
        assert err == "error: no readable histories found\n"

    def test_out_is_a_file_exits_2(self, bench_dir, tmp_path, capsys, monkeypatch):
        reads = []
        real_read = madspip.cli.read_history

        def counting_read(path):
            reads.append(path)
            return real_read(path)

        monkeypatch.setattr(madspip.cli, "read_history", counting_read)
        out = tmp_path / "taken"
        out.write_text("x")
        code, _, err = run_cli(
            capsys, "profile", "--histories", str(bench_dir), "--out", str(out)
        )
        assert code == 2
        assert one_error_line(err)
        assert reads == []  # --out fails before any history is read


class TestListCommand:
    def test_lists_builtins(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        machine = machine_line(out)
        names = {p["name"] for p in machine["problems"]}
        assert "unit-disk" in names and "sphere-eq" in names


def test_commands_leave_numpy_unloaded(tmp_path, capsys):
    # the random streams are madspip.stream's, in pure Python, so a fresh
    # interpreter that lists, profiles, solves or benches never imports numpy
    bench_dir = tmp_path / "bench"
    code, _, _ = run_cli(
        capsys, "bench", "--problem", "unit-disk", "--seeds", "1", "--budget", "60",
        "--out", str(bench_dir),
    )
    assert code == 0
    env = dict(os.environ, PYTHONPATH=str(Path(madspip.bench.__file__).parents[1]))
    script = (
        "import sys\n"
        "from madspip import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print('numpy' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    for argv in (
        ["list"],
        ["profile", "--histories", str(bench_dir), "--out", str(tmp_path / "out")],
        ["solve", "--problem", "sphere-eq", "--x0", "infeasible-0", "--budget", "60", "--out", str(tmp_path / "solve")],
        ["bench", "--problem", "two-ring", "--seeds", "1", "--budget", "60", "--out", str(tmp_path / "bench2")],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False", argv


def _interpreter(version):
    """A ``python3`` of ``version`` ("3.10", ...): a pyenv install under
    ``$PYENV_ROOT`` (default ``~/.pyenv``), else this one when it is that
    version, else ``None``."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    found = sorted(root.glob(f"versions/{version}.*/bin/python3"))
    if found:
        return str(found[-1])
    return sys.executable if "%d.%d" % sys.version_info[:2] == version else None


def _history_digests(out_dir):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out_dir.glob("*.jsonl"))}


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_bench_bytes_need_no_numpy_on_any_interpreter(version, tmp_path, capsys):
    # the history bytes are one function of the seed on every interpreter,
    # with or without numpy installed: a bench in a fresh interpreter where
    # `import numpy` fails writes the histories this process writes
    python = _interpreter(version)
    if python is None:
        pytest.skip(f"no python {version} here")
    argv = ["bench", "--x0-count", "2", "--seeds", "1,2", "--budget", "200", "--mode", "pip,extreme-barrier"]
    assert main([*argv, "--out", str(tmp_path / "here")]) == 0
    capsys.readouterr()
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from madspip import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(madspip.bench.__file__).parents[1]))
    proc = subprocess.run(
        [python, "-c", script, *argv, "--out", str(tmp_path / "there")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    here, there = _history_digests(tmp_path / "here"), _history_digests(tmp_path / "there")
    assert len(here) == 40 and there == here


class TestConfigPrecedence:
    def test_flag_beats_file_beats_default(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        base = f"problem = unit-disk\nx0 = feasible-0\nout = {tmp_path}\n"
        config.write_text(base + "budget = 20\n")
        code, out, _ = run_cli(capsys, "solve", "--config", str(config), "--budget", "30")
        assert code == 0 and machine_line(out)["evals"] == 30
        code, out, _ = run_cli(capsys, "solve", "--config", str(config))
        assert code == 0 and machine_line(out)["evals"] == 20
        # no budget in the file: solve's own default of 1000 applies
        config.write_text(base)
        code, out, _ = run_cli(capsys, "solve", "--config", str(config))
        assert code == 0 and 30 < machine_line(out)["evals"] <= 1000

    @pytest.mark.parametrize(
        "command,line",
        [
            ("solve", "budget = x"),
            ("solve", "check-invariants = yes\nseed = 1.5"),
            ("bench", "seeds = 1,x"),
            ("bench", "workers = two"),
            ("bench", "budget = 0"),
            ("bench", "mode = pip,foo"),
            ("profile", "tau = 0.1,x"),
            ("profile", "tau = 0"),
            ("profile", "tau = -1"),
        ],
    )
    def test_malformed_config_value_exits_2(self, tmp_path, capsys, command, line):
        config = tmp_path / "bad.cfg"
        config.write_text(
            f"problem = unit-disk\nx0 = feasible-0\nseeds = 1\nout = {tmp_path}\n{line}\n"
        )
        try:
            code = main([command, "--config", str(config)])
        except SystemExit as exc:  # argparse rejects it as it rejects a bad flag
            code = exc.code
        assert code == 2
        assert not list(tmp_path.glob("*.jsonl"))

    @pytest.mark.parametrize(
        "key,file_value,flag,flag_value,getter",
        [
            ("seed", "5", "--seed", "9", lambda m: m["seed"]),
            ("budget", "70", "--budget", "90", lambda m: m["evals"]),
            ("mode", "extreme-barrier", "--mode", "pip", lambda m: m["mode"]),
        ],
    )
    def test_end_to_end_matrix(self, tmp_path, capsys, key, file_value, flag, flag_value, getter):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"problem = unit-disk\nx0 = feasible-0\nout = {tmp_path}\n{key} = {file_value}\n"
        )
        # file only
        code, out, _ = run_cli(capsys, "solve", "--config", str(config))
        assert code == 0
        file_effective = getter(machine_line(out))
        # flag overrides
        code, out, _ = run_cli(capsys, "solve", "--config", str(config), flag, flag_value)
        assert code == 0
        flag_effective = getter(machine_line(out))
        assert str(file_effective) != str(flag_effective)
        if key == "budget":
            assert file_effective <= 70 and flag_effective <= 90
        else:
            assert str(flag_effective) == flag_value

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("frobnicate = yes\n")
        with pytest.raises(ValueError):
            _read_config_file(str(config))

    def test_key_value_readers_keep_their_own_malformed_line_label(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# a comment\n\nseed = 1\nno equals sign\n")
        with pytest.raises(ValueError, match="malformed config line: 'no equals sign'"):
            _read_config_file(str(path))
        with pytest.raises(ValueError, match="malformed problem definition line: 'no equals sign'"):
            load_problem_file(path)

    def test_no_search_via_file(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"problem = unit-disk\nx0 = feasible-0\nbudget = 50\nout = {tmp_path}\nno-search = true\n"
        )
        code, out, _ = run_cli(capsys, "solve", "--config", str(config))
        assert code == 0


class TestHistoryNames:
    def test_round_trip(self):
        assert _parse_history_name("unit-disk__feasible-0__seed3__pip.jsonl") == (
            "unit-disk", "feasible-0", 3, "pip"
        )

    def test_malformed(self):
        with pytest.raises(ValueError):
            _parse_history_name("nope.jsonl")

    @pytest.mark.parametrize(
        "seed", ["05", "00", "+5", " 5", "5 ", "\u0665", "5_0", "-5", "", "5.0", "0x5"]
    )
    def test_seed_part_that_run_name_never_writes_is_rejected(self, seed):
        # _run_name writes str(seed) of a non-negative int: only that spelling
        # names a run, so two files cannot parse to one key
        with pytest.raises(ValueError, match="does not encode a run key"):
            _parse_history_name(f"two-ring__feasible-0__seed{seed}__pip.jsonl")

    @pytest.mark.parametrize("seed", [0, 5, 10, 2**40])
    def test_every_written_seed_round_trips(self, seed):
        name = _run_name("two-ring", "feasible-0", seed, "pip") + ".jsonl"
        assert _parse_history_name(name) == ("two-ring", "feasible-0", seed, "pip")

    @pytest.mark.parametrize("problem", ["unit-disk", "_lead", "a_b", "ext-line"])
    @pytest.mark.parametrize("x0_id", ["feasible-0", "literal", "_start", "x0.v2"])
    def test_every_accepted_part_round_trips(self, problem, x0_id):
        assert check_name_part("problem name", problem) == problem
        assert check_name_part("x0 id", x0_id) == x0_id
        name = _run_name(problem, x0_id, 7, "pip") + ".jsonl"
        assert _parse_history_name(name) == (problem, x0_id, 7, "pip")
