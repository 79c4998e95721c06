import hashlib
import json

import pytest

import madspip.bench
from madspip.cli import main, _read_config_file, _parse_history_name


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_line(out: str) -> dict:
    return json.loads(out.strip().splitlines()[0])


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

    def test_one_sided_bounds_exit_2(self, tmp_path, capsys):
        definition = tmp_path / "ext.txt"
        definition.write_text("name = ext\nn = 1\nm = 0\np = 0\nlower = -1\nevaluator = /bin/true\n")
        code, _, err = run_cli(
            capsys, "solve", "--problem", str(definition), "--x0", "0", "--out", str(tmp_path)
        )
        assert code == 2
        assert "lower and upper" in err

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
        manifest = (out_dir / "manifest.txt").read_text().strip().splitlines()
        assert len(manifest) == 8

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

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, workers):
        code, _, err = run_cli(
            capsys, "bench", "--problem", "unit-disk", "--seeds", "1",
            "--workers", workers, "--out", str(tmp_path),
        )
        assert code == 2
        assert "workers" in err

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
        assert len((out_dir / "manifest.txt").read_text().strip().splitlines()) == 200
        # machine line first, then one console summary per executed run
        lines = out.strip().splitlines()
        assert sum(1 for line in lines if line.startswith("problem=")) == 200

    # SHA-256 of the 20 histories, concatenated in sorted name order, that
    # the bench below writes (numpy 2.4.6); any change to solver arithmetic
    # that moves a single byte of any history changes it
    HISTORY_SHA256 = "45fa419510397c9f84ee0364cbd01bce0ff3711766a453498db0102aea997f5d"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_history_bytes_pinned(self, tmp_path, capsys, workers):
        out_dir = tmp_path / "bench"
        code, _, _ = run_cli(
            capsys,
            "bench", "--seeds", "1", "--budget", "400", "--mode", "pip,extreme-barrier",
            "--workers", workers, "--out", str(out_dir),
        )
        assert code == 0
        paths = sorted(out_dir.glob("*.jsonl"), key=lambda p: p.name)
        assert len(paths) == 20
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()
        assert digest == self.HISTORY_SHA256

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

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "profile", "--histories", str(tmp_path / "none"))
        assert code == 2


class TestListCommand:
    def test_lists_builtins(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        machine = machine_line(out)
        names = {p["name"] for p in machine["problems"]}
        assert "unit-disk" in names and "sphere-eq" in names


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
            ("profile", "tau = 0.1,x"),
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
