"""Failures that reach ``madspip.cli.main`` from inside a command's work,
and hostile names and settings that must be refused before any run."""

import json
import os
from pathlib import Path
from xml.etree import ElementTree

import pytest

import madspip.cli
from madspip.cli import main, _parse_history_name
from madspip.problem import write_history
from madspip.solver import SolverConfig, solve
from madspip.suite import builtin_problem, check_name_part, initial_point


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_line(out: str) -> dict:
    return json.loads(out.strip().splitlines()[0])


def one_error_line(err: str) -> bool:
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


def write_history_file(directory, name):
    """A finished run's history, stop line and all, under ``name`` (``str``,
    or ``bytes`` for a file name that is not UTF-8)."""
    problem, _ = builtin_problem("unit-disk")
    record = solve(problem, initial_point(problem, "feasible-0"), SolverConfig(30, 1))
    write_history(record.events, os.fsdecode(os.path.join(os.fsencode(directory), os.fsencode(name))))


def solve_histories(capsys, out_dir):
    code, _, _ = run_cli(
        capsys, "solve", "--problem", "unit-disk", "--x0", "feasible-0",
        "--budget", "30", "--out", str(out_dir),
    )
    assert code == 0


def _raise_value_error(*args, **kwargs):
    raise ValueError("boom")


def _raise_unicode_encode_error(*args, **kwargs):
    raise UnicodeEncodeError("utf-8", "a\udcffb", 1, 2, "surrogates not allowed")


class TestOneFailureExit:
    @pytest.mark.parametrize(
        "attribute,fake,command",
        [
            ("run_matrix", _raise_value_error, "bench"),
            ("export", _raise_unicode_encode_error, "profile"),
        ],
    )
    def test_failure_inside_a_command_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, attribute, fake, command
    ):
        if command == "bench":
            argv = ["bench", "--problem", "unit-disk", "--seeds", "1", "--budget", "20",
                    "--out", str(tmp_path / "bench")]
        else:
            solve_histories(capsys, tmp_path / "histories")
            argv = ["profile", "--histories", str(tmp_path / "histories"), "--tau", "0.1"]
        monkeypatch.setattr(madspip.cli, attribute, fake)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert one_error_line(err)
        assert out == ""


class TestNegativeSeeds:
    @pytest.mark.parametrize("seeds", ["-1", "1,-1"])
    def test_bench_refuses_a_negative_seed_before_any_run(self, tmp_path, capsys, seeds):
        out_dir = tmp_path / "bench"
        code, out, err = run_cli(
            capsys, "bench", "--problem", "unit-disk", "--seeds", seeds,
            "--budget", "20", "--out", str(out_dir),
        )
        assert code == 2
        assert one_error_line(err) and "-1" in err
        assert out == ""
        assert not out_dir.exists()

    def test_solve_names_the_negative_seed(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--problem", "unit-disk", "--x0", "feasible-0",
            "--seed", "-3", "--budget", "20", "--out", str(tmp_path),
        )
        assert code == 2
        assert one_error_line(err) and "seed" in err and "-3" in err
        assert not list(tmp_path.rglob("*.jsonl"))


class TestUnprintableNames:
    @pytest.mark.parametrize("value", ["a\x00b", "a\x01b", "a\x7fb", "a\udcffb", "\u200b"])
    def test_check_name_part_refuses_unprintable_characters(self, value):
        with pytest.raises(ValueError, match="cannot name a history file"):
            check_name_part("mode", value)

    @pytest.mark.parametrize("part", [0, 1, 3])
    @pytest.mark.parametrize("bad", ["a\x01b", "a\udcffb"])
    def test_every_part_of_a_history_name_is_checked(self, part, bad):
        parts = ["p", "feasible-0", "seed1", "pip"]
        parts[part] = bad
        with pytest.raises(ValueError, match="cannot name a history file"):
            _parse_history_name("__".join(parts) + ".jsonl")

    def test_control_character_in_a_mode_is_skipped(self, tmp_path, capsys):
        write_history_file(tmp_path, "p__feasible-0__seed1__pip.jsonl")
        write_history_file(tmp_path, "p__feasible-0__seed1__a\x01b.jsonl")
        code, out, _ = run_cli(capsys, "profile", "--histories", str(tmp_path), "--tau", "0.1")
        assert code == 0
        machine = machine_line(out)
        assert machine["histories"] == 1
        assert [w.split(":")[0] for w in machine["warnings"]] == [
            "skipping p__feasible-0__seed1__a\x01b.jsonl"
        ]
        for name in ("data_profile_tau0.1", "feasibility_profile"):
            ElementTree.parse(tmp_path / f"{name}.svg")  # well-formed

    def test_undecodable_byte_in_a_mode_is_skipped(self, tmp_path, capsys):
        # a file-name byte that is not UTF-8 reaches Python as a lone
        # surrogate; the warning naming it must still print on a strict
        # UTF-8 stdout, as pytest's captured stdout is, and a warning about
        # a printable name keeps its text
        write_history_file(tmp_path, "p__feasible-0__seed1__pip.jsonl")
        write_history_file(tmp_path, "p__feasible-0__seed2__pip.jsonl")
        write_history_file(tmp_path, b"p__feasible-0__seed1__a\xffb.jsonl")
        write_history_file(tmp_path, "p__feasible-0__seed05__pipé.jsonl")
        code, out, err = run_cli(capsys, "profile", "--histories", str(tmp_path), "--tau", "0.1")
        assert code == 0, err
        machine = machine_line(out)
        assert machine["histories"] == 2
        assert len(machine["warnings"]) == 2
        lines = out.splitlines()
        assert any(
            line.startswith("warning: skipping p__feasible-0__seed1__a\\udcffb.jsonl: ")
            for line in lines
        )
        assert (
            "warning: skipping p__feasible-0__seed05__pipé.jsonl: history file name "
            "'p__feasible-0__seed05__pipé.jsonl' does not encode a run key"
        ) in lines
        assert sorted(p.name for p in Path(tmp_path).glob("*.csv")) == [
            "data_profile_tau0.1.csv", "feasibility_profile.csv"
        ]

    def test_nul_in_a_problem_name_exits_2_before_any_evaluation(self, tmp_path, capsys):
        marker = tmp_path / "evaluated"
        exe = tmp_path / "zero.sh"
        exe.write_text(f'#!/bin/sh\ntouch "{marker}"\nread line\necho "0.0"\n')
        exe.chmod(0o755)
        definition = tmp_path / "ext.txt"
        definition.write_text(f"name = a\x00b\nn = 1\nm = 0\np = 0\nevaluator = {exe}\n")
        code, out, err = run_cli(
            capsys, "solve", "--problem", str(definition), "--x0", "0",
            "--budget", "10", "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert one_error_line(err) and "problem name" in err
        assert out == ""
        assert not marker.exists()
        assert not list(tmp_path.rglob("*.jsonl"))
