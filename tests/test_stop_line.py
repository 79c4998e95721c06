"""A history ends in one stop line that holds its run's view, and
``profile`` reads that line alone: the view it gives must equal the one the
rows give, and a line that no run writes is skipped with one warning."""

import json
import math

import pytest

import madspip.problem
from madspip.bench import view_of_history, view_of_stop
from madspip.cli import _parse_history_name, main
from madspip.problem import read_history, read_stop_line, write_history
from madspip.solver import SolverConfig, solve, stop_line
from madspip.suite import builtin_problems, initial_point

ALL_BUILTINS = ",".join(problem.name for problem, _ in builtin_problems())


def profile(capsys, histories):
    code = main(["profile", "--histories", str(histories), "--out", str(histories / "out")])
    assert code == 0
    return json.loads(capsys.readouterr().out.splitlines()[0])


@pytest.mark.parametrize(
    "bench",
    [
        # every builtin x start x mode
        ["--problem", ALL_BUILTINS, "--seeds", "1", "--budget", "300"],
        # the canonical matrix
        ["--seeds", "1,2,3,4", "--budget", "1500"],
    ],
    ids=["builtins", "canonical"],
)
def test_stop_line_view_is_the_rows_view(tmp_path, capsys, bench):
    out = tmp_path / "bench"
    assert main(["bench", *bench, "--mode", "pip,extreme-barrier", "--out", str(out)]) == 0
    capsys.readouterr()
    paths = sorted(out.glob("*.jsonl"))
    stopped = 0
    for path in paths:
        key = _parse_history_name(path.name)
        stop = read_stop_line(path)
        if stop is None:  # an error run: nothing written
            assert path.stat().st_size == 0, path.name
            continue
        stopped += 1
        assert view_of_stop(stop, *key) == view_of_history(read_history(path), *key), path.name
        assert stop["builtin"] is True
    assert stopped >= len(paths) / 2


def test_rows_are_written_as_without_a_stop(tmp_path):
    problem, _ = builtin_problems()[0]
    record = solve(problem, initial_point(problem, "feasible-0"), SolverConfig(60, seed=3))
    write_history(record.rows, tmp_path / "rows.jsonl")
    write_history(record.rows, tmp_path / "both.jsonl", stop_line(record, True))
    rows = (tmp_path / "rows.jsonl").read_bytes()
    both = (tmp_path / "both.jsonl").read_bytes()
    assert both.startswith(rows) and both.count(b"\n") == rows.count(b"\n") + 1
    stop = json.loads(both[len(rows):])
    assert stop == {
        "stop": record.outcome, "n": 2, "count": record.evals_used,
        "steps": [list(step) for step in record.steps], "builtin": True,
    }
    assert not {"eval_index", "f", "status"} & set(stop)


ROW = '{"eval_index":0,"x":[0.0,0.0],"f":1.0,"g":[],"h":[],"status":"unsuccessful"}'


def stop_text(**changes):
    stop = {"stop": "budget-exhausted", "n": 2, "count": 3, "steps": [[0, 1.0]], "builtin": True}
    stop.update(changes)
    return json.dumps(stop)


@pytest.mark.parametrize(
    "stop",
    [
        stop_text(steps=[[0, 1]]),  # an f that is not a float
        stop_text(steps=[[0, True]]),
        stop_text(steps=[[0, math.nan]]),
        stop_text(steps=[[0, math.inf]]),
        stop_text(steps=[[0, 1.0], [1, 1.0]]),  # an f that does not decrease
        stop_text(steps=[[0, 1.0], [2, 2.0]]),
        stop_text(steps=[[1, 1.0], [0, 0.5]]),  # positions out of order
        stop_text(steps=[[1, 1.0], [1, 0.5]]),
        stop_text(steps=[[3, 1.0]]),  # a position at count
        stop_text(steps=[[4, 1.0]]),
        stop_text(steps=[[-1, 1.0]]),
        stop_text(steps=[[False, 1.0]]),
        stop_text(steps=[[0, 1.0, 2]]),
        stop_text(steps=[0, 1.0]),
        stop_text(steps={"0": 1.0}),
        stop_text(count=True),  # a bool or negative count
        stop_text(count=-1),
        stop_text(count=3.0),
        stop_text(n=0),  # n below 1
        stop_text(n=True),
        stop_text(builtin=1),
        stop_text(builtin=None),
    ],
)
def test_hostile_stop_line_is_skipped_once(tmp_path, capsys, stop):
    assert main([
        "bench", "--problem", "unit-disk", "--x0-count", "1", "--seeds", "1",
        "--budget", "40", "--out", str(tmp_path),
    ]) == 0
    capsys.readouterr()
    # the row alone would make a good history: the stop line is what is refused
    name = "unit-disk__feasible-9__seed1__pip.jsonl"
    (tmp_path / name).write_text(f"{ROW}\n{stop}\n")
    machine = profile(capsys, tmp_path)
    assert machine["histories"] == 1
    assert [w.split(":")[0] for w in machine["warnings"]] == [f"skipping {name}"]


def test_stop_line_longer_than_a_block_is_read(tmp_path, capsys):
    count = 2000
    steps = [[i, 1000.0 - i * 0.123456789] for i in range(count)]
    stop = stop_text(count=count, steps=steps)
    assert len(stop) > 8 * madspip.problem._TAIL_BLOCK
    path = tmp_path / "p__feasible-0__seed1__pip.jsonl"
    # trailing blank lines do not hide it
    path.write_text(f"{ROW}\n{stop}\n\n \r\n")
    assert read_stop_line(path) == json.loads(stop)
    view = view_of_stop(read_stop_line(path), "p", "feasible-0", 1, "pip")
    assert view.count == count and view.steps[-1] == (count - 1, steps[-1][1])
    machine = profile(capsys, tmp_path)
    assert machine["histories"] == 1 and machine["warnings"] == []


@pytest.mark.parametrize(
    "text",
    [
        "",
        f"{ROW}\n",
        f"{ROW}\n{ROW}",
        f'{ROW}\n{{"stop": "x"\n',  # not JSON
        f'{ROW}\n["stop"]\n',
        '{"stop": "x"}\n' + ROW + "\n",  # not the last line
    ],
)
def test_only_a_last_object_with_a_stop_key_is_a_stop_line(tmp_path, text):
    path = tmp_path / "run.jsonl"
    path.write_text(text)
    assert read_stop_line(path) is None
