"""A history ends in one stop line that holds its run's view, and
``profile`` reads that line alone: the replay holds the view it gives to the
rows, a history with lines and no stop line has no view, and a line that no
run writes is skipped with one warning."""

import contextlib
import dataclasses
import io
import json
import math
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

import madspip.cli
import madspip.history
from madspip.bench import RunView, view_of_history
from madspip.cli import _parse_history_name, main
from madspip.history import read_stop, read_stop_line
from madspip.problem import ExternalEvaluator, Problem, read_history, write_history
from madspip.solver import RunRecord, SolverConfig, check_run_invariants, solve, summary_line
from madspip.suite import builtin_problem, builtin_problems, initial_point

from history_expansion import bytes_with_row_keys

ALL_BUILTINS = ",".join(problem.name for problem, _ in builtin_problems())


def profile(capsys, histories):
    code = main(["profile", "--histories", str(histories), "--out", str(histories / "out")])
    assert code == 0
    return json.loads(capsys.readouterr().out.splitlines()[0])


@pytest.fixture(
    scope="module",
    params=[
        # every builtin x start x mode
        ["--problem", ALL_BUILTINS, "--seeds", "1", "--budget", "300"],
        # the canonical matrix
        ["--seeds", "1,2,3,4", "--budget", "1500"],
    ],
    ids=["builtins", "canonical"],
)
def bench_dir(tmp_path_factory, request):
    out = tmp_path_factory.mktemp("bench")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["bench", *request.param, "--mode", "pip,extreme-barrier", "--out", str(out)]) == 0
    return out


def test_stop_line_view_is_held_to_the_rows(bench_dir, tmp_path, monkeypatch):
    # the views profile builds are the stop lines' views, which the replay
    # holds to the rows; an error run's empty file gives an empty view
    built = {}
    best_feasible_table = madspip.cli.best_feasible_table

    def recording(views, known):
        built.update((view.key, view) for view in views)
        return best_feasible_table(views, known=known)

    monkeypatch.setattr(madspip.cli, "best_feasible_table", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["profile", "--histories", str(bench_dir), "--out", str(tmp_path)]) == 0
    paths = sorted(bench_dir.glob("*.jsonl"))
    assert len(built) == len(paths)
    stopped = 0
    for path in paths:
        key = _parse_history_name(path.name)
        stop = read_stop_line(path)
        if stop is None:  # an error run: nothing written
            assert path.stat().st_size == 0, path.name
            assert built[key] == view_of_history([], *key), path.name
            continue
        stopped += 1
        _, n, count, steps, builtin = read_stop(stop)
        assert built[key] == RunView(*key, n, count, steps) and builtin is True, path.name
        assert check_run_invariants(RunRecord(*key, n, events=read_history(path)))[0] == [], path.name
    assert stopped >= len(paths) / 2


def test_histories_with_8_key_rows_read_as_written(bench_dir, tmp_path):
    # histories written while rows also held incumbent and iteration give
    # the same profile from their stop lines, and read back the same stop
    # lines and replay verdicts; cut before their stop lines, they have no
    # view, and profile skips each with one warning
    layouts = {name: tmp_path / name for name in ("written", "8-key", "8-key-cut")}
    for directory in layouts.values():
        directory.mkdir()
    for path in bench_dir.glob("*.jsonl"):
        data = path.read_bytes()
        old = bytes_with_row_keys(data)
        assert (b'"iteration"' in old) == bool(data), path.name
        (layouts["written"] / path.name).write_bytes(data)
        (layouts["8-key"] / path.name).write_bytes(old)
        (layouts["8-key-cut"] / path.name).write_bytes(old[: old.rstrip(b"\n").rfind(b"\n") + 1])
    profiles, machines = [], []
    for directory in layouts.values():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["profile", "--histories", str(directory), "--out", str(directory / "out")]) == 0
        profiles.append({p.name: p.read_bytes() for p in (directory / "out").iterdir()})
        machines.append(json.loads(out.getvalue().splitlines()[0]))
    assert profiles[0] and profiles[1] == profiles[0]
    assert machines[0]["warnings"] == machines[1]["warnings"] == []
    started = sorted(path.name for path in bench_dir.glob("*.jsonl") if path.stat().st_size)
    assert machines[2]["warnings"] == [f"skipping {name}: no stop line" for name in started]
    assert machines[2]["histories"] == machines[0]["histories"] - len(started)
    replayed = 0
    for path in sorted(bench_dir.glob("*.jsonl")):
        key = _parse_history_name(path.name)
        lines, old = (read_history(layouts[name] / path.name) for name in ("written", "8-key"))
        if not lines:  # an error run
            continue
        assert read_stop(old[-1]) == read_stop(lines[-1]), path.name
        n = lines[-1]["n"]
        verdict = check_run_invariants(RunRecord(*key, n, events=lines))
        assert check_run_invariants(RunRecord(*key, n, events=old)) == verdict, path.name
        replayed += 1
    assert replayed >= 15  # the started runs of either fixture


ROW_KEYS = ["eval_index", "x", "f", "g", "h", "status"]
FRAME_KEYS = ["frame", "rho", "delta_frame", "g_int"]
STOP_KEYS = ["stop", "n", "count", "steps", "builtin"]


def test_every_line_is_a_row_a_frame_or_the_last_stop(bench_dir):
    # a reader that takes every line for a row passes over frame and stop
    # lines because they carry none of eval_index, f and status
    for path in sorted(bench_dir.glob("*.jsonl")):
        lines = read_history(path)
        if not lines:  # an error run
            continue
        *body, stop = lines
        assert list(stop) == STOP_KEYS, path.name
        assert list(body[0]) == FRAME_KEYS and body[0]["frame"] == 0, path.name
        frame = -1
        for line in body:
            if list(line) == FRAME_KEYS:
                assert line["frame"] == frame + 1, path.name  # every frame, in order
                frame = line["frame"]
            else:
                assert list(line) == ROW_KEYS, path.name
        for line in [stop] + [line for line in body if "frame" in line]:
            assert not {"eval_index", "f", "status"} & set(line), path.name


def test_rows_are_written_as_without_a_stop(tmp_path):
    # a history is the run's events, its rows and every frame line, and
    # then the stop line
    problem, _ = builtin_problems()[0]
    record = solve(problem, initial_point(problem, "feasible-0"), SolverConfig(60, seed=3))
    write_history(record.rows, tmp_path / "rows.jsonl")
    write_history(record.events, tmp_path / "both.jsonl")
    rows = (tmp_path / "rows.jsonl").read_bytes().splitlines(keepends=True)
    both = (tmp_path / "both.jsonl").read_bytes().splitlines(keepends=True)
    assert [line for line in both[:-1] if b'"frame"' not in line] == rows
    frames = [json.loads(line) for line in both[:-1] if b'"frame"' in line]
    assert frames == json.loads(json.dumps(record.frames))
    stop = json.loads(both[-1])
    assert stop == {
        "stop": record.outcome, "n": 2, "count": record.evals_used,
        "steps": [list(step) for step in record.steps], "builtin": True,
    }
    assert not {"eval_index", "f", "status"} & set(stop)


def test_solve_decides_whether_the_problem_is_the_builtin(tmp_path):
    # the builtin object itself is; its evaluator swapped for an external
    # one, or its name on an in-code evaluator (the problem perfbench's
    # external-blackbox workload builds), is not
    builtin, _ = builtin_problem("two-ring")
    exe = tmp_path / "const.sh"
    exe.write_text('#!/bin/sh\nread line\necho "1.0 -1.0 -1.0"\n')
    exe.chmod(0o755)
    external = dataclasses.replace(builtin, evaluator=ExternalEvaluator(str(exe), builtin.m, builtin.p))
    in_code = Problem(builtin.name, builtin.n, builtin.m, builtin.p, lambda x: builtin.evaluator(x), builtin.bounds)
    x0 = initial_point(builtin, "feasible-0")
    for problem, expected in ((builtin, True), (external, False), (in_code, False)):
        record = solve(problem, x0, SolverConfig(5, seed=1))
        assert record.events[-1]["builtin"] is expected


def test_compact_history_cut_before_its_stop_line_is_skipped(tmp_path, capsys):
    # a history whose stop line was cut off (as a copy interrupted at its
    # last line leaves it) has no view: profile skips it with one warning
    # and profiles the rest, and its rows go unread
    out = tmp_path / "bench"
    assert main([
        "bench", "--problem", "unit-disk,two-ring", "--x0-count", "2", "--seeds", "1",
        "--budget", "200", "--mode", "pip,extreme-barrier", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    whole = profile(capsys, out)
    cut = []
    for path in sorted(out.glob("*.jsonl")):
        data = path.read_bytes()
        if data:
            key = _parse_history_name(path.name)
            events = read_history(path)
            assert check_run_invariants(RunRecord(*key, events[-1]["n"], events=events))[0] == []
            path.write_bytes(data[: data.rstrip(b"\n").rfind(b"\n") + 1])
            assert read_stop_line(path) is None and b'"frame"' in path.read_bytes()
            cut.append(path.name)
    assert len(cut) >= 4 and whole["warnings"] == []
    machine = profile(capsys, out)
    assert machine["warnings"] == [f"skipping {name}: no stop line" for name in cut]
    assert machine["histories"] == whole["histories"] - len(cut) > 0


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
        stop_text(count=10**18),  # more evaluations than the history has bytes
        stop_text(n=0),  # n below 1
        stop_text(n=True),
        stop_text(builtin=1),
        stop_text(builtin=None),
        stop_text(stop=None),  # an outcome that is not a string
        stop_text(stop=5),
        stop_text(stop=["budget-exhausted"]),
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
    assert len(stop) > 8 * madspip.history._TAIL_BLOCK
    path = tmp_path / "p__feasible-0__seed1__pip.jsonl"
    # trailing blank lines do not hide it
    path.write_text(f"{ROW}\n{stop}\n\n \r\n")
    assert read_stop_line(path) == json.loads(stop)
    _, _, read_count, read_steps, _ = read_stop(read_stop_line(path))
    assert read_count == count and read_steps[-1] == (count - 1, steps[-1][1])
    machine = profile(capsys, tmp_path)
    assert machine["histories"] == 1 and machine["warnings"] == []


def test_long_last_line_reads_in_linear_time(tmp_path):
    # 16 MiB in one line: a reader that rejoins its whole tail for every
    # block takes seconds here, one that searches each block once a few ms
    path = tmp_path / "run.jsonl"
    path.write_bytes(f"{ROW}\n".encode() + b"x" * (1 << 24) + b"\n")
    start = time.process_time()
    assert read_stop_line(path) is None
    assert time.process_time() - start < 1.0


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


def _budget_60_run():
    # budget-exhausted after 60 evaluations in 2 variables, 8 improvements,
    # none of them at f = 0.0 (whose negation -0.0 equals it)
    problem, _ = builtin_problem("unit-disk")
    return solve(problem, initial_point(problem, "feasible-0"), SolverConfig(60, seed=3), x0_id="feasible-0")


RUN = _budget_60_run()
RUN_READ_BACK = json.loads(json.dumps(RUN.events))


def test_a_stop_line_reads_the_same_in_memory_and_read_back():
    stop = RUN.events[-1]
    assert type(stop["steps"]) is tuple and type(RUN_READ_BACK[-1]["steps"]) is list
    fields = read_stop(stop)
    assert fields == read_stop(RUN_READ_BACK[-1]) == (
        "budget-exhausted", 2, 60, stop["steps"], True
    )
    assert all(type(step) is tuple for step in read_stop(RUN_READ_BACK[-1])[3])
    back = RunRecord(*RUN.key, RUN.n, events=RUN_READ_BACK)
    assert (back.outcome, back.evals_used, back.steps, back.best_feasible_f) == (
        RUN.outcome, RUN.evals_used, RUN.steps, RUN.best_feasible_f
    )
    assert all(f != 0.0 for _, f in RUN.steps)


def _replace(value, path, new):
    """``value`` with the entry at ``path`` (keys and indices) replaced by
    ``new``, each container rebuilt as its own type."""
    if not path:
        return new
    head, *rest = path
    if isinstance(value, dict):
        return {**value, head: _replace(value[head], rest, new)}
    return type(value)(_replace(v, rest, new) if j == head else v for j, v in enumerate(value))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _edited(value, edit):
    """One edit of one field's value, or ``None`` when it does not apply:
    its type, its sign, its order, a NaN or infinity, a list for a scalar
    or a scalar for a list."""
    number = isinstance(value, (int, float))
    edits = {
        "null": lambda: None,
        "string": lambda: str(value),
        "bool": lambda: True,
        "float": lambda: float(value) if type(value) in (int, bool) else None,
        "int": lambda: int(value) if type(value) is float else None,
        "negate": lambda: -value if number else None,
        "nan": lambda: math.nan,
        "inf": lambda: math.inf,
        "-inf": lambda: -math.inf,
        "wrap": lambda: [value],
        "unwrap": lambda: value[0] if isinstance(value, (list, tuple)) and value else None,
        "reverse": lambda: value[::-1] if isinstance(value, (list, tuple)) else None,
        "swap-with-next": lambda: None,  # applied to a step by the caller
    }
    return edits[edit]()


_STEPS = len(RUN.events[-1]["steps"])
_PATHS = (
    [("stop",), ("n",), ("count",), ("steps",), ("builtin",)]
    + [("steps", j) for j in range(_STEPS)]
    + [("steps", j, part) for j in range(_STEPS) for part in (0, 1)]
)


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from(_PATHS),
    st.sampled_from(["null", "string", "bool", "float", "int", "negate", "nan", "inf", "-inf",
                     "wrap", "unwrap", "reverse", "swap-with-next"]),
    st.booleans(),
)
def test_one_field_edit_of_a_real_stop_line(path, edit, read_back):
    events = RUN_READ_BACK if read_back else RUN.events
    stop = events[-1]
    if edit == "swap-with-next":  # the order of two steps
        assume(len(path) == 2 and path[1] + 1 < _STEPS)
        j = path[1]
        steps = stop["steps"]
        new_steps = type(steps)([*steps[:j], steps[j + 1], steps[j], *steps[j + 2:]])
        edited = _replace(stop, ("steps",), new_steps)
    else:
        new = _edited(_at(stop, path), edit)
        assume(new is not None or edit == "null")
        edited = _replace(stop, path, new)
    same = json.dumps(edited) == json.dumps(stop)  # a line this run writes
    record = RunRecord(*RUN.key, RUN.n, events=[*events[:-1], edited])
    try:
        fields, refused = read_stop(edited), False
    except ValueError:
        fields, refused = ("error", RUN.n, 0, (), None), True
        assert not same
    # the summary attributes never raise, and read the line or, refused,
    # an error record's values
    outcome, _, count, steps, _ = fields
    assert (record.outcome, record.evals_used, record.steps) == (outcome, count, steps)
    assert record.best_feasible_f == (steps[-1][1] if steps else None)
    summary_line(record)
    violations, _ = check_run_invariants(record)
    if same:
        assert violations == []
    else:
        last = len(events) - 1
        assert len(violations) == 1 and violations[0].startswith(f"event {last}: stop line: "), violations


def test_a_stop_line_before_the_last_line_is_refused_as_one():
    # the replay refuses it as a stop line, not as a row whose status is
    # missing, and cut before its last line the history has no view
    events = [*RUN.events[:10], RUN.events[-1], *RUN.events[10:]]
    with pytest.raises(ValueError, match="^no stop line$"):
        view_of_history(events[:-1], *RUN.key)
    assert check_run_invariants(RunRecord(*RUN.key, RUN.n, events=events))[0] == [
        "event 10: a stop line before the last line"
    ]
