"""A frame line has one reader, ``madspip.history.read_frame``: the replay,
``RunRecord``'s traces and ``summary_line`` read frames through it alone,
so a frame that no run writes is refused with ``ValueError`` by each of
them and gives the replay one violation naming its event."""

import ast
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import madspip.history
import madspip.solver
from madspip.problem import read_history, write_history
from madspip.solver import (
    MODE_EXTREME_BARRIER,
    MODE_PIP,
    RunRecord,
    SolverConfig,
    check_run_invariants,
    solve,
    summary_line,
)
from madspip.suite import builtin_problem, initial_point

FRAME_KEYS = ("frame", "rho", "delta_frame", "g_int")
HEAD = "the events do not start with frame 0 and the start row"


def _two_ring_run(x0_id, mode):
    # 120 evaluations at seed 3
    problem, _ = builtin_problem("two-ring")
    config = SolverConfig(120, seed=3, mode=mode)
    return solve(problem, initial_point(problem, x0_id), config, x0_id=x0_id)


# from infeasible-0 the pip run cuts rho and moves an inequality to the
# interior set; extreme-barrier mode needs a feasible start
RUNS = {
    MODE_PIP: _two_ring_run("infeasible-0", MODE_PIP),
    MODE_EXTREME_BARRIER: _two_ring_run("feasible-0", MODE_EXTREME_BARRIER),
}
READ_BACK = {mode: json.loads(json.dumps(record.events)) for mode, record in RUNS.items()}


def _frame_events(events):
    return [i for i, event in enumerate(events) if isinstance(event, dict) and "frame" in event]


def _with_line(events, i, line):
    return [*events[:i], line, *events[i + 1:]]


def _views(record):
    """What each frame reader gives for ``record``: its value, or the
    ``ValueError`` it raised.  Any other exception propagates."""
    results = []
    for view in (lambda: record.rho_trace, lambda: record.partition_trace, lambda: summary_line(record)):
        try:
            results.append(view())
        except ValueError as exc:
            results.append(exc)
    return results


def test_real_frames_read_the_same_in_memory_and_read_back():
    for mode, record in RUNS.items():
        pip = mode == MODE_PIP
        frames = [madspip.history.read_frame(frame, pip) for frame in record.frames]
        back = [madspip.history.read_frame(READ_BACK[mode][i], pip) for i in _frame_events(record.events)]
        assert frames == back and [k for k, *_ in frames] == list(range(len(frames)))
        assert all(type(g_int) is tuple if pip else (rho, g_int) == (None, None) for _, rho, _, g_int in frames)
        assert check_run_invariants(record)[0] == []
    assert RUNS[MODE_PIP].rho_trace and RUNS[MODE_PIP].partition_trace


def _hostile_frame(frame, case):
    if case == "only-frame":
        return {"frame": frame["frame"]}
    if case == "no-rho":
        return {key: value for key, value in frame.items() if key != "rho"}
    key, value = case
    return {**frame, key: value}


@pytest.mark.parametrize("at", ["frame 3", "last frame"])
@pytest.mark.parametrize(
    "case",
    [("g_int", None), ("g_int", 5), "no-rho", "only-frame", ("delta_frame", "x"), ("rho", None)],
    ids=["g_int-null", "g_int-5", "no-rho", "only-frame", "delta_frame-x", "rho-null"],
)
def test_hostile_frame_of_a_history_read_back_is_refused(tmp_path, case, at):
    # each of these crashed a trace or the summary line with a TypeError,
    # a KeyError or a format error, or gave rho_trace a cut to None
    record = _two_ring_run("feasible-0", MODE_PIP)
    path = tmp_path / "two-ring__feasible-0__seed3__pip.jsonl"
    write_history(record.events, path)
    events = read_history(path)
    frames = _frame_events(events)
    i = frames[3] if at == "frame 3" else frames[-1]
    edited = RunRecord(*record.key, record.n, events=_with_line(events, i, _hostile_frame(events[i], case)))
    with pytest.raises(ValueError):
        edited.rho_trace
    with pytest.raises(ValueError):
        edited.partition_trace
    if at == "last frame":
        with pytest.raises(ValueError, match="^(frame|rho|delta_frame|g_int) "):
            summary_line(edited)
    else:
        assert summary_line(edited) == summary_line(record)
    violations, _ = check_run_invariants(edited)
    assert len(violations) == 1 and violations[0].startswith(f"event {i}: "), violations


def _edited(value, edit):
    """One edit of one frame field's value, or ``None`` when it does not
    apply: its type, its sign, a NaN or infinity, a list for a scalar or a
    scalar for a list, an unsorted or repeated index, the frame number off
    by one, or a pip run's value for a null."""
    number = type(value) in (int, float)
    listed = isinstance(value, (list, tuple))
    edits = {
        "null": lambda: None,
        "string": lambda: str(value),
        "bool": lambda: True,
        "float": lambda: float(value) if type(value) is int else None,
        "int": lambda: int(value) if type(value) is float else None,
        "negate": lambda: -value if number else None,
        "nan": lambda: math.nan,
        "inf": lambda: math.inf,
        "-inf": lambda: -math.inf,
        "wrap": lambda: [value],
        "unwrap": lambda: value[0] if listed and value else None,
        "reverse": lambda: value[::-1] if listed else None,
        "repeat": lambda: [*value, value[-1]] if listed and value else None,
        "next": lambda: value + 1 if type(value) is int else None,
        "previous": lambda: value - 1 if type(value) is int else None,
        "pip-value": lambda: None,  # applied by the caller
    }
    return edits[edit]()


@settings(deadline=None, max_examples=400)
@given(
    st.sampled_from([MODE_PIP, MODE_EXTREME_BARRIER]),
    st.booleans(),
    st.data(),
    st.sampled_from(FRAME_KEYS),
    st.sampled_from(["null", "string", "bool", "float", "int", "negate", "nan", "inf", "-inf", "wrap",
                     "unwrap", "reverse", "repeat", "next", "previous", "pip-value", "missing"]),
)
def test_one_field_edit_of_a_real_frame_line(mode, read_back, data, key, edit):
    record, pip = RUNS[mode], mode == MODE_PIP
    events = READ_BACK[mode] if read_back else record.events
    frames = _frame_events(events)
    i = data.draw(st.sampled_from(frames), label="frame event")
    frame = events[i]
    if edit == "missing":
        edited = {k: v for k, v in frame.items() if k != key}
    elif edit == "pip-value":  # what a pip run writes, in an extreme-barrier frame
        assume(not pip and key in ("rho", "g_int"))
        edited = {**frame, key: 0.1 if key == "rho" else []}
    else:
        new = _edited(frame[key], edit)
        assume(new is not None or edit == "null")
        edited = {**frame, key: new}
    record_edited = RunRecord(*record.key, record.n, events=_with_line(events, i, edited))
    original = madspip.history.read_frame(frame, pip)
    is_frame = "frame" in edited
    try:
        read = madspip.history.read_frame(edited, pip)
    except ValueError:
        read = None

    # the traces and the summary line refuse a frame only with ValueError,
    # and exactly when the reader refuses it; a line that is no longer a
    # frame is not one of the frames they read
    rho_trace, partition_trace, summary = _views(record_edited)
    refused = is_frame and read is None
    assert isinstance(rho_trace, ValueError) == refused
    assert isinstance(partition_trace, ValueError) == refused
    assert isinstance(summary, ValueError) == (refused and i == frames[-1])
    if read == original:  # the edit reads as the frame it replaced (-0 for 0, say)
        assert [rho_trace, partition_trace, summary] == _views(record)

    violations, _ = check_run_invariants(record_edited)
    if read == original:
        assert violations == []
    elif i == 0 and edited.get("frame") != 0:  # the events' head is checked first
        assert violations == [HEAD]
    else:
        assert len(violations) == 1 and violations[0].startswith(f"event {i}: "), violations


# -- one reader: no other function in the package reads a frame's values

GUARDED = {"rho", "delta_frame", "g_int"}
READERS = {"frame_line", "read_frame"}


def _frame_key_reads(source):
    """``(function, line)`` for each subscript or ``.get`` of a guarded
    key, and each comprehension over a literal holding one, outside the
    two functions that state the frame line."""
    found = []

    def key_of(node):
        return isinstance(node, ast.Constant) and node.value in GUARDED

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", function)
        reads = (
            isinstance(node, ast.Subscript) and key_of(node.slice)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and bool(node.args) and key_of(node.args[0])
            or isinstance(node, ast.comprehension) and isinstance(node.iter, (ast.Tuple, ast.List))
            and any(map(key_of, node.iter.elts))
        )
        if reads and function not in READERS:
            found.append((function, getattr(node, "lineno", None) or node.iter.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_the_guard_finds_each_kind_of_read():
    source = (
        "def a(line):\n    return line['rho']\n"
        "def b(line):\n    return line.get('g_int')\n"
        "def c(line):\n    return [line.get(key) for key in ('frame', 'delta_frame')]\n"
        "def read_frame(line):\n    return line['rho'], line.get('g_int')\n"
        "def d(state):\n    return {'rho': 1.0}, line['frame'], object.__setattr__(state, 'g_int', ())\n"
    )
    assert _frame_key_reads(source) == [("a", 2), ("b", 4), ("c", 6)]


def test_only_the_frame_reader_reads_a_frame_line():
    package = Path(madspip.solver.__file__).parent
    found = {
        path.name: reads
        for path in sorted(package.glob("*.py"))
        if (reads := _frame_key_reads(path.read_text(encoding="utf-8")))
    }
    assert found == {}
