"""``madspip.history`` is the one module that knows a history's lines: each
line kind has one writer and one reader there, no other function in the
package reads a row's or a stop line's keys, and only the replay reads rows.
A row that lacks a key, or a frame no run writes, is refused by whichever
reader meets it, and ``profile`` skips a history with no stop line."""

import ast
import contextlib
import io
import json
from pathlib import Path

import pytest

import madspip
from madspip.bench import view_of_history
from madspip.cli import main
from madspip.history import read_row
from madspip.problem import read_history, write_history
from madspip.solver import RunRecord, SolverConfig, check_run_invariants, solve
from madspip.suite import builtin_problem, initial_point

PACKAGE = Path(madspip.__file__).parent
ROW_KEYS = ("eval_index", "x", "f", "g", "h", "status")


def _unit_disk_run(seed):
    # budget 60 from feasible-0: 70 rows, 19 frames and the stop line at seed 3
    problem, _ = builtin_problem("unit-disk")
    return solve(problem, initial_point(problem, "feasible-0"), SolverConfig(60, seed=seed))


RUN = _unit_disk_run(3)
NAME = "unit-disk__feasible-0__seed3__pip.jsonl"


def _read_back(record, tmp_path):
    path = tmp_path / NAME
    write_history(record.events, path)
    return read_history(path)


@pytest.mark.parametrize("key", ROW_KEYS)
def test_a_row_without_one_of_its_keys_is_refused(tmp_path, key):
    # a row without eval_index once read as a bounds rejection: the replay
    # blamed the next row, and RunRecord.rows dropped it
    events = _read_back(RUN, tmp_path)
    assert key in events[3] and "frame" in events[2]
    del events[3][key]
    edited = RunRecord(*RUN.key, RUN.n, events=events)
    assert len(edited.rows) == len(RUN.rows) == 70
    violations, _ = check_run_invariants(edited)
    assert len(violations) == 1 and violations[0].startswith("event 3: "), violations
    assert repr(key) in violations[0]
    with pytest.raises(ValueError, match=repr(key)):
        read_row(events[3], 1)


@pytest.mark.parametrize(
    "frame, violation",
    [
        ({"frame": "x", "rho": -1.0}, "frame 'x' is not a non-negative integer"),
        # a frame line read_frame accepts, which only the replay's order
        # check refuses
        ({"frame": 7}, "frame 7 is not frame 1, the next one"),
    ],
    ids=["unreadable", "out-of-order"],
)
def test_a_stop_less_history_is_skipped_whatever_its_frames(tmp_path, frame, violation):
    # profile skips a stop-less history with one warning and reads none of
    # its lines; the replay refuses its frame 1
    events = _read_back(RUN, tmp_path)[:-1]
    assert events[2]["frame"] == 1
    events[2] = {**events[2], **frame}
    assert check_run_invariants(RunRecord(*RUN.key, RUN.n, events=events))[0] == [f"event 2: {violation}"]
    with pytest.raises(ValueError, match="^no stop line$"):
        view_of_history(events, *RUN.key)
    histories = tmp_path / "histories"
    histories.mkdir()
    write_history(events, histories / NAME)
    write_history(_unit_disk_run(4).events, histories / NAME.replace("seed3", "seed4"))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["profile", "--histories", str(histories), "--out", str(tmp_path / "out")]) == 0
    machine = json.loads(out.getvalue().splitlines()[0])
    assert machine["histories"] == 1
    assert machine["warnings"] == [f"skipping {NAME}: no stop line"]


# -- one row reader: only the replay reads a row back


def _read_row_uses(source):
    """``(function, line)`` for each use of a name ``read_row`` outside
    ``check_run_invariants``: a call, or the function taken as a value."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", function)
        used = (
            isinstance(node, ast.Name) and node.id == "read_row"
            or isinstance(node, ast.Attribute) and node.attr == "read_row"
        )
        if used and function != "check_run_invariants":
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_the_row_reader_guard_finds_each_use():
    source = (
        "from .history import read_row\n"
        "def check_run_invariants(record):\n    return read_row(record, 0)\n"
        "def a(rows):\n    return [read_row(row, 0) for row in rows]\n"
        "def b(rows):\n    return map(history.read_row, rows)\n"
        "reader = read_row\n"
        "def read_row(row, fresh):\n    return 'read_row'\n"
    )
    assert _read_row_uses(source) == [("a", 5), ("b", 7), ("<module>", 8)]


def test_only_the_replay_reads_a_row():
    found = {
        path.name: uses
        for path in sorted(PACKAGE.glob("*.py"))
        if (uses := _read_row_uses(path.read_text(encoding="utf-8")))
    }
    assert found == {}


# -- one reader per line kind: no function outside history's writers and
# readers reads a row's or a stop line's keys

GUARDED = {"eval_index", "x", "g", "h", "status", "stop", "count", "steps", "builtin"}
READERS = {"row_line", "read_row", "stop_line", "read_stop", "starts_run"}


def _line_key_reads(source, readers=frozenset()):
    """``(function, line)`` for each subscript or ``.get`` of a guarded
    key, and each comprehension whose iterable holds a literal with one,
    outside the functions named in ``readers``."""
    found = []

    def key_of(node):
        return isinstance(node, ast.Constant) and node.value in GUARDED

    def literal_key(node):
        return any(
            isinstance(sub, (ast.Tuple, ast.List)) and any(map(key_of, sub.elts)) for sub in ast.walk(node)
        )

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", function)
        reads = (
            isinstance(node, ast.Subscript) and key_of(node.slice)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and bool(node.args) and key_of(node.args[0])
            or isinstance(node, ast.comprehension) and literal_key(node.iter)
        )
        if reads and function not in readers:
            found.append((function, getattr(node, "lineno", None) or node.iter.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_the_line_guard_finds_each_kind_of_read():
    source = (
        "def a(row):\n    return row['x']\n"
        "def b(line):\n    return line.get('steps')\n"
        "def c(events):\n    return [e.get(k) for e, k in zip(events, ('frame', 'eval_index'))]\n"
        "def read_row(row):\n    return row['status'], row.get('g')\n"
        "def d(record):\n    return {'status': 1}, record.x, 'stop' in record, record['rho']\n"
    )
    assert _line_key_reads(source, {"read_row"}) == [("a", 2), ("b", 4), ("c", 6)]


def test_only_the_history_module_reads_a_row_or_a_stop_line():
    found = {
        path.name: reads
        for path in sorted(PACKAGE.glob("*.py"))
        if (reads := _line_key_reads(path.read_text(encoding="utf-8"), READERS if path.stem == "history" else ()))
    }
    assert found == {}


# -- imports: no private names across modules, and the history's layers in order

ORDER = ("problem", "history", "solver", "bench", "cli")


def _import_faults(sources):
    """``(module, line, what)`` for each import of an underscored name from
    a sibling module, and each import of a module later in ``ORDER``."""
    faults = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported = [(node.module, alias.name) for alias in node.names] if node.module else [
                    (alias.name, None) for alias in node.names
                ]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("madspip."):
                imported = [(node.module.split(".")[1], alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported = [(alias.name.split(".")[1], None) for alias in node.names
                            if alias.name.startswith("madspip.")]
            else:
                continue
            for sibling, name in imported:
                if name is not None and name.startswith("_"):
                    faults.append((module, node.lineno, f"{sibling}.{name}"))
                if module in ORDER and sibling in ORDER and ORDER.index(sibling) > ORDER.index(module):
                    faults.append((module, node.lineno, f"{sibling} lies above {module}"))
    return faults


def test_the_import_guard_finds_each_kind_of_import():
    sources = {
        "problem": "from .history import is_stop\n",
        "history": "import madspip.solver\nfrom .problem import Evaluation, _sanitize\n",
        "bench": "from madspip.solver import _read_row\nfrom . import cli\nfrom .suite import Instance\n",
        "suite": "from .problem import Problem\nfrom .solver import solve\n",
    }
    assert _import_faults(sources) == [
        ("problem", 1, "history lies above problem"),
        ("history", 1, "solver lies above history"),
        ("history", 2, "problem._sanitize"),
        ("bench", 1, "solver._read_row"),
        ("bench", 2, "cli lies above bench"),
    ]


def test_modules_import_only_public_names_from_below():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert _import_faults(sources) == []
