"""A run history's line layout, written and read back.

A history holds one line per event: a frame line, the state an iteration is
priced under; a row, one trial point's evaluation; and last a stop line,
the run's outcome and view.  Each kind has one writer here, which returns
the line for plain values, and one reader, which returns a line's fields,
in memory or read back from JSON, or raises ``ValueError`` for a line no
run writes.  No other module reads a line's keys.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Optional, Sequence, Tuple

from .problem import Evaluation, is_feasible

__all__ = [
    "Steps", "improvement_steps", "row_line", "read_row", "frame_line", "read_frame",
    "is_frame", "stop_line", "read_stop", "is_stop", "starts_run", "read_stop_line",
]

Steps = Tuple[Tuple[int, float], ...]  # (position, f) per improvement

_INF = math.inf

#: Bytes :func:`read_stop_line` reads per step back from a history's end.
_TAIL_BLOCK = 4096


def improvement_steps(evals: Iterable[Tuple[float, bool]]) -> Tuple[int, Steps]:
    """``(count, steps)`` of a run's ``(f, feasible)`` pairs in evaluation
    order: the number of evaluations, and one ``(position, f)`` step per
    strict improvement of the best feasible ``f``.

    This is the one statement of "improvement": the first feasible ``f``,
    then each one below the best so far; an equal ``f`` (``-0.0`` after
    ``0.0`` too) is no improvement.
    """
    steps, best, count = [], None, 0
    for count, (f, feasible) in enumerate(evals, 1):
        if feasible and (best is None or f < best):
            best = f
            steps.append((count - 1, f))
    return count, tuple(steps)


def row_line(evaluation: Optional[Evaluation], x: Tuple[float, ...], status: str) -> dict:
    """One history row; this is the one statement of the row layout.

    A row holds one evaluation's own facts, keys in this order:
    ``eval_index``, ``x``, ``f``, ``g``, ``h`` and ``status``, one of
    ``search-success``, ``poll-success``, ``unsuccessful``, ``cache-hit``,
    ``rejected-bounds`` and ``failed``; a bounds rejection (no
    ``evaluation``) has ``None`` for every evaluation field.  Its iteration
    and ``rho``, frame size and interior set are the last frame's before it
    (:func:`frame_line`); the start row and ``*-success`` rows made their
    point the incumbent.

    An evaluated row holds the cached evaluation's own ``point`` (as ``x``),
    ``g`` and ``h`` tuples, never copies, so each value is stored once and
    the cyclic GC stops tracking the row at its next full collection.
    """
    if evaluation is None:
        f = g = h = eval_index = None
    else:
        f, g, h, eval_index = evaluation.f, evaluation.g, evaluation.h, evaluation.eval_index
    return {"eval_index": eval_index, "x": x, "f": f, "g": g, "h": h, "status": status}


def read_row(row, fresh: int) -> Tuple[str, Optional[Evaluation]]:
    """The one statement of a row read back: ``(status, evaluation)`` of
    ``row``, which follows ``fresh`` evaluations, with ``evaluation`` ``None``
    for a bounds rejection.  It is failed exactly when ``f``, ``g`` or ``h``
    holds ``+inf``, which :func:`madspip.problem._sanitize` stores only for a
    failed evaluation.  A row no run writes raises ``ValueError``: not an
    object, one that lacks any of the six keys, a ``status`` that is not a
    string, an ``x`` that is not a nonempty list, an ``eval_index`` that is
    not ``None`` or an integer in ``[0, fresh]``, or an evaluated row's ``f``
    that is not a float, ``g`` or ``h`` not a list of floats, or a NaN or
    ``-inf`` in any of them."""
    if not isinstance(row, dict):
        raise ValueError("the line is not an object")
    missing = [key for key in ("eval_index", "x", "f", "g", "h", "status") if key not in row]
    if missing:
        raise ValueError(f"the row has no {', '.join(map(repr, missing))}")
    x, status, e, f, g, h = (row[key] for key in ("x", "status", "eval_index", "f", "g", "h"))
    if not isinstance(status, str):
        raise ValueError(f"status {status!r} is not a string")
    if not (isinstance(x, (list, tuple)) and x):
        raise ValueError(f"x {x!r} is not a nonempty list")
    if e is None:  # a bounds rejection
        return status, None
    if type(e) is not int or not 0 <= e <= fresh:  # true is not index 1
        raise ValueError(f"eval_index {e!r} is not an integer in [0, {fresh}]")
    # a float above -inf is neither NaN nor -inf; true and 0 are no floats
    if not (type(f) is float and f > -_INF and all(
        isinstance(part, (list, tuple)) and all(type(v) is float and v > -_INF for v in part)
        for part in (g, h)
    )):
        raise ValueError(f"f {f!r}, g {g!r} or h {h!r} is not a float or a list of floats above -inf")
    return status, Evaluation(x, f, g, h, e, f == _INF or _INF in g or _INF in h)


def is_frame(event) -> bool:
    return isinstance(event, dict) and "frame" in event


def is_stop(event) -> bool:
    return isinstance(event, dict) and "stop" in event


def starts_run(events: Sequence) -> bool:
    """Whether ``events`` start as every run's do, with frame 0 and then the
    start row, by their ``frame`` and ``eval_index`` alone: what else the
    two lines hold is for :func:`read_frame` and :func:`read_row` to judge."""
    heads = zip(events, ("frame", "eval_index"))
    return len(events) > 1 and all(isinstance(event, dict) and event.get(key) == 0 for event, key in heads)


def frame_line(k: int, rho: Optional[float], delta_frame: float, g_int: Optional[Tuple[int, ...]]) -> dict:
    """Frame ``k``, the state iteration ``k`` is priced under; this is the
    one statement of the frame line's layout.  A run writes frame 0 before
    the start row, frame 1 after it and frame ``k + 1`` after iteration
    ``k``'s rows, so a ``rho`` or ``g_int`` that differs from frame ``k``'s
    is a cut or a move at iteration ``k``.

    ``{"frame": k, "rho", "delta_frame", "g_int"}``: the iteration (0 for
    the start row), the ``rho`` and frame size its trial points are priced
    under, and the interior set in force; ``rho`` and ``g_int`` are ``None``
    outside pip mode.  In pip mode an evaluated row's ``(c_int, c_ext)`` is
    ``merit.violation_summary(g, h, partition, failed)[1:]`` under the
    partition whose interior set is ``g_int``, with the row as
    :func:`read_row` reads it.  The line carries none of the row keys
    ``eval_index``, ``f`` and ``status``.
    """
    return {"frame": k, "rho": rho, "delta_frame": delta_frame, "g_int": g_int}


def read_frame(line, pip: bool) -> Tuple[int, Optional[float], float, Optional[Tuple[int, ...]]]:
    """The one statement of a frame line read back, in memory or from JSON:
    ``(k, rho, delta_frame, g_int)``, ``g_int`` as a tuple.  A line that is
    not a frame line, or one no run of the mode writes, raises
    ``ValueError``: a ``frame`` not a non-negative integer, a ``delta_frame``
    not a positive finite float, and in pip mode a ``rho`` not one or a
    ``g_int`` not increasing non-negative integers, outside it either not null."""
    if not is_frame(line):
        raise ValueError("the line is not a frame line")
    k, rho, delta, g_int = (line.get(key) for key in ("frame", "rho", "delta_frame", "g_int"))
    if not (type(k) is int and k >= 0):  # true is no integer here
        raise ValueError(f"frame {k!r} is not a non-negative integer")
    if not (type(delta) is float and 0.0 < delta < _INF):
        raise ValueError(f"delta_frame {delta!r} is not a positive finite float")
    if not pip:
        if rho is not None or g_int is not None:
            raise ValueError(f"rho {rho!r} or g_int {g_int!r} is not null outside pip mode")
        return k, None, delta, None
    if not (type(rho) is float and 0.0 < rho < _INF):
        raise ValueError(f"rho {rho!r} is not a positive finite float")
    if not (isinstance(g_int, (list, tuple)) and all(type(i) is int for i in g_int)
            and all(a < b for a, b in zip((-1, *g_int), g_int))):
        raise ValueError(f"g_int {g_int!r} is not an increasing list of non-negative integers")
    return k, rho, delta, tuple(g_int)


def stop_line(outcome: str, n: int, evaluations: Iterable[Evaluation], builtin: bool) -> dict:
    """The stop line that ends a finished run's history; this is the one
    statement of its layout.

    ``stop`` is the outcome, ``n`` the dimension, ``count`` the evaluations
    and ``steps`` the :func:`improvement_steps` of ``evaluations``, in
    evaluation order, ``[position, f]`` each, from which a profile builds
    the run's view without reading the rows.  ``builtin`` says whether the
    run's problem is the builtin of its name
    (:func:`madspip.suite.is_builtin`), whose ``f*`` a profile may then use.
    The line carries none of the row keys (``eval_index``, ``f``,
    ``status``) or the frame's ``frame``.
    """
    count, steps = improvement_steps((ev.f, is_feasible(ev)) for ev in evaluations)
    return {"stop": outcome, "n": n, "count": count, "steps": steps, "builtin": builtin}


def read_stop(line) -> Tuple[str, int, int, Steps, bool]:
    """The one statement of a stop line read back, in memory or from JSON:
    ``(outcome, n, count, steps, builtin)``, with ``steps`` as ``(position,
    f)`` tuples.  A line that is not a stop line, or one no run writes,
    raises ``ValueError``."""
    if not is_stop(line):
        raise ValueError("the line is not a stop line")
    outcome, n, count, steps, builtin = (line.get(key) for key in ("stop", "n", "count", "steps", "builtin"))
    if not isinstance(outcome, str):
        raise ValueError(f"stop line: stop {outcome!r} is not a string")
    if not (type(n) is int and n >= 1):  # true is no integer here
        raise ValueError(f"stop line: n {n!r} is not a positive integer")
    if not (type(count) is int and count >= 0):
        raise ValueError(f"stop line: count {count!r} is not a non-negative integer")
    if type(builtin) is not bool:
        raise ValueError(f"stop line: builtin {builtin!r} is not a boolean")
    if not isinstance(steps, (list, tuple)):
        raise ValueError(f"stop line: steps {steps!r} is not a list")
    position, f = -1, _INF
    for step in steps:
        if not (isinstance(step, (list, tuple)) and len(step) == 2):
            raise ValueError(f"stop line: step {step!r} is not a [position, f] pair")
        if not (type(step[0]) is int and position < step[0] < count):
            raise ValueError(f"stop line: position {step[0]!r} does not lie above {position} and below {count}")
        # a NaN fails every comparison, and +inf is never below the start
        if not (type(step[1]) is float and -_INF < step[1] < f):
            raise ValueError(f"stop line: f {step[1]!r} is not a finite float below {f!r}")
        position, f = step
    return outcome, n, count, tuple(map(tuple, steps)), builtin


def read_stop_line(path) -> Optional[dict]:
    """The stop line that ends a history, or ``None`` when the file's last
    nonblank line is not one: a 0-byte history, a line that is not JSON, or
    a value that :func:`is_stop` refuses.

    Only the tail is read: blocks of ``_TAIL_BLOCK`` bytes back from the
    end, until they hold the line break before the last line, so a stop
    line longer than one block still reads.
    """
    with open(path, "rb") as fh:
        start = fh.seek(0, os.SEEK_END)
        blocks = []  # the last line's pieces, last first
        while start > 0:
            step = min(_TAIL_BLOCK, start)
            start -= step
            fh.seek(start)
            block = fh.read(step)
            if not blocks:  # only blanks after this block so far
                block = block.rstrip()
                if not block:
                    continue
            # only the new block is searched, so the read stays linear
            cut = max(block.rfind(b"\n"), block.rfind(b"\r"))
            blocks.append(block[cut + 1 :])
            if cut >= 0:
                break
    line = b"".join(reversed(blocks))
    try:
        stop = json.loads(line.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError both are
        return None
    return stop if is_stop(stop) else None
