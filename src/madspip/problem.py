"""Problem definition, cached blackbox evaluation and failure semantics.

An evaluator maps a point to ``(f, g, h)``: one objective, ``m`` inequality
values (feasible when ``<= 0``) and ``p`` equality residuals (feasible when
``= 0``).  Raw outputs are sanitized once, at evaluation time: any non-finite
output is stored as ``+inf`` and marks the whole evaluation as failed (a NaN
``f`` gives ``f=inf, failed=True``, an infinite ``g`` gives ``g=(inf,),
failed=True``), and failed evaluations are never feasible and carry an
infinite merit downstream.

The cache maps exact point keys to evaluations so the budget counts true
blackbox calls only.  External executables are driven through a one-line
stdin/stdout protocol (decimals with 17 significant digits).  A history is
written and read back here as JSONL, whole lines at a time; what its lines
hold is :mod:`madspip.history`'s.
"""

from __future__ import annotations

import json
import logging
import math
import os
import signal
import subprocess
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "Problem",
    "Evaluation",
    "Cache",
    "evaluate",
    "is_feasible",
    "run_external",
    "ExternalEvaluator",
    "write_history",
    "read_history",
]

log = logging.getLogger(__name__)

_INF = math.inf

#: Equality residuals count as satisfied when ``|h| < EQ_TOL``.
EQ_TOL = 1e-8


@dataclass(frozen=True)
class Problem:
    """A blackbox problem: sizes, optional bound box and the evaluator.

    The evaluator must return exactly ``(f, g, h)`` with ``len(g) == m`` and
    ``len(h) == p``; bounds, when present, are unrelaxable and enforced by
    rejection before evaluation.
    """

    name: str
    n: int
    m: int
    p: int
    evaluator: Callable[[Sequence[float]], Tuple[float, Sequence[float], Sequence[float]]]
    bounds: Optional[Tuple[Tuple[float, ...], Tuple[float, ...]]] = None

    def __post_init__(self):
        if self.n < 1 or self.m < 0 or self.p < 0:
            raise ValueError("invalid problem dimensions")
        if self.bounds is not None:
            lower, upper = self.bounds
            if len(lower) != self.n or len(upper) != self.n:
                raise ValueError("bounds must have one entry per variable")
            if any(l >= u for l, u in zip(lower, upper)):
                raise ValueError("lower bounds must lie below upper bounds")
            if not all(math.isfinite(u - l) for l, u in zip(lower, upper)):
                raise ValueError("bounds must be finite, with a finite span")
            object.__setattr__(self, "bounds", (tuple(lower), tuple(upper)))

    def contains(self, point: Sequence[float]) -> bool:
        if self.bounds is None:
            return True
        lower, upper = self.bounds
        for l, x, u in zip(lower, point, upper):
            if not l <= x <= u:
                return False
        return True


class Evaluation(NamedTuple):
    """Sanitized blackbox outputs at one point.

    ``eval_index`` is the order of the first (and only) raw call for this
    point; cache hits reuse the stored instance unchanged.  A named tuple:
    one is built per evaluation, and a tuple builds about three times faster
    than a frozen dataclass.
    """

    point: Tuple[float, ...]
    f: float
    g: Tuple[float, ...]
    h: Tuple[float, ...]
    eval_index: int
    failed: bool = False


class Cache:
    """Exact-key map of evaluated points; one entry per distinct key.

    Keys are whatever exact representation the caller uses for points (the
    solver passes integer lattice offsets, standalone callers the float tuple).
    Insertion order equals evaluation order.
    """

    def __init__(self):
        self.entries: Dict[Hashable, Evaluation] = {}

    def get(self, key: Hashable) -> Optional[Evaluation]:
        return self.entries.get(key)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.entries

    def store(self, key: Hashable, evaluation: Evaluation) -> None:
        entries = self.entries
        size = len(entries)
        entries.setdefault(key, evaluation)  # one hash of the key, not two
        if len(entries) == size:
            raise ValueError("cache already holds an evaluation for this key")


def _sanitize(
    point: Tuple[float, ...],
    raw: Optional[Tuple[float, Sequence[float], Sequence[float]]],
    eval_index: int,
    m: int,
    p: int,
) -> Evaluation:
    if raw is None:  # evaluator crashed or timed out: worst case everywhere
        return Evaluation(point, _INF, (_INF,) * m, (_INF,) * p, eval_index, True)
    f_raw, g_raw, h_raw = raw
    if len(g_raw) != m or len(h_raw) != p:
        raise ValueError(
            f"evaluator returned {1 + len(g_raw) + len(h_raw)} outputs, expected {1 + m + p}"
        )
    f = float(f_raw)
    g = tuple(map(float, g_raw)) if m else ()
    h = tuple(map(float, h_raw)) if p else ()
    # the sum is finite only when every output is: an inf or nan propagates,
    # and finite outputs that overflow it merely take the path below
    if math.isfinite(f + sum(g) + sum(h)):
        return Evaluation(point, f, g, h, eval_index)
    # a non-finite output is stored as +inf and fails the point; an equality
    # residual enters the penalty squared, where a non-finite value is
    # meaningless, so it fails the whole point too
    finite = math.isfinite
    failed = not (finite(f) and all(map(finite, g)) and all(map(finite, h)))
    f = f if finite(f) else _INF
    g = tuple([v if finite(v) else _INF for v in g])
    h = tuple([v if finite(v) else _INF for v in h])
    return Evaluation(point, f, g, h, eval_index, failed)


def evaluate(
    problem: Problem,
    point: Sequence[float],
    cache: Cache,
    key: Optional[Hashable] = None,
) -> Evaluation:
    """Evaluate ``point``, reusing the cache; one raw call per distinct key.

    On a miss the evaluator is called, its outputs sanitized and stored.
    Evaluator exceptions become failed evaluations rather than propagating:
    this is the one place that logs an evaluator's failure, with one warning.
    """
    if len(point) != problem.n:
        raise ValueError("point length does not match problem dimension")
    point = tuple(map(float, point))
    if key is None:
        key = point
    hit = cache.get(key)
    if hit is not None:
        return hit
    index = len(cache.entries)
    try:
        raw = problem.evaluator(point)
    except Exception as exc:
        log.warning(
            "evaluator raised at %s; treating as failed evaluation: %s", point, exc, exc_info=True
        )
        raw = None
    evaluation = _sanitize(point, raw, index, problem.m, problem.p)
    cache.store(key, evaluation)
    return evaluation


def is_feasible(evaluation: Evaluation) -> bool:
    """The one feasibility rule: not failed, ``g <= 0`` exactly and
    ``|h| < EQ_TOL``."""
    if evaluation.failed:
        return False
    for v in evaluation.g:
        if not v <= 0.0:
            return False
    for v in evaluation.h:
        if not abs(v) < EQ_TOL:
            return False
    return True


def run_external(
    executable_path: str,
    point: Sequence[float],
    timeout: float,
    m: int,
    p: int,
) -> Tuple[float, Tuple[float, ...], Tuple[float, ...]]:
    """Run one evaluation of an external executable.

    Protocol: the point is written to stdin as a single line of
    whitespace-separated decimals (17 significant digits); the executable
    answers with one line of ``1 + m + p`` decimals ordered ``f g_1..g_m
    h_1..h_p``.  Every failure raises, and :func:`evaluate` turns it into
    the failed evaluation: a timeout raises ``subprocess.TimeoutExpired``,
    an executable that cannot start ``OSError``, and a nonzero exit status
    (its message carries the stderr text) or stdout that is not UTF-8 or
    does not parse ``ValueError``.  Stderr never reaches the result.

    The executable runs in a session of its own, whose whole process group
    is killed when the exchange ends, whatever its outcome, so children it
    started do not outlive the call.
    """
    line = (" ".join(f"{float(x):.17g}" for x in point) + "\n").encode()
    with subprocess.Popen(
        [executable_path],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(line, timeout=timeout)
        finally:
            # a pid stays allocated while it names a live group, so even a
            # reaped leader's pid reaches only its own leftover children
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    who = f"external evaluator {executable_path}"
    if proc.returncode != 0:
        detail = stderr.decode("utf-8", "replace").strip()
        raise ValueError(f"{who} exited with status {proc.returncode}: {detail}")
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{who} wrote non-UTF-8 output {stdout!r}") from None
    tokens = text.split()
    if len(tokens) != 1 + m + p:
        raise ValueError(
            f"{who} returned {len(tokens)} values, expected {1 + m + p} (output {text!r})"
        )
    try:
        values = [float(t) for t in tokens]
    except ValueError:
        raise ValueError(f"{who} produced unparsable output {text!r}") from None
    return values[0], tuple(values[1 : 1 + m]), tuple(values[1 + m :])


@dataclass(frozen=True)
class ExternalEvaluator:
    """Callable wrapper around :func:`run_external` for use as an evaluator."""

    path: str
    m: int
    p: int
    timeout: float = 60.0

    def __call__(self, point: Sequence[float]):
        return run_external(self.path, point, self.timeout, self.m, self.p)


_ROW_ENCODER = json.JSONEncoder(separators=(",", ":"))


@contextmanager
def _atomic_file(path):
    """A text file open for writing on a sibling temp file, which replaces
    ``path`` when the block ends and is removed when it raises, so a killed
    process leaves either the old file or the new one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_history(lines: Iterable[dict], path) -> None:
    """Persist a history's lines as JSONL, one object per line, atomically:
    a finished run's ``RunRecord.events``, its rows alone, or any other
    dicts.

    Each line is ``_ROW_ENCODER.encode(line)``; tuples and lists both become
    arrays.  Non-finite values are emitted as ``Infinity`` tokens, which
    :func:`json.loads` reads back; the byte stream is deterministic for a
    given line sequence.  Lines are encoded and written one at a time into
    the sibling temp file of :func:`_atomic_file`, so the whole history is
    never one string; the temp file replaces ``path`` only after the last
    line is written, and a line that cannot be encoded removes it and leaves
    ``path`` as it was.
    """
    # the C encoder that JSONEncoder.encode builds afresh for every call, built
    # once for all the lines; its circular-reference markers empty again as
    # each container closes
    enc = _ROW_ENCODER
    encode = c_make_encoder(
        {} if enc.check_circular else None, enc.default, encode_basestring_ascii,
        enc.indent, enc.key_separator, enc.item_separator, enc.sort_keys,
        enc.skipkeys, enc.allow_nan,
    )
    with _atomic_file(path) as fh:
        fh.writelines("".join(encode(line, 0)) + "\n" for line in lines)


def read_history(path) -> List[dict]:
    """The values of the nonblank lines of a JSONL file, one per line.

    Lines are read in text mode and stripped; each must hold exactly one
    JSON value, as :func:`json.loads` reads it, or its
    ``json.JSONDecodeError`` is raised.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in map(str.strip, fh) if line]
