"""Problem definition, cached blackbox evaluation and failure semantics.

An evaluator maps a point to ``(f, g, h)``: one objective, ``m`` inequality
values (feasible when ``<= 0``) and ``p`` equality residuals (feasible when
``= 0``).  Raw outputs are sanitized once, at evaluation time: any non-finite
objective or inequality value is stored as ``+inf``, any non-finite equality
residual marks the whole evaluation as failed, and failed evaluations are
never feasible and carry an infinite merit downstream.

The cache maps exact point keys to evaluations so the budget counts true
blackbox calls only.  External executables are driven through a one-line
stdin/stdout protocol (decimals with 17 significant digits).
"""

from __future__ import annotations

import json
import logging
import math
import subprocess
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = [
    "Problem",
    "Evaluation",
    "Cache",
    "evaluate",
    "is_feasible",
    "run_external",
    "ExternalEvaluator",
    "HISTORY_STATUSES",
    "history_row",
    "write_history",
    "read_history",
]

log = logging.getLogger(__name__)

_INF = math.inf

#: Equality residuals count as satisfied when ``|h| < EQ_TOL``.
EQ_TOL = 1e-8

#: Allowed values of the ``status`` field in history rows.
HISTORY_STATUSES = frozenset(
    ["search-success", "poll-success", "unsuccessful", "cache-hit", "rejected-bounds", "failed"]
)


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
            if any(l > u for l, u in zip(lower, upper)):
                raise ValueError("lower bounds must not exceed upper bounds")
            object.__setattr__(self, "bounds", (tuple(lower), tuple(upper)))

    def contains(self, point: Sequence[float]) -> bool:
        if self.bounds is None:
            return True
        lower, upper = self.bounds
        return all(l <= x <= u for l, x, u in zip(lower, point, upper))


@dataclass(frozen=True)
class Evaluation:
    """Sanitized blackbox outputs at one point.

    ``eval_index`` is the order of the first (and only) raw call for this
    point; cache hits reuse the stored instance unchanged.
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

    @property
    def eval_count(self) -> int:
        return len(self.entries)

    def get(self, key: Hashable) -> Optional[Evaluation]:
        return self.entries.get(key)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.entries

    def store(self, key: Hashable, evaluation: Evaluation) -> None:
        if key in self.entries:
            raise ValueError("cache already holds an evaluation for this key")
        self.entries[key] = evaluation


def _sanitize(
    point: Tuple[float, ...],
    raw: Optional[Tuple[float, Sequence[float], Sequence[float]]],
    eval_index: int,
    m: int,
    p: int,
) -> Evaluation:
    if raw is None:  # evaluator crashed or timed out: worst case everywhere
        return Evaluation(point, _INF, (_INF,) * m, (_INF,) * p, eval_index, failed=True)
    f_raw, g_raw, h_raw = raw
    if len(g_raw) != m or len(h_raw) != p:
        raise ValueError(
            f"evaluator returned {1 + len(g_raw) + len(h_raw)} outputs, expected {1 + m + p}"
        )
    failed = False
    f = float(f_raw)
    if not math.isfinite(f):
        f, failed = _INF, True
    g = []
    for v in g_raw:
        v = float(v)
        if not math.isfinite(v):
            v, failed = _INF, True
        g.append(v)
    h = []
    for v in h_raw:
        v = float(v)
        if not math.isfinite(v):
            # an equality residual enters the penalty squared; a non-finite
            # value is meaningless there, so the whole point is a failure
            v, failed = _INF, True
        h.append(v)
    return Evaluation(point, f, tuple(g), tuple(h), eval_index, failed=failed)


def evaluate(
    problem: Problem,
    point: Sequence[float],
    cache: Cache,
    key: Optional[Hashable] = None,
) -> Evaluation:
    """Evaluate ``point``, reusing the cache; one raw call per distinct key.

    On a miss the evaluator is called, its outputs sanitized and stored.
    Evaluator exceptions become failed evaluations rather than propagating.
    """
    if len(point) != problem.n:
        raise ValueError("point length does not match problem dimension")
    point = tuple(float(x) for x in point)
    if key is None:
        key = point
    hit = cache.get(key)
    if hit is not None:
        return hit
    index = cache.eval_count
    try:
        raw = problem.evaluator(point)
    except Exception:
        log.warning("evaluator raised at %s; treating as failed evaluation", point, exc_info=True)
        raw = None
    evaluation = _sanitize(point, raw, index, problem.m, problem.p)
    cache.store(key, evaluation)
    return evaluation


def is_feasible(evaluation: Evaluation, eq_tol: float = EQ_TOL) -> bool:
    """The one feasibility rule: not failed, ``g <= 0`` exactly and
    ``|h| < eq_tol``.

    Solver results, history views and profiles all go through it.
    """
    if evaluation.failed:
        return False
    if not all(v <= 0.0 for v in evaluation.g):
        return False
    return all(abs(v) < eq_tol for v in evaluation.h)


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
    h_1..h_p``.  A nonzero exit status, a timeout or unparsable output yields
    the all-infinite failure triple, with the diagnostic kept in the run log.
    """
    line = " ".join(f"{float(x):.17g}" for x in point) + "\n"
    failure = (_INF, (_INF,) * m, (_INF,) * p)
    try:
        proc = subprocess.run(
            [executable_path],
            input=line,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except (subprocess.TimeoutExpired, OSError) as exc:
        log.warning("external evaluator %s failed to run: %s", executable_path, exc)
        return failure
    if proc.returncode != 0:
        log.warning(
            "external evaluator %s exited with status %d: %s",
            executable_path,
            proc.returncode,
            proc.stderr.strip(),
        )
        return failure
    tokens = proc.stdout.strip().split()
    if len(tokens) != 1 + m + p:
        log.warning(
            "external evaluator %s returned %d values, expected %d (output %r)",
            executable_path,
            len(tokens),
            1 + m + p,
            proc.stdout,
        )
        return failure
    try:
        values = [float(t) for t in tokens]
    except ValueError:
        log.warning("external evaluator %s produced unparsable output %r", executable_path, proc.stdout)
        return failure
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


def history_row(
    *,
    eval_index: Optional[int],
    x: Sequence[float],
    f: Optional[float],
    g: Optional[Sequence[float]],
    h: Optional[Sequence[float]],
    cint: Optional[float],
    cext: Optional[float],
    rho: Optional[float],
    delta_frame: float,
    incumbent: bool,
    iteration: int,
    status: str,
) -> dict:
    """One evaluation-event row of the persisted run history."""
    if status not in HISTORY_STATUSES:
        raise ValueError(f"unknown history status {status!r}")
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


def write_history(rows: Sequence[dict], path) -> None:
    """Persist history rows as JSONL, one object per line.

    Non-finite values are emitted as ``Infinity`` tokens, which
    :func:`json.loads` reads back; the byte stream is deterministic for a
    given row sequence.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")))
            fh.write("\n")


def read_history(path) -> List[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
