"""Spans around the package's layer boundaries, recorded from outside it.

Each wrapper is bound where its caller looks the name up (``solver`` imports
``violation_summary``, so the span sits on ``madspip.solver``); methods are
wrapped on their class.  A span is ``(id, name, start, end, parent, thread)``
and stays in memory until the pass that produced it is summarised.  Work
submitted to ``madspip.bench``'s thread pool inherits the submitting span as
its parent, so the self time of a span that waits on worker threads excludes
the time its workers were busy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from stats import percentile, tail

Span = Tuple[int, str, float, float, Optional[int], int]

#: Span names whose every duration is kept, for their percentiles.
KEEP_DURATIONS = frozenset({"problem.run_external"})

_perf_counter = time.perf_counter
_get_ident = threading.get_ident


def covered_length(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclasses.dataclass
class SpanSummary:
    """Per-name totals of one batch of spans."""

    calls: Counter
    busy_s: Dict[str, float]
    self_s: Dict[str, float]
    durations: Dict[str, List[float]]

    def add(self, other: "SpanSummary") -> None:
        self.calls.update(other.calls)
        for mine, theirs in ((self.busy_s, other.busy_s), (self.self_s, other.self_s)):
            for name, value in theirs.items():
                mine[name] = mine.get(name, 0.0) + value
        for name, values in other.durations.items():
            self.durations.setdefault(name, []).extend(values)


def summarise(spans: Sequence[Span]) -> SpanSummary:
    """Calls, summed duration and self time per span name, and each
    duration of the names in ``KEEP_DURATIONS``.

    Self time is a span's duration minus the part of it that its child
    spans cover; children on several threads may overlap each other.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    calls: Counter = Counter()
    busy: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    durations: Dict[str, List[float]] = defaultdict(list)
    for sid, name, start, end, _, _ in spans:
        calls[name] += 1
        busy[name] += end - start
        if name in KEEP_DURATIONS:
            durations[name].append(end - start)
        kids = children.get(sid)
        own[name] += (end - start) - (covered_length(kids, start, end) if kids else 0.0)
    return SpanSummary(calls, dict(busy), dict(own), dict(durations))


class Tracer:
    """Collects spans and counters from wrapped functions.

    Counters are kept per thread and merged on read, so worker threads never
    race on one counter.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._thread_counts: List[Counter] = []
        self._counts_lock = threading.Lock()

    def _stack(self) -> List[int]:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            return local.stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def count(self, key: str, amount: float = 1) -> None:
        local = self._local
        try:
            counts = local.counts
        except AttributeError:
            counts = local.counts = Counter()
            with self._counts_lock:
                self._thread_counts.append(counts)
        counts[key] += amount

    def take(self) -> Tuple[List[Span], Counter]:
        """The spans and counts recorded so far; both start empty again."""
        spans = list(self.spans)
        self.spans.clear()
        total: Counter = Counter()
        with self._counts_lock:
            for counts in self._thread_counts:
                total.update(counts)
                counts.clear()
        return spans, total

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span ``name``; ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` may add counts."""
        stack_of = self._stack
        local = self._local
        ids = self._ids
        append = self.spans.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else getattr(local, "inherited", None)
            sid = next(ids)
            if before is not None:
                before(args, kwargs)
            stack.append(sid)
            start = _perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf_counter()
                stack.pop()
                append((sid, name, start, end, parent, _get_ident()))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def run_adopted(self, parent: Optional[int], fn: Callable, *args, **kwargs):
        """Run ``fn`` on a worker thread as a child of span ``parent``."""
        self._local.inherited = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.inherited = None


# ------------------------------------------------------------ the layers

def _record_counts(tracer: Tracer):
    """Counters derived from a finished ``RunRecord``."""

    def after(args, kwargs, record):
        tracer.count("solver.solve.records")
        tracer.count("solver.rho_cuts", len(record.rho_trace))
        tracer.count("solver.partition_moves", len(record.partition_trace))
        tracer.count("problem.rows", len(record.rows))
        for row in record.rows:
            status = row["status"]
            if status == "cache-hit" or status == "rejected-bounds":
                tracer.count(f"problem.rows.{status}")

    return after


def _targets(tracer: Tracer):
    """``(module, attribute, span name, before, after)`` per wrapped name."""
    cache_class = importlib.import_module("madspip.problem").Cache

    def scanned(args, kwargs):
        tracer.count("solver.reselect_incumbent.entries_scanned", len(args[0].cache.entries))

    def directions(args, kwargs, result):
        tracer.count("mesh.poll_directions.generated", len(result))

    def tried(args, kwargs):
        kind = kwargs.get("kind", args[2] if len(args) > 2 else None)
        tracer.count(f"solver.tried.{kind}")

    def written(args, kwargs, result):
        tracer.count("problem.write_history.bytes", os.path.getsize(args[1]))

    def read(args, kwargs):
        tracer.count("problem.read_history.bytes", os.path.getsize(args[0]))

    solved = _record_counts(tracer)
    return [
        ("madspip.cli", "cmd_bench", "cli.cmd_bench", None, None),
        ("madspip.cli", "cmd_profile", "cli.cmd_profile", None, None),
        ("madspip.cli", "run_matrix", "bench.run_matrix", None, None),
        ("madspip.cli", "view_of_history", "bench.view_of_history", None, None),
        ("madspip.cli", "best_feasible_table", "bench.best_feasible_table", None, None),
        ("madspip.cli", "reference_table", "bench.reference_table", None, None),
        ("madspip.cli", "data_profile", "bench.data_profile", None, None),
        ("madspip.cli", "feasibility_profile", "bench.feasibility_profile", None, None),
        ("madspip.cli", "export", "bench.export", None, None),
        ("madspip.bench", "solve", "solver.solve", None, solved),
        ("madspip.solver", "solve", "solver.solve", None, solved),
        ("madspip.solver", "init_state", "solver.init_state", None, None),
        ("madspip.solver", "iterate", "solver.iterate", None, None),
        ("madspip.solver", "speculative_search", "solver.speculative_search", None, None),
        ("madspip.solver", "reselect_incumbent", "solver.reselect_incumbent", scanned, None),
        ("madspip.solver", "_try_candidate", None, tried, None),
        ("madspip.solver", "poll_directions", "mesh.poll_directions", None, directions),
        ("madspip.solver", "snap_steps", "mesh.snap_steps", None, None),
        ("madspip.solver", "update_frame", "mesh.update_frame", None, None),
        ("madspip.solver", "violation_summary", "merit.violation_summary", None, None),
        ("madspip.solver", "penalty_update_check", "merit.penalty_update_check", None, None),
        ("madspip.solver", "evaluate", "problem.evaluate", None, None),
        (cache_class, "get", "problem.Cache.get", None, None),
        (cache_class, "store", "problem.Cache.store", None, None),
        ("madspip.problem", "run_external", "problem.run_external", None, None),
        ("madspip.cli", "write_history", "problem.write_history", None, written),
        ("madspip.cli", "read_history", "problem.read_history", read, None),
        ("madspip.cli", "make_instances", "suite.make_instances", None, None),
        ("madspip.suite", "make_instances", "suite.make_instances", None, None),
        ("madspip.suite", "initial_point", "suite.initial_point", None, None),
    ]


def _counting(fn: Callable, before: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before(args, kwargs)
        return fn(*args, **kwargs)

    return wrapper


def _evaluating(tracer: Tracer, evaluate: Callable) -> Callable:
    """``evaluate`` whose problem's evaluator records ``problem.evaluator``
    spans; the blackbox callable alone is timed that way."""
    traced: Dict[int, Tuple[object, object]] = {}

    @functools.wraps(evaluate)
    def wrapper(problem, *args, **kwargs):
        entry = traced.get(id(problem))
        if entry is None or entry[0] is not problem:
            timed = tracer.wrap("problem.evaluator", problem.evaluator)
            entry = (problem, dataclasses.replace(problem, evaluator=timed))
            traced[id(problem)] = entry
        return evaluate(entry[1], *args, **kwargs)

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer boundary for the duration of the block.

    A name the package no longer has is listed in ``tracer.missing`` and
    skipped, so the per-layer figures it fed read zero.
    """
    saved = []
    try:
        for owner, attr, name, before, after in _targets(tracer):
            target = importlib.import_module(owner) if isinstance(owner, str) else owner
            label = f"{getattr(target, '__name__', target)}.{attr}"
            original = target.__dict__.get(attr) if isinstance(target, type) else getattr(target, attr, None)
            if original is None:
                if label not in tracer.missing:
                    tracer.missing.append(label)
                continue
            if name is None:
                replacement = _counting(original, before)
            else:
                inner = _evaluating(tracer, original) if name == "problem.evaluate" else original
                replacement = tracer.wrap(name, inner, before, after)
            setattr(target, attr, replacement)
            saved.append((target, attr, original))
        bench = importlib.import_module("madspip.bench")
        if getattr(bench, "ThreadPoolExecutor", None) is ThreadPoolExecutor:

            class AdoptingPool(ThreadPoolExecutor):
                def submit(self, fn, /, *args, **kwargs):
                    return super().submit(tracer.run_adopted, tracer.current(), fn, *args, **kwargs)

            bench.ThreadPoolExecutor = AdoptingPool
            saved.append((bench, "ThreadPoolExecutor", ThreadPoolExecutor))
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


def layer_metrics(summary: SpanSummary, counts: Counter, passes: int, workers: int) -> Dict[str, float]:
    """Per-pass layer figures from the spans and counts of ``passes`` passes."""

    def calls(name):
        return summary.calls.get(name, 0) / passes

    def busy(name):
        return summary.busy_s.get(name, 0.0) / passes

    def own(name):
        return summary.self_s.get(name, 0.0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    m: Dict[str, float] = {}
    for name in ("mesh.poll_directions", "mesh.snap_steps", "mesh.update_frame",
                 "merit.violation_summary", "solver.solve", "solver.reselect_incumbent",
                 "problem.Cache.get", "problem.Cache.store", "problem.evaluator",
                 "problem.run_external", "problem.write_history", "problem.read_history"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = busy(name)
    for name in ("solver.iterate", "problem.evaluate"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = own(name)
    evals = calls("problem.evaluator")
    solve_s = busy("solver.solve")
    records = counts["solver.solve.records"]
    rows = counts["problem.rows"]
    m["merit.violation_summary.calls_per_eval"] = ratio(calls("merit.violation_summary"), evals)
    m["solver.overhead_us_per_eval"] = ratio(solve_s - busy("problem.evaluator"), evals) * 1e6
    m["solver.reselect_incumbent.entries_scanned"] = counts["solver.reselect_incumbent.entries_scanned"] / passes
    m["solver.rho_cuts_per_solve"] = ratio(counts["solver.rho_cuts"], records)
    m["solver.partition_moves_per_solve"] = ratio(counts["solver.partition_moves"], records)
    m["solver.poll_use_ratio"] = ratio(counts["solver.tried.poll"], counts["mesh.poll_directions.generated"])
    m["problem.cache_hit_ratio"] = ratio(counts["problem.rows.cache-hit"], rows)
    m["problem.bounds_reject_ratio"] = ratio(counts["problem.rows.rejected-bounds"], rows)
    m["problem.evaluator.share"] = ratio(busy("problem.evaluator"), solve_s)
    external_ms = [d * 1e3 for d in summary.durations.get("problem.run_external", [])]
    m["problem.run_external.ms_p50"] = percentile(external_ms, 50) if external_ms else 0.0
    m["problem.run_external.ms_tail"] = tail(external_ms)[0] if external_ms else 0.0
    m["problem.write_history.bytes"] = counts["problem.write_history.bytes"] / passes
    m["problem.read_history.bytes"] = counts["problem.read_history.bytes"] / passes
    m["bench.solve_calls_per_history"] = ratio(calls("solver.solve"), calls("problem.write_history"))
    m["bench.run_matrix.s"] = busy("bench.run_matrix")
    m["bench.run_matrix.parallel_efficiency"] = ratio(
        busy("solver.solve"), busy("bench.run_matrix") * workers
    ) if calls("bench.run_matrix") else 0.0
    for name in ("view_of_history", "data_profile", "feasibility_profile", "export"):
        m[f"bench.{name}.s"] = busy(f"bench.{name}")
    m["cli.cmd_bench.self_s"] = own("cli.cmd_bench")
    m["cli.cmd_profile.self_s"] = own("cli.cmd_profile")
    m["suite.make_instances.s"] = busy("suite.make_instances")
    m["suite.initial_point.calls"] = calls("suite.initial_point")
    return m
