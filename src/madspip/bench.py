"""Batch execution of instance x mode matrices and profile computation.

A data profile reports, for each solver mode, the fraction of problem
instances solved to precision ``tau`` within ``k`` groups of ``n + 1``
evaluations, where an instance counts as solved once some feasible
evaluation satisfies ``f <= f_star + tau * (f_ref - f_star)``.  The best
known value ``f_star`` per instance is the lowest feasible objective reached
by any mode, improvable by a supplied known optimum; the reference ``f_ref``
is ``f(x0)`` when the starting point is feasible and otherwise the largest
objective among the modes' first feasible evaluations.  Instances where no
mode ever reaches feasibility are dropped from data-profile denominators.
Feasibility profiles count instances with any feasible evaluation within the
first ``k`` groups, over all instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .problem import Evaluation, is_feasible
from .solver import RunRecord, SolverConfig, InitializationError, Steps, improvement_steps, solve
from .suite import Instance

__all__ = [
    "ProfileCurve",
    "RunView",
    "view_of_history",
    "run_matrix",
    "best_feasible_table",
    "reference_table",
    "data_profile",
    "feasibility_profile",
    "export",
]

Key = Tuple[str, str, int, str]  # (problem, x0_id, seed, mode)
InstanceKey = Tuple[str, str, int]


@dataclass(frozen=True)
class ProfileCurve:
    """A step curve over evaluation groups; ``tau = 0`` marks feasibility
    profiles."""

    label: str
    tau: float
    groups: Tuple[int, ...]
    fraction: Tuple[float, ...]

    def __post_init__(self):
        if len(self.groups) != len(self.fraction):
            raise ValueError("groups and fraction must have equal length")
        if any(f2 < f1 for f1, f2 in zip(self.fraction, self.fraction[1:])):
            raise ValueError("profile fractions must be non-decreasing")
        if any(not 0.0 <= f <= 1.0 for f in self.fraction):
            raise ValueError("profile fractions must lie in [0, 1]")


@dataclass(frozen=True)
class RunView:
    """The slice of one run that profiles need.

    A profile depends on a run only through its strict improvements of the
    best feasible ``f``, so the view keeps ``count``, the number of
    evaluations, and ``steps``: one ``(position, f)`` pair per improvement,
    the first feasible evaluation included
    (:func:`madspip.solver.improvement_steps`).  Its memory grows with the
    improvements, not the evaluations.
    """

    problem: str
    x0_id: str
    seed: int
    mode: str
    n: int
    count: int
    steps: Steps

    @property
    def key(self) -> Key:
        return (self.problem, self.x0_id, self.seed, self.mode)

    @property
    def instance_key(self) -> InstanceKey:
        return (self.problem, self.x0_id, self.seed)

    @property
    def group_count(self) -> int:
        return math.ceil(self.count / (self.n + 1))


def _row_entry(row: dict, idx: int) -> Tuple[float, bool]:
    """``(f, feasible)`` of an evaluation row; ``ValueError`` when ``f`` or an
    entry of ``g`` or ``h`` is not a float (a run writes each as one), ``g``
    or ``h`` is not a list or tuple, or ``f`` is NaN, ``-inf``, or ``+inf``
    on a feasible row."""
    f, g, h = row.get("f"), row.get("g") or (), row.get("h") or ()
    if not (type(f) is float and isinstance(g, (list, tuple)) and isinstance(h, (list, tuple))):
        raise ValueError(f"evaluation {idx}: f is not a float or g, h are not lists")
    for part in (g, h):
        for v in part:  # false and 0 would pass the feasibility test as 0.0
            if type(v) is not float:
                raise ValueError(f"evaluation {idx}: g or h entry {v!r} is not a float")
    feasible = is_feasible(Evaluation((), f, g, h, idx, row.get("status") == "failed"))
    # a run stores a non-finite f as +inf, and only on a failed evaluation
    if f != f or f == -math.inf or (feasible and f == math.inf):
        raise ValueError(f"evaluation {idx}: f {f!r} on a row that no run writes")
    return f, feasible


def _evaluations(rows: Iterable[dict]) -> Iterator[Tuple[float, bool]]:
    """``(f, feasible)`` of each evaluation in ``rows``, in one pass."""
    count = 0
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError("history row is not an object")
        idx = row.get("eval_index")
        if idx is None:  # a bounds rejection
            continue
        if type(idx) is not int:  # true is not index 1
            raise ValueError(f"eval_index {idx!r} is not an integer")
        if idx == count:
            count += 1
            yield _row_entry(row, idx)
        elif not 0 <= idx < count:
            raise ValueError(f"eval_index {idx} skips ahead or is negative (next is {count})")


def view_of_history(rows: Sequence[dict], problem: str, x0_id: str, seed: int, mode: str) -> RunView:
    """Build a view from history rows, in memory or read back from JSONL
    (``n`` comes from the rows), in one pass over them.

    A run numbers its evaluations 0, 1, 2, ... in the order it makes them,
    so a row's ``eval_index`` is the next number (a new evaluation), an
    earlier one (a cache hit) or ``None`` (a bound rejection); the last two
    spend no budget.  ``x``, ``g`` and ``h`` may be lists (read back) or
    tuples (a record's rows in memory).  A row that no run writes (not an
    object, an index that is not an integer, skips ahead or is negative, a
    bad ``f``, ``g`` or ``h``, a non-finite ``f`` that is not ``+inf`` on an
    infeasible row, or no nonempty ``x`` array in the first row) raises
    ``ValueError``.
    """
    x = rows[0].get("x") if rows and isinstance(rows[0], dict) else ()
    # no rows at all is a run that could not start; n = 0 is no run's
    if not isinstance(x, (list, tuple)) or (rows and not x):
        raise ValueError("history row has no nonempty x list")
    return RunView(problem, x0_id, seed, mode, len(x), *improvement_steps(_evaluations(rows)))


def view_of_stop(stop: dict, problem: str, x0_id: str, seed: int, mode: str) -> RunView:
    """Build a view from a history's stop line
    (:func:`madspip.solver.stop_line`) alone, without its rows.

    The line is checked as strictly as :func:`view_of_history` checks rows:
    ``n >= 1`` and ``count >= 0`` are integers (not booleans), ``builtin``
    is a boolean, and ``steps`` is a list of ``[position, f]`` pairs whose
    positions are integers that strictly increase within ``[0, count)``
    and whose ``f`` values are finite floats that strictly decrease.  Any
    other line raises ``ValueError``.
    """
    n, count, steps = stop.get("n"), stop.get("count"), stop.get("steps")
    if not (type(n) is int and n >= 1):
        raise ValueError(f"stop line: n {n!r} is not a positive integer")
    if not (type(count) is int and count >= 0):
        raise ValueError(f"stop line: count {count!r} is not a non-negative integer")
    if type(stop.get("builtin")) is not bool:
        raise ValueError(f"stop line: builtin {stop.get('builtin')!r} is not a boolean")
    if not isinstance(steps, list):
        raise ValueError("stop line: steps is not a list")
    checked = []
    position, f = -1, math.inf
    for step in steps:
        if not (isinstance(step, list) and len(step) == 2):
            raise ValueError(f"stop line: step {step!r} is not a [position, f] pair")
        if not (type(step[0]) is int and position < step[0] < count):
            raise ValueError(
                f"stop line: position {step[0]!r} does not lie above {position} and below {count}"
            )
        # a NaN fails every comparison, and +inf is never below the start
        if not (type(step[1]) is float and -math.inf < step[1] < f):
            raise ValueError(f"stop line: f {step[1]!r} is not a finite float below {f!r}")
        position, f = step
        checked.append((position, f))
    return RunView(problem, x0_id, seed, mode, n, count, tuple(checked))


def run_matrix(
    jobs: Sequence[Tuple[Instance, str]],
    budget: int,
    search_enabled: bool = True,
    on_record: Optional[Callable[[Key, RunRecord], object]] = None,
) -> Dict[Key, object]:
    """Run each (instance, mode) job once, one after another in the calling
    thread; individual failures become error records and never abort the
    batch. Deterministic per key.

    A job solves and then calls ``on_record(key, record)``.  Its result is
    the callback's return value, or the record when ``on_record`` is
    ``None``; the returned dict holds the results in job order.  A record
    outlives its job only if the result keeps it, so with an ``on_record``
    that drops it one record is alive at a time.  A raise, in the solve or
    in ``on_record``, propagates at once and no later job starts.  (A
    Python evaluator holds the interpreter lock for its whole solve, so
    threads could not overlap two jobs.)
    """
    if len(jobs) == 0:
        raise ValueError("jobs must be nonempty")
    results: Dict[Key, object] = {}
    for instance, mode in jobs:
        key = (instance.problem.name, instance.x0_id, instance.seed, mode)
        config = SolverConfig(budget, instance.seed, search_enabled, mode)
        try:
            record = solve(instance.problem, instance.x0, config, x0_id=instance.x0_id)
        except InitializationError as exc:
            record = RunRecord(*key, instance.problem.n, flags=[str(exc)])
        results[key] = record if on_record is None else on_record(key, record)
    return results


def convergence_index(view: RunView, f_star: float, f_ref: float, tau: float) -> Optional[int]:
    """Smallest k such that some feasible evaluation among the first
    ``k * (n + 1)`` satisfies ``f <= f_star + tau * (f_ref - f_star)``."""
    if not 0.0 < tau < math.inf:  # nan too: inf * 0 would give a nan threshold
        raise ValueError("tau must be positive and finite")
    if f_ref < f_star:
        raise ValueError("the reference value must not undercut f_star")
    threshold = f_star + tau * (f_ref - f_star)
    # the first feasible f at or below the threshold undercuts every
    # feasible f before it, so it is an improvement step
    for position, f in view.steps:
        if f <= threshold:
            return math.ceil((position + 1) / (view.n + 1))
    return None


def feasibility_index(view: RunView) -> Optional[int]:
    """Smallest k whose first ``k * (n + 1)`` evaluations contain a feasible
    point."""
    if not view.steps:
        return None
    return math.ceil((view.steps[0][0] + 1) / (view.n + 1))


def best_feasible_table(
    views: Sequence[RunView], known: Optional[Dict[str, float]] = None
) -> Dict[InstanceKey, Optional[float]]:
    """Best known value per instance: the lowest feasible objective reached
    by any mode, improved by a known optimum when one is supplied for the
    problem. ``None`` marks instances no mode ever made feasible."""
    table: Dict[InstanceKey, Optional[float]] = dict.fromkeys(v.instance_key for v in views)
    for view in views:
        best = table[view.instance_key]
        if view.steps:
            f = view.steps[-1][1]  # the run's best, first reached
            if best is None or f < best:
                table[view.instance_key] = f
    if known:
        for key in table:
            f_star = known.get(key[0])
            if f_star is not None and table[key] is not None:
                table[key] = min(table[key], f_star)
    return table


def reference_table(views: Sequence[RunView]) -> Dict[InstanceKey, Optional[float]]:
    """Normalization reference per instance: ``f(x0)`` when the starting
    point is feasible, else the largest objective among the modes' first
    feasible evaluations."""
    table: Dict[InstanceKey, Optional[float]] = dict.fromkeys(v.instance_key for v in views)
    from_x0 = set()
    for view in views:
        if view.steps and view.steps[0][0] == 0:  # x0 is feasible: f(x0)
            table[view.instance_key] = view.steps[0][1]
            from_x0.add(view.instance_key)
    for view in views:
        key = view.instance_key
        if key in from_x0 or not view.steps:
            continue
        first_feasible = view.steps[0][1]
        current = table[key]
        table[key] = first_feasible if current is None else max(current, first_feasible)
    return table


def _mode_curves(
    views: Sequence[RunView], tau: float, index_of, counted=lambda key: True
) -> List[ProfileCurve]:
    """One curve per mode: the fraction of the ``counted`` instances whose
    ``index_of(view, instance_key)`` is at most k, for each group count k."""
    if not views:
        raise ValueError("no run views supplied")
    by_key = {v.key: v for v in views}
    kept = [key for key in sorted({v.instance_key for v in views}) if counted(key)]
    groups = tuple(range(0, max(v.group_count for v in views) + 1))
    curves = []
    for mode in sorted({v.mode for v in views}):
        indices = []
        for key in kept:
            view = by_key.get((key[0], key[1], key[2], mode))
            if view is None:
                continue
            index = index_of(view, key)
            if index is not None:
                indices.append(index)
        denominator = len(kept)
        fraction = tuple(
            (sum(1 for s in indices if s <= k) / denominator) if denominator else 0.0
            for k in groups
        )
        curves.append(ProfileCurve(label=mode, tau=tau, groups=groups, fraction=fraction))
    return curves


def data_profile(
    views: Sequence[RunView],
    tau: float,
    f_star_table: Dict[InstanceKey, Optional[float]],
    f_ref_table: Dict[InstanceKey, Optional[float]],
) -> List[ProfileCurve]:
    """One curve per mode: fraction of instances tau-solved within k groups
    (denominator: the instances with both an ``f_star`` and an ``f_ref``)."""
    return _mode_curves(
        views,
        tau,
        lambda view, key: convergence_index(view, f_star_table[key], f_ref_table[key], tau),
        lambda key: f_star_table.get(key) is not None and f_ref_table.get(key) is not None,
    )


def feasibility_profile(views: Sequence[RunView]) -> List[ProfileCurve]:
    """One curve per mode: fraction of instances with a feasible evaluation
    within k groups (denominator: all instances)."""
    return _mode_curves(views, 0.0, lambda view, key: feasibility_index(view))


def export(curves: Sequence[ProfileCurve], format: str, path) -> None:
    """Write curves as CSV (columns label,tau,k,fraction) or as an SVG step
    chart, deterministically; any label is safe (quoted in CSV when it holds
    a comma, a quote or a line break, escaped as XML text in SVG)."""
    if len(curves) == 0:
        raise ValueError("no curves to export")
    if format == "csv":
        _export_csv(curves, path)
    elif format == "svg":
        _export_svg(curves, path)
    else:
        raise ValueError(f"unknown export format {format!r}")


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted RFC 4180 style when it needs it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _export_csv(curves: Sequence[ProfileCurve], path) -> None:
    lines = ["label,tau,k,fraction"]
    for curve in curves:
        label = _csv_field(curve.label)
        for k, fraction in zip(curve.groups, curve.fraction):
            lines.append(f"{label},{curve.tau!r},{k},{fraction!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _xml_text(text: str) -> str:
    """``text`` escaped as XML character data (``xml.sax.saxutils.escape``
    would import ``urllib.request`` and the HTTP and SSL modules with it)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H, _MARGIN = 640, 440, 60


def _export_svg(curves: Sequence[ProfileCurve], path) -> None:
    k_max = max(max(c.groups) for c in curves if c.groups) or 1
    plot_w, plot_h = _W - 2 * _MARGIN, _H - 2 * _MARGIN

    def sx(k: float) -> float:
        return _MARGIN + plot_w * k / k_max

    def sy(f: float) -> float:
        return _H - _MARGIN - plot_h * f

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_W / 2:.1f}" y="{_H - 15}" text-anchor="middle" '
        f'font-size="13">groups of n+1 evaluations</text>',
        f'<text x="18" y="{_H / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {_H / 2:.1f})">fraction of instances</text>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(tick)
        parts.append(
            f'<line x1="{_MARGIN - 4}" y1="{y:.2f}" x2="{_MARGIN}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="11">{tick:g}</text>'
        )
    for tick in sorted({0, k_max // 2, k_max}):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_H - _MARGIN}" x2="{x:.2f}" y2="{_H - _MARGIN + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_H - _MARGIN + 18}" text-anchor="middle" font-size="11">{tick}</text>'
        )
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        points = []
        previous = None
        for k, fraction in zip(curve.groups, curve.fraction):
            if previous is not None:
                points.append(f"{sx(k):.2f},{sy(previous):.2f}")  # horizontal run
            points.append(f"{sx(k):.2f},{sy(fraction):.2f}")  # vertical step
            previous = fraction
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
            f'points="{" ".join(points)}"/>'
        )
        ly = _MARGIN + 16 * (i + 1)
        parts.append(
            f'<line x1="{_W - _MARGIN - 110}" y1="{ly - 4}" x2="{_W - _MARGIN - 86}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{_W - _MARGIN - 80}" y="{ly}" font-size="12">{_xml_text(curve.label)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
