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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .problem import Evaluation, is_feasible
from .solver import RunRecord, SolverConfig, InitializationError, error_record, solve
from .suite import Instance

__all__ = [
    "ProfileCurve",
    "RunView",
    "view_of_history",
    "run_matrix",
    "convergence_index",
    "feasibility_index",
    "best_feasible_table",
    "reference_table",
    "data_profile",
    "feasibility_profile",
    "export",
    "read_curves_csv",
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
    """The slice of one run that profiles need: per-evaluation objective and
    feasibility, in evaluation order."""

    problem: str
    x0_id: str
    seed: int
    mode: str
    n: int
    evals: Tuple[Tuple[float, bool], ...]

    @property
    def key(self) -> Key:
        return (self.problem, self.x0_id, self.seed, self.mode)

    @property
    def instance_key(self) -> InstanceKey:
        return (self.problem, self.x0_id, self.seed)

    @property
    def group_count(self) -> int:
        return math.ceil(len(self.evals) / (self.n + 1))


def view_of_history(rows: Sequence[dict], problem: str, x0_id: str, seed: int, mode: str) -> RunView:
    """Build a view from history rows, in memory or read back from JSONL
    (``n`` comes from the rows).

    The first row of each ``eval_index`` is that evaluation; bound
    rejections (no index) and cache hits (a repeated index) spend no budget.
    """
    n = len(rows[0]["x"]) if rows else 0
    true_rows: Dict[int, Tuple[float, bool]] = {}
    for row in rows:
        idx = row.get("eval_index")
        if idx is None or idx in true_rows:
            continue
        failed = row.get("status") == "failed"
        evaluation = Evaluation((), row["f"], row.get("g") or (), row.get("h") or (), idx, failed)
        true_rows[idx] = (row["f"], is_feasible(evaluation))
    evals = tuple(true_rows[i] for i in sorted(true_rows))
    return RunView(problem=problem, x0_id=x0_id, seed=seed, mode=mode, n=n, evals=evals)


def _as_view(run: Union[RunRecord, RunView]) -> RunView:
    if isinstance(run, RunView):
        return run
    return view_of_history(run.rows, *run.key)


def run_matrix(
    jobs: Sequence[Tuple[Instance, str]],
    budget: int,
    max_workers: Optional[int] = None,
    base_config: Optional[SolverConfig] = None,
) -> Dict[Key, RunRecord]:
    """Run each (instance, mode) job once; individual failures become error
    records and never abort the batch. Deterministic per key."""
    if len(jobs) == 0:
        raise ValueError("jobs must be nonempty")

    def _run(instance: Instance, mode: str) -> RunRecord:
        if base_config is None:
            config = SolverConfig(max_evaluations=budget, seed=instance.seed, mode=mode)
        else:
            config = replace(
                base_config, max_evaluations=budget, seed=instance.seed, mode=mode
            )
        try:
            record = solve(instance.problem, instance.x0, config, x0_id=instance.x0_id)
        except InitializationError as exc:
            record = error_record(
                instance.problem.name,
                instance.x0_id,
                instance.seed,
                mode,
                instance.problem.n,
                str(exc),
            )
        return record

    results: Dict[Key, RunRecord] = {}
    workers = max_workers if max_workers is not None else min(8, len(jobs))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run, instance, mode) for instance, mode in jobs]
        for (instance, mode), future in zip(jobs, futures):
            record = future.result()
            results[(instance.problem.name, instance.x0_id, instance.seed, mode)] = record
    return results


def convergence_index(
    history: Union[RunRecord, RunView],
    f_star: float,
    f_ref: float,
    tau: float,
) -> Optional[int]:
    """Smallest k such that some feasible evaluation among the first
    ``k * (n + 1)`` satisfies ``f <= f_star + tau * (f_ref - f_star)``."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if f_ref < f_star:
        raise ValueError("the reference value must not undercut f_star")
    view = _as_view(history)
    threshold = f_star + tau * (f_ref - f_star)
    for index, (f, feasible) in enumerate(view.evals):
        if feasible and f <= threshold:
            return math.ceil((index + 1) / (view.n + 1))
    return None


def feasibility_index(history: Union[RunRecord, RunView]) -> Optional[int]:
    """Smallest k whose first ``k * (n + 1)`` evaluations contain a feasible
    point."""
    view = _as_view(history)
    for index, (_, feasible) in enumerate(view.evals):
        if feasible:
            return math.ceil((index + 1) / (view.n + 1))
    return None


def _group_runs(
    records: Union[Dict[Key, Union[RunRecord, RunView]], Sequence[Union[RunRecord, RunView]]],
):
    views = [_as_view(r) for r in (records.values() if isinstance(records, dict) else records)]
    modes = sorted({v.mode for v in views})
    instances = sorted({v.instance_key for v in views})
    by_key = {v.key: v for v in views}
    return views, modes, instances, by_key


def best_feasible_table(
    records, known: Optional[Dict[str, float]] = None
) -> Dict[InstanceKey, Optional[float]]:
    """Best known value per instance: the lowest feasible objective reached
    by any mode, improved by a known optimum when one is supplied for the
    problem. ``None`` marks instances no mode ever made feasible."""
    views, _, instances, _ = _group_runs(records)
    table: Dict[InstanceKey, Optional[float]] = {key: None for key in instances}
    for view in views:
        best = table[view.instance_key]
        for f, feasible in view.evals:
            if feasible and (best is None or f < best):
                best = f
        table[view.instance_key] = best
    if known:
        for key in table:
            f_star = known.get(key[0])
            if f_star is not None and table[key] is not None:
                table[key] = min(table[key], f_star)
    return table


def reference_table(records) -> Dict[InstanceKey, Optional[float]]:
    """Normalization reference per instance: ``f(x0)`` when the starting
    point is feasible, else the largest objective among the modes' first
    feasible evaluations."""
    views, _, instances, _ = _group_runs(records)
    table: Dict[InstanceKey, Optional[float]] = {key: None for key in instances}
    from_x0 = set()
    for view in views:
        if not view.evals:
            continue
        f0, feasible0 = view.evals[0]
        if feasible0:
            table[view.instance_key] = f0
            from_x0.add(view.instance_key)
    for view in views:
        key = view.instance_key
        if key in from_x0:
            continue
        first_feasible = next((f for f, feasible in view.evals if feasible), None)
        if first_feasible is not None:
            current = table[key]
            table[key] = first_feasible if current is None else max(current, first_feasible)
    return table


def _max_groups(views: Sequence[RunView]) -> int:
    return max((v.group_count for v in views), default=0)


def data_profile(
    records,
    tau: float,
    f_star_table: Dict[InstanceKey, Optional[float]],
    f_ref_table: Dict[InstanceKey, Optional[float]],
) -> List[ProfileCurve]:
    """One curve per mode: fraction of instances tau-solved within k groups."""
    views, modes, instances, by_key = _group_runs(records)
    if not views:
        raise ValueError("no run records supplied")
    kept = [
        key
        for key in instances
        if f_star_table.get(key) is not None and f_ref_table.get(key) is not None
    ]
    k_max = _max_groups(views)
    groups = tuple(range(0, k_max + 1))
    curves = []
    for mode in modes:
        solved_at: List[int] = []
        for key in kept:
            view = by_key.get((key[0], key[1], key[2], mode))
            if view is None:
                continue
            index = convergence_index(view, f_star_table[key], f_ref_table[key], tau)
            if index is not None:
                solved_at.append(index)
        denominator = len(kept)
        fraction = tuple(
            (sum(1 for s in solved_at if s <= k) / denominator) if denominator else 0.0
            for k in groups
        )
        curves.append(ProfileCurve(label=mode, tau=tau, groups=groups, fraction=fraction))
    return curves


def feasibility_profile(records) -> List[ProfileCurve]:
    """One curve per mode: fraction of instances with a feasible evaluation
    within k groups (denominator: all instances)."""
    views, modes, instances, by_key = _group_runs(records)
    if not views:
        raise ValueError("no run records supplied")
    k_max = _max_groups(views)
    groups = tuple(range(0, k_max + 1))
    curves = []
    for mode in modes:
        indices = []
        for key in instances:
            view = by_key.get((key[0], key[1], key[2], mode))
            if view is None:
                continue
            index = feasibility_index(view)
            if index is not None:
                indices.append(index)
        denominator = len(instances)
        fraction = tuple(
            (sum(1 for s in indices if s <= k) / denominator) if denominator else 0.0
            for k in groups
        )
        curves.append(ProfileCurve(label=mode, tau=0.0, groups=groups, fraction=fraction))
    return curves


def export(curves: Sequence[ProfileCurve], format: str, path) -> None:
    """Write curves as CSV (columns label,tau,k,fraction) or as an SVG step
    chart, deterministically."""
    if len(curves) == 0:
        raise ValueError("no curves to export")
    if format == "csv":
        _export_csv(curves, path)
    elif format == "svg":
        _export_svg(curves, path)
    else:
        raise ValueError(f"unknown export format {format!r}")


def _export_csv(curves: Sequence[ProfileCurve], path) -> None:
    lines = ["label,tau,k,fraction"]
    for curve in curves:
        for k, fraction in zip(curve.groups, curve.fraction):
            lines.append(f"{curve.label},{curve.tau!r},{k},{fraction!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_curves_csv(path) -> List[ProfileCurve]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != "label,tau,k,fraction":
        raise ValueError("not a profile CSV file")
    data: Dict[Tuple[str, float], List[Tuple[int, float]]] = {}
    for line in lines[1:]:
        label, tau, k, fraction = line.split(",")
        data.setdefault((label, float(tau)), []).append((int(k), float(fraction)))
    curves = []
    for (label, tau), points in data.items():
        points.sort()
        curves.append(
            ProfileCurve(
                label=label,
                tau=tau,
                groups=tuple(k for k, _ in points),
                fraction=tuple(f for _, f in points),
            )
        )
    return curves


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
            f'<text x="{_W - _MARGIN - 80}" y="{ly}" font-size="12">{curve.label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
