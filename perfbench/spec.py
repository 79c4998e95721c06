"""The benchmark's definition: workloads and metrics, written out as the
repository's ``BENCHMARK.json`` by ``python3 perfbench/run.py spec``."""

from __future__ import annotations

import json

WORKLOADS = [
    {
        "name": "bench-matrix",
        "why": "madspip bench on the canonical 80-run matrix with 2 workers, then madspip profile on its output: "
        "solver, mesh, merit, cache, pool and history I/O",
    },
    {
        "name": "external-blackbox",
        "why": "pip solves through a /bin/sh+awk evaluator, one process per evaluation: the evaluator is "
        "~90% of the time, so solver-side changes predict no change",
    },
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pass_ref", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "evals_per_ref", "unit": "1/ref", "better": "higher", "bound": 0.25},
    {"name": "op_ref_p50", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "op_ref_tail", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _layer(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


def _timed(prefix: str, *kinds: str) -> list:
    units = {"calls": "count", "s": "s", "self_s": "s"}
    return [_layer(f"{prefix}.{kind}", units[kind]) for kind in kinds]


PER_LAYER = [
    *_timed("mesh.poll_directions", "calls", "s"),
    *_timed("mesh.snap_steps", "calls", "s"),
    *_timed("mesh.update_frame", "calls", "s"),
    *_timed("merit.violation_summary", "calls", "s"),
    _layer("merit.violation_summary.calls_per_eval", "1/eval"),
    *_timed("solver.solve", "calls", "s"),
    *_timed("solver.iterate", "calls", "self_s"),
    _layer("solver.overhead_us_per_eval", "us"),
    *_timed("solver.reselect_incumbent", "calls", "s"),
    _layer("solver.reselect_incumbent.entries_scanned", "count"),
    _layer("solver.rho_cuts_per_solve", "count"),
    _layer("solver.partition_moves_per_solve", "count"),
    _layer("solver.poll_use_ratio", "ratio", "higher"),
    *_timed("problem.Cache.get", "calls", "s"),
    *_timed("problem.Cache.store", "calls", "s"),
    _layer("problem.cache_hit_ratio", "ratio"),
    _layer("problem.bounds_reject_ratio", "ratio"),
    *_timed("problem.evaluate", "calls", "self_s"),
    *_timed("problem.evaluator", "calls", "s"),
    _layer("problem.evaluator.share", "ratio"),
    *_timed("problem.run_external", "calls", "s"),
    _layer("problem.run_external.ms_p50", "ms"),
    _layer("problem.run_external.ms_tail", "ms"),
    *_timed("problem.write_history", "calls", "s"),
    _layer("problem.write_history.bytes", "bytes"),
    *_timed("problem.read_history", "calls", "s"),
    _layer("problem.read_history.bytes", "bytes"),
    _layer("bench.solve_calls_per_history", "1/history"),
    _layer("bench.run_matrix.s", "s"),
    _layer("bench.run_matrix.parallel_efficiency", "ratio", "higher"),
    _layer("bench.view_of_history.s", "s"),
    _layer("bench.data_profile.s", "s"),
    _layer("bench.feasibility_profile.s", "s"),
    _layer("bench.export.s", "s"),
    _layer("cli.cmd_bench.self_s", "s"),
    _layer("cli.cmd_profile.self_s", "s"),
    _layer("suite.make_instances.s", "s"),
    _layer("suite.initial_point.calls", "count"),
    _layer("result.solved_frac", "ratio", "higher"),
    _layer("result.evals_to_solve_p50", "evals"),
    _layer("result.inapplicable", "count"),
    _layer("trace.overhead_frac", "ratio"),
]

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 50,
    "workloads": WORKLOADS,
    "end_to_end": END_TO_END,
    "per_layer": PER_LAYER,
}

UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}


def render() -> str:
    return json.dumps(BENCHMARK, indent=2) + "\n"
