"""The benchmark's per-layer metrics come from wrappers placed on names in
the package; a renamed or removed name would silently read zero."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        pass
    assert tracer.missing == []


def test_solve_passes_every_traced_boundary(monkeypatch):
    # the wrappers sit on module and class attributes, so the solver must
    # look each name up when it calls it, or the spans read zero
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    solver = importlib.import_module("madspip.solver")
    suite = importlib.import_module("madspip.suite")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for name in ("two-ring", "sphere-eq", "mixed-kkt"):
            problem, _ = suite.builtin_problem(name)
            for x0_id in ("feasible-0", "infeasible-0"):
                config = solver.SolverConfig(max_evaluations=300, seed=5)
                record = solver.solve(problem, suite.initial_point(problem, x0_id), config)
                spans, counts = tracer.take()
                calls = tracing.summarise(spans).calls
                assert calls["problem.evaluator"] == record.evals_used
                tried = counts["solver.tried.poll"] + counts["solver.tried.search"]
                assert len(record.rows) - 1 <= tried <= len(record.rows)
                for boundary in ("mesh.poll_directions", "merit.violation_summary", "problem.Cache.get"):
                    assert calls[boundary] > 0, (name, x0_id, boundary)
