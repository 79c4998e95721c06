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
