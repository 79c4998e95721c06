"""The benchmark's history I/O figures come from wrappers on the names that
``madspip.cli`` calls; a write or read that bypassed them would go uncounted.
``profile`` reads each history through ``madspip.cli.read_stop_line``, the
name a wrapper for the tail read must sit on."""

import contextlib
import importlib
import io
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_bench_and_profile_pass_every_history_through_the_traced_io(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    cli = importlib.import_module("madspip.cli")
    tail_reads = []
    read_stop_line = cli.read_stop_line

    def counted_read_stop_line(path):
        tail_reads.append(path.name)
        return read_stop_line(path)

    monkeypatch.setattr(cli, "read_stop_line", counted_read_stop_line)
    out = tmp_path / "bench"
    tracer = tracing.Tracer()
    with tracing.installed(tracer), contextlib.redirect_stdout(io.StringIO()):
        # 2 problems x 1 start x 1 seed x 2 modes: a 4-run matrix
        assert cli.main([
            "bench", "--problem", "unit-disk,two-ring", "--x0-count", "1", "--seeds", "1",
            "--budget", "60", "--mode", "pip,extreme-barrier", "--workers", "1",
            "--out", str(out),
        ]) == 0
        bench_spans, bench_counts = tracer.take()
        assert cli.main(["profile", "--histories", str(out), "--tau", "0.1"]) == 0
        profile_spans, profile_counts = tracer.take()
    histories = sorted(out.glob("*.jsonl"))
    size = sum(path.stat().st_size for path in histories)
    assert len(histories) == 4

    bench_calls = tracing.summarise(bench_spans).calls
    assert bench_calls["cli.cmd_bench"] == 1
    assert bench_calls["problem.write_history"] == 4
    assert bench_counts["problem.write_history.bytes"] == size

    profile_calls = tracing.summarise(profile_spans).calls
    assert profile_calls["cli.cmd_profile"] == 1
    # every history ends in a stop line, so its rows go unread
    assert tail_reads == [path.name for path in histories]
    assert profile_calls["problem.read_history"] == 0
    assert profile_calls["bench.view_of_history"] == 0
    assert profile_counts["problem.read_history.bytes"] == 0
