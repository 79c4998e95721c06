"""Benchmark for madspip: run one workload, compare result files, or write
the repository's ``BENCHMARK.json``.

    python3 perfbench/run.py --workload bench-matrix --seed 1 --seconds 30 --trace 0 [--out FILE]
    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
    python3 perfbench/run.py reference RESULTS.jsonl [...]
    python3 perfbench/run.py spec

A run imports the package from ``src/`` of the checkout it sits in, then
repeats set-up and timed pass for ``--seconds``.  Set-up is timed in CPU
seconds, and a pass's CPU seconds are read against the workload's reference
work timed through it (``cputime``); the plain CPU and wall-clock figures
are printed beside them.
The last line of its output is one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of a traced run.  ``--out`` appends that object, with the run's
seed, hashes and notes, to a results file that ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import cputime
import spec
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
#: Prints the CPU seconds a fresh interpreter spends importing the package
#: and workloads; the directories to import from are its arguments.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.process_time(); "
    "import workloads; print(time.process_time() - t)"
)
#: A pass is preceded by one set-up per this many seconds of the previous
#: pass, and at least one, so that short and long passes give alike numbers
#: of set-ups.
SETUP_EVERY_S = 4.0
#: Passes per run at least, so that outputs can be compared between passes.
MIN_PASSES = 2


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result and its notes to this JSONL file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def _import_package():
    """Import the checkout's own package; ``None`` when it is absent."""
    src = ROOT / "src"
    if not (src / "madspip" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import workloads  # imports madspip

    return workloads


def _fresh_import_s() -> float:
    """CPU seconds a fresh interpreter takes to import the package."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(name: str, value: float) -> dict:
    return {"value": value, "unit": spec.UNITS[name]}


def _passes(workload, seed: int, workdir, seconds: float):
    """Set-ups and timed passes filling ``seconds``, at least
    ``MIN_PASSES`` of them: ``(passes, import_s, setup_s)``.

    Each pass is preceded by set-ups, timed apart in CPU seconds: the
    import of the package in a fresh interpreter plus the workload's own
    set-up.  Spread over the run, their median does not hang on the few
    seconds at its start, when a shared machine may happen to be slow.  Another pass starts
    only if it would end less than half a pass after the window, so a run
    lasts about ``seconds`` however long a pass is.
    """
    done, import_s, setup_s = [], [], []
    started = time.perf_counter()
    while True:
        setups = int(done[-1].wall_s // SETUP_EVERY_S) if done else 1
        for _ in range(max(1, setups)):
            import_s.append(_fresh_import_s())
            start = cputime.cpu_seconds()
            workload.setup(seed, workdir)
            setup_s.append(cputime.cpu_seconds() - start)
        done.append(workload.check(workload.timed(len(done))))
        typical = statistics.median(p.wall_s for p in done)
        if len(done) >= MIN_PASSES and time.perf_counter() - started + typical / 2 >= seconds:
            return done, import_s, setup_s


def _untraced(cls, args, workdir):
    workload = cls()
    passes, import_each, setup_each = _passes(workload, args.seed, workdir, args.seconds)
    # one reference unit for a pass: the median of the reference work
    # timed through it
    units = [statistics.median(p.refs) for p in passes]
    per_ref = statistics.median(p.cpu_s / u for p, u in zip(passes, units))
    ops = [t / u for p, u in zip(passes, units) for t in p.op_cpu_s]
    tail_value, tail_p, samples = stats.tail(ops)
    metrics = {
        "setup_s": statistics.median(i + s for i, s in zip(import_each, setup_each)),
        "pass_ref": per_ref,
        "evals_per_ref": workload.evals / per_ref,
        "op_ref_p50": stats.percentile(ops, 50),
        "op_ref_tail": tail_value,
        "peak_rss_mb": _peak_rss_mb(),
    }
    cpu = statistics.median(p.cpu_s for p in passes)
    wall = statistics.median(p.wall_s for p in passes)
    notes = {
        "import_s_each": import_each,
        "setup_s_each": setup_each,
        "ref_s_each": units,
        "cpu_s_each": [p.cpu_s for p in passes],
        "wall_s_each": [p.wall_s for p in passes],
        "ref_s": statistics.median(units),
        "cpu_s": cpu,
        "evals_per_cpu_s": workload.evals / cpu,
        "wall_s": wall,
        "evals_per_wall_s": workload.evals / wall,
        "op_samples": samples,
        "op_tail_percentile": tail_p,
    }
    return workload, passes, [], metrics, notes


def _traced(cls, args, workdir):
    import tracing

    tracer = tracing.Tracer()
    workload = cls()
    with tracing.installed(tracer):
        workload.setup(args.seed, workdir)
    setup_spans, _ = tracer.take()
    problems = []
    # untraced and traced passes alternate, so both see the same machine;
    # each traced pass is summarised and its spans written out, then dropped
    untraced, traced = [], []
    summary = tracing.summarise([])
    counts = Counter()
    spans_recorded = 0
    started = time.perf_counter()
    with open(workdir / "spans.tsv", "w", encoding="utf-8") as spans_file:
        spans_file.write("id\tname\tstart_us\tend_us\tparent\tthread\n")
        while not traced or time.perf_counter() - started < args.seconds:
            index = len(untraced) + len(traced)
            if index % 2 == 0:
                untraced.append(workload.check(workload.timed(index)))
                continue
            with tracing.installed(tracer):
                raw = workload.timed(index)
            spans, pass_counts = tracer.take()
            summary.add(tracing.summarise(spans))
            counts.update(pass_counts)
            _write_spans(spans, spans_file, started)
            spans_recorded += len(spans)
            del spans
            traced.append(workload.check(raw))
    metrics = tracing.layer_metrics(summary, counts, len(traced), cls.workers)
    setup_summary = tracing.summarise(setup_spans)
    metrics["suite.make_instances.s"] += setup_summary.busy_s.get("suite.make_instances", 0.0)
    metrics["suite.initial_point.calls"] += setup_summary.calls.get("suite.initial_point", 0)
    untraced_cpu = statistics.median(p.cpu_s for p in untraced)
    metrics["trace.overhead_frac"] = statistics.median(p.cpu_s for p in traced) / untraced_cpu - 1.0
    metrics["result.solved_frac"] = workload.quality.solved_frac
    metrics["result.evals_to_solve_p50"] = workload.quality.evals_to_solve_p50
    metrics["result.inapplicable"] = workload.quality.inapplicable
    if tracer.missing:
        problems.append(f"trace targets missing from the package: {', '.join(tracer.missing)}")
    top = sorted(summary.self_s.items(), key=lambda kv: -kv[1])[:8]
    notes = {
        "untraced_cpu_s_each": [p.cpu_s for p in untraced],
        "traced_cpu_s_each": [p.cpu_s for p in traced],
        "spans_per_pass": spans_recorded / len(traced),
        "peak_rss_mb": _peak_rss_mb(),
        "top_self_s_per_pass": [[name, s / len(traced)] for name, s in top],
    }
    return workload, untraced + traced, problems, metrics, notes


def _write_spans(spans, fh, origin: float) -> None:
    """Spans as tab-separated lines, times in microseconds from ``origin``."""
    for sid, name, start, end, parent, thread in spans:
        fh.write(
            f"{sid}\t{name}\t{round((start - origin) * 1e6)}\t{round((end - origin) * 1e6)}"
            f"\t{'' if parent is None else parent}\t{thread}\n"
        )


def run(args) -> int:
    module = _import_package()
    if module is None:
        print(f"error: no package source under {ROOT / 'src' / 'madspip'}", file=sys.stderr)
        return 2
    cls = module.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    measure = _traced if args.trace else _untraced
    workload, passes, problems, metrics, notes = measure(cls, args, workdir)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        problems.extend(p.problems)
    digest = passes[0].digest
    if any(p.digest != digest for p in passes):
        problems.append("outputs differ between passes")
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref = reference.get(args.workload, {}).get(str(args.seed))
    quality = workload.quality
    notes.update(
        {
            "passes": len(passes),
            "evals_per_pass": workload.evals,
            "applicable": quality.applicable,
            "inapplicable": quality.inapplicable,
            "solved_frac": quality.solved_frac,
            "evals_to_solve_p50": quality.evals_to_solve_p50,
            "failed_frac": failed / attempted,
            "history_sha256": digest,
            "reference_sha256": ref,
            "problems": sorted(set(problems)),
        }
    )
    correct = failed == 0 and not problems
    wanted = spec.PER_LAYER if args.trace else spec.END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: _metric(m["name"], float(metrics[m["name"]])) for m in wanted},
    }
    _report(args, result, notes)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "result": result, "notes": notes}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def _report(args, result, notes) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {notes['passes']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  op_ref_tail is p{notes['op_tail_percentile']:g} of {notes['op_samples']} operations")
        print(f"  reference work: median {notes['ref_s']:.6g} CPU s")
        print(f"  in CPU time: median pass {notes['cpu_s']:.6g} s, {notes['evals_per_cpu_s']:.6g} evals/s")
        print(f"  by the wall clock: median pass {notes['wall_s']:.6g} s, {notes['evals_per_wall_s']:.6g} evals/s")
    print(
        f"  results: {notes['applicable']} applicable runs, {notes['inapplicable']} inapplicable, "
        f"solved_frac {notes['solved_frac']:.4f}, evals_to_solve_p50 {notes['evals_to_solve_p50']:g} evals, "
        f"failed_frac {notes['failed_frac']:g} ({result['failed']} of {result['attempted']} operations)"
    )
    ref = notes["reference_sha256"]
    same = "no reference for this seed" if ref is None else ("matches reference" if ref == notes["history_sha256"] else f"DIFFERS from reference {ref}")
    print(f"  history sha256 {notes['history_sha256']} ({same})")
    if args.trace:
        for name, s in notes["top_self_s_per_pass"]:
            print(f"  self time per pass  {name:<32} {s:.4f} s")
    for problem in notes["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main() -> int:
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        import compare

        return compare.main(argv[1:])
    if argv and argv[0] == "reference":
        import compare

        return compare.write_reference(argv[1:], REFERENCE)
    if argv and argv[0] == "spec":
        (ROOT / "BENCHMARK.json").write_text(spec.render(), encoding="utf-8")
        return 0
    return run(_parse(argv))


if __name__ == "__main__":
    sys.exit(main())
