"""The workloads: inputs made from the workload seed, one timed pass, and
the checks on what the pass produced.

Both are closed loops driven from this process with one client: a pass
starts only after the previous one returned.  Every pass of one run repeats
the same inputs, so its outputs must repeat byte for byte.

A pass is a few steps.  Each is timed in CPU seconds (``cputime``) and by
the wall clock, and the workload's reference work is timed before the first
step and after each, so that it samples the machine's speed all through
the pass.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import madspip.cli as cli
import madspip.problem as problem_mod
import madspip.solver as solver_mod
import madspip.suite as suite

import checks
import cputime
from cputime import cpu_seconds

MODES = ("pip", "extreme-barrier")
EVALUATOR_DIR = Path(__file__).resolve().parent / "evaluators"


def history_name(problem: str, x0_id: str, seed: int, mode: str) -> str:
    """The file name ``madspip bench`` gives one run's history."""
    return f"{problem}__{x0_id}__seed{seed}__{mode}.jsonl"


@dataclass
class Pass:
    """What one timed pass did and what its checks found."""

    wall_s: float
    cpu_s: float
    #: CPU seconds of each operation the user makes
    op_cpu_s: List[float]
    #: CPU seconds of the reference work, before the first step and after each
    refs: List[float]
    attempted: int
    failed: int = 0
    digest: str = ""
    problems: List[str] = field(default_factory=list)


@dataclass
class Quality:
    """Results of the applicable runs, for the solved figures."""

    applicable: int = 0
    inapplicable: int = 0
    solved_at: List[int] = field(default_factory=list)

    @property
    def solved_frac(self) -> float:
        return len(self.solved_at) / self.applicable if self.applicable else 0.0

    @property
    def evals_to_solve_p50(self) -> float:
        return float(statistics.median(self.solved_at)) if self.solved_at else 0.0


def _canonical():
    return [suite.builtin_problem(name) for name in suite.DEFAULT_BENCH_NAMES]


def _expected_runs(instances, f_star: Dict[str, float]):
    """History name -> (applicable, f*) for each (instance, mode).

    ``extreme-barrier`` is inapplicable with equality constraints or from an
    infeasible start; those runs end as error records with empty histories.
    """
    expected = {}
    for inst in instances:
        _, g, _ = inst.problem.evaluator(inst.x0)
        feasible_x0 = all(v <= 0.0 for v in g)
        for mode in MODES:
            applicable = mode == "pip" or (inst.problem.p == 0 and feasible_x0)
            name = history_name(inst.problem.name, inst.x0_id, inst.seed, mode)
            expected[name] = (applicable, f_star[inst.problem.name])
    return expected


def _run_cli(argv: List[str]):
    """Time one ``madspip`` command in-process: ``(wall, rc, error, stdout)``.

    A raising command fails every operation of its pass, so the exception
    is returned, not raised.
    """
    stdout = io.StringIO()
    error = rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
    except Exception as exc:
        error = exc
    return time.perf_counter() - start, rc, error, stdout.getvalue()


class _Workload:
    name = ""
    workers = 1

    def __init__(self):
        self.workdir: Optional[Path] = None
        self.quality = Quality()
        self.evals = 0
        self.first: Optional[Dict[str, str]] = None  # per-output digests of pass 0
        self.bad: Dict[str, str] = {}  # output -> deterministic content failure

    def _steps(self, steps):
        """Run ``steps`` one after another: ``(results, wall_s, cpu_s, refs)``
        with ``cpu_s`` per step, the wall clock summed over the steps, and
        the reference work timed before the first step and after each."""
        results, wall, cpu, refs = [], 0.0, [], [self.reference()]
        for step in steps:
            start, began = time.perf_counter(), cpu_seconds()
            results.append(step())
            cpu.append(cpu_seconds() - began)
            wall += time.perf_counter() - start
            refs.append(self.reference())
        return results, wall, cpu, refs

    def _compare(self, result: Pass, digests: Dict[str, str]) -> None:
        """Count content failures and outputs whose bytes moved between passes."""
        result.digest = checks.combined_digest(digests)
        if self.first is None:
            self.first = digests
        for name, why in self.bad.items():
            result.failed += 1
            result.problems.append(f"{name}: {why}")
        for name, digest in digests.items():
            if name not in self.bad and self.first.get(name) != digest:
                result.failed += 1
                result.problems.append(f"{name}: bytes differ from the first pass")

    def _judge_rows(self, rows: List[dict], applicable: bool, f_star: float) -> Optional[str]:
        """Figures of one history, and why its content fails, if it does."""
        if not applicable:
            self.quality.inapplicable += 1
            return "inapplicable run wrote rows" if rows else None
        self.quality.applicable += 1
        self.evals += checks.distinct_evals(rows)
        if not rows:
            return "applicable run ended as an error"
        solved = checks.evals_to_solve(rows, f_star)
        if solved is not None:
            self.quality.solved_at.append(solved)
        low = checks.undercuts(rows, f_star)
        if low:
            return f"{len(low)} feasible rows undercut f* = {f_star!r}"
        return None


class BenchMatrix(_Workload):
    """The README's study, in-process through ``cli.main``: ``madspip
    bench`` on the canonical matrix into a fresh directory, one call per
    seed, then ``madspip profile`` over the histories they wrote.  Each call
    adds its histories to the directory and its runs to the manifest, so the
    directory ends as one call over all four seeds leaves it; calling once
    per seed lets the reference work sample the machine between calls."""

    name = "bench-matrix"
    workers = 2
    budget = 1500
    taus = "0.1,0.001"

    def reference(self) -> float:
        """CPU seconds of work like the solver's, which is most of a pass."""
        return cputime.interpreter()

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.seeds = [4 * seed + i for i in range(1, 5)]
        canonical = _canonical()
        instances = suite.make_instances([p for p, _ in canonical], 2, self.seeds)
        self.expected = _expected_runs(instances, {p.name: o.f_star for p, o in canonical})
        # what each seed's bench JSON line must report
        self.want = {}
        for bench_seed in self.seeds:
            flags = [a for name, (a, _) in self.expected.items() if f"__seed{bench_seed}__" in name]
            self.want[bench_seed] = {"runs": len(flags), "completed": sum(flags), "errors": len(flags) - sum(flags)}

    def timed(self, index: int):
        out = self.workdir / f"pass{index}"
        steps = [
            functools.partial(
                _run_cli,
                [
                    "bench",
                    "--seeds", str(seed),
                    "--x0-count", "2",
                    "--mode", ",".join(MODES),
                    "--budget", str(self.budget),
                    "--workers", str(self.workers),
                    "--out", str(out),
                ],
            )
            for seed in self.seeds
        ]
        steps.append(
            functools.partial(
                _run_cli, ["profile", "--histories", str(out), "--tau", self.taus, "--out", str(out / "profile")]
            )
        )
        return out, self._steps(steps)

    def check(self, raw) -> Pass:
        out, (runs, wall, cpu, refs) = raw
        *bench_runs, profile_run = runs
        # operations: each (instance, mode) run, and the profile call; the
        # user's operation is the whole study
        result = Pass(wall, sum(cpu), [sum(cpu)], refs, attempted=len(self.expected) + 1)
        try:
            for seed, (_, rc, error, stdout) in zip(self.seeds, bench_runs):
                if error is not None or rc != 0:
                    result.failed = result.attempted
                    result.problems.append(f"bench --seeds {seed} returned {rc!r} ({error!r})")
                    return result
                line = json.loads(stdout.splitlines()[0])
                for key, value in self.want[seed].items():
                    if line.get(key) != value:
                        result.problems.append(
                            f"bench --seeds {seed}: JSON {key} = {line.get(key)!r}, expected {value}"
                        )
            digests = self._check_histories(result, out)
            _, rc, error, stdout = profile_run
            line = json.loads(stdout.splitlines()[0]) if rc == 0 else {}
            if error is not None or rc != 0:
                result.failed += 1
                result.problems.append(f"profile returned {rc!r} ({error!r})")
            elif line.get("histories") != len(self.expected) or line.get("warnings"):
                result.failed += 1
                result.problems.append(
                    f"profile read {line.get('histories')} histories of {len(self.expected)}, "
                    f"warnings {line.get('warnings')!r}"
                )
            else:
                files = sorted(p for p in (out / "profile").iterdir() if p.is_file())
                digests.update({f"profile/{k}": v for k, v in checks.digest_files(files).items()})
            self._compare(result, digests)
            return result
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_histories(self, result: Pass, out: Path) -> Dict[str, str]:
        """Digest each history; judge its rows on the first pass."""
        digests = {}
        for name, (is_applicable, f_star) in self.expected.items():
            path = out / name
            if not path.is_file():
                result.failed += 1
                result.problems.append(f"{name}: history missing")
                continue
            data = path.read_bytes()
            digests[name] = checks.sha256(data)
            if self.first is None:
                why = self._judge_rows(checks.read_rows(data), is_applicable, f_star)
                if why:
                    self.bad[name] = why
        return digests


class ExternalBlackbox(_Workload):
    """Library ``solve`` in pip mode on two builtin problems whose evaluator
    is a ``/bin/sh`` + ``awk`` script: one child process per evaluation."""

    name = "external-blackbox"
    budget = 300
    scripts = {"two-ring": "two_ring.sh", "sphere-eq": "sphere_eq.sh"}
    x0_ids = ("feasible-0", "infeasible-0")

    def reference(self) -> float:
        """CPU seconds of evaluator processes, which are most of a pass,
        and of work like the solver's."""
        script = str(self.workdir / "evaluators" / self.scripts["sphere-eq"])
        return cputime.spawn(script, "0.5 -0.25 1 0.125 -2\n", 30) + cputime.interpreter()

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.config = solver_mod.SolverConfig(max_evaluations=self.budget, seed=seed + 1)
        scripts = workdir / "evaluators"
        scripts.mkdir(parents=True, exist_ok=True)
        self.runs = []
        for name, script in self.scripts.items():
            path = scripts / script
            shutil.copyfile(EVALUATOR_DIR / script, path)
            path.chmod(0o755)
            analytic, optimum = suite.builtin_problem(name)
            external = problem_mod.Problem(
                analytic.name,
                analytic.n,
                analytic.m,
                analytic.p,
                problem_mod.ExternalEvaluator(str(path), analytic.m, analytic.p),
                analytic.bounds,
            )
            for x0_id in self.x0_ids:
                x0 = suite.initial_point(analytic, x0_id)
                self.runs.append((external, analytic, x0_id, x0, optimum.f_star))

    def timed(self, index: int):
        return self._steps(
            functools.partial(self._solve, external, x0_id, x0) for external, _, x0_id, x0, _ in self.runs
        )

    def _solve(self, external, x0_id, x0):
        """One ``solve``; the exception if it raises."""
        try:
            return solver_mod.solve(external, x0, self.config, x0_id=x0_id)
        except Exception as exc:
            return exc

    def check(self, raw) -> Pass:
        records, wall, op_cpu_s, refs = raw
        result = Pass(wall, sum(op_cpu_s), op_cpu_s, refs, attempted=len(self.runs))
        digests = {}
        out = self.workdir / "histories"
        out.mkdir(exist_ok=True)
        for (external, analytic, x0_id, x0, f_star), record in zip(self.runs, records):
            name = history_name(external.name, x0_id, self.config.seed, self.config.mode)
            if isinstance(record, Exception):
                result.failed += 1
                result.problems.append(f"{name}: solve raised {record!r}")
                continue
            path = out / name
            problem_mod.write_history(record.rows, path)
            digests[name] = checks.sha256(path.read_bytes())
            if self.first is not None:
                continue
            why = self._judge_rows(record.rows, True, f_star)
            if why:
                self.bad[name] = why
            elif record.outcome == "error":
                self.bad[name] = "run ended as an error"
            elif record.rows != solver_mod.solve(analytic, x0, self.config, x0_id=x0_id).rows:
                self.bad[name] = "rows differ from the in-process analytic run"
            else:
                violations, _ = solver_mod.check_run_invariants(record)
                if violations:
                    self.bad[name] = f"invariant replay: {violations[0]}"
        self._compare(result, digests)
        return result


WORKLOADS = {w.name: w for w in (BenchMatrix, ExternalBlackbox)}
