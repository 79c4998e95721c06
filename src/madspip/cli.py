"""Command-line entry points: solve one instance, run a benchmark matrix,
compute profiles from stored histories, list builtin problems.

Options may also come from a flat key = value config file (--config); a flag
given on the command line always wins over the file.  Every command prints
one machine-readable JSON line before its human-readable summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .bench import (
    best_feasible_table,
    data_profile,
    export,
    feasibility_profile,
    reference_table,
    run_matrix,
    view_of_history,
)
from .problem import ExternalEvaluator, read_history, write_history
from .solver import (
    InitializationError,
    SolverConfig,
    check_run_invariants,
    solve,
    summary_line,
)
from .suite import (
    DEFAULT_BENCH_NAMES,
    builtin_problem,
    builtin_problems,
    initial_point,
    load_problem_file,
    make_instances,
)

_CONFIG_KEYS = {
    "problem", "x0", "x0-file", "seed", "seeds", "budget", "mode", "tau",
    "out", "eval-exe", "no-search", "check-invariants", "x0-count", "workers",
}


def _read_config_file(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = value.strip()
    return values


def resolve_option(flag_value, file_values: Dict[str, str], key: str, default=None, cast=None):
    """Flag beats file beats default; file values are cast on the way in."""
    if flag_value is not None:
        return flag_value
    if key in file_values:
        raw = file_values[key]
        return cast(raw) if cast is not None else raw
    return default


def _parse_bool(raw: str) -> bool:
    return raw.strip().lower() in ("1", "true", "yes", "on")


def _parse_seeds(raw: str) -> List[int]:
    raw = raw.strip()
    if not raw:
        return []
    return [int(tok) for tok in raw.replace(" ", "").split(",") if tok]


def _parse_taus(raw: str) -> List[float]:
    raw = raw.strip()
    if not raw:
        return []
    return [float(tok) for tok in raw.replace(" ", "").split(",") if tok]


def _parse_vector(raw: str) -> List[float]:
    return [float(tok) for tok in raw.replace(" ", "").split(",") if tok]


def _resolve_problem(name: Optional[str], eval_exe: Optional[str]):
    """A builtin name, or a path to a key=value problem definition file."""
    if name is None:
        raise ValueError("--problem is required")
    try:
        problem, optimum = builtin_problem(name)
        return problem, optimum
    except KeyError:
        pass
    if Path(name).is_file():
        return load_problem_file(name, eval_exe=eval_exe), None
    raise ValueError(f"unknown problem {name!r} (not a builtin, not a definition file)")


def _resolve_x0(problem, x0: Optional[str], x0_file: Optional[str]):
    if x0_file is not None:
        text = Path(x0_file).read_text(encoding="utf-8")
        return tuple(_parse_vector(text.replace("\n", ","))), Path(x0_file).stem
    if x0 is None:
        raise ValueError("one of --x0 or --x0-file is required")
    if any(c.isalpha() for c in x0):
        return initial_point(problem, x0), x0
    return tuple(_parse_vector(x0)), "literal"


def _history_filename(problem: str, x0_id: str, seed: int, mode: str) -> str:
    return f"{problem}__{x0_id}__seed{seed}__{mode}.jsonl"


def cmd_solve(args, file_values: Dict[str, str]) -> int:
    try:
        problem_name = resolve_option(args.problem, file_values, "problem")
        eval_exe = resolve_option(args.eval_exe, file_values, "eval-exe")
        if eval_exe is not None and not Path(eval_exe).exists():
            raise ValueError(f"evaluator executable {eval_exe!r} does not exist")
        problem, _ = _resolve_problem(problem_name, eval_exe)
        if eval_exe is not None and not isinstance(problem.evaluator, ExternalEvaluator):
            # swap a builtin's analytic evaluator for the external executable
            problem = dataclasses.replace(
                problem, evaluator=ExternalEvaluator(eval_exe, problem.m, problem.p)
            )
        x0_raw = resolve_option(args.x0, file_values, "x0")
        x0_file = resolve_option(args.x0_file, file_values, "x0-file")
        x0, x0_id = _resolve_x0(problem, x0_raw, x0_file)
        seed = resolve_option(args.seed, file_values, "seed", default=0, cast=int)
        budget = resolve_option(args.budget, file_values, "budget", default=1000, cast=int)
        mode = resolve_option(args.mode, file_values, "mode", default="pip")
        no_search = resolve_option(args.no_search, file_values, "no-search", default=False, cast=_parse_bool)
        check = resolve_option(args.check_invariants, file_values, "check-invariants", default=False, cast=_parse_bool)
        out_dir = Path(resolve_option(args.out, file_values, "out", default="."))
        config = SolverConfig(
            max_evaluations=budget,
            seed=seed,
            mode=mode,
            search_enabled=not no_search,
            invariant_checks=False,
        )
        record = solve(problem, x0, config, x0_id=x0_id)
    except (InitializationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir.mkdir(parents=True, exist_ok=True)
    history_path = out_dir / _history_filename(problem.name, x0_id, seed, mode)
    write_history(record.rows, history_path)
    machine = {
        "command": "solve",
        "history": str(history_path),
        "problem": record.problem_name,
        "x0_id": record.x0_id,
        "seed": record.seed,
        "mode": record.mode,
        "evals": record.evals_used,
        "best_feasible_f": record.best_feasible_f,
        "outcome": record.outcome,
    }
    if check:
        violations, logged = check_run_invariants(record)
        machine["invariant_violations"] = violations
        machine["invariant_warnings"] = logged
    print(json.dumps(machine))
    print(summary_line(record))
    if check and machine["invariant_violations"]:
        for violation in machine["invariant_violations"]:
            print(f"invariant violation: {violation}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args, file_values: Dict[str, str]) -> int:
    try:
        seeds_raw = resolve_option(args.seeds, file_values, "seeds")
        if seeds_raw is None:
            raise ValueError("--seeds is required for bench")
        seeds = _parse_seeds(seeds_raw) if isinstance(seeds_raw, str) else seeds_raw
        if not seeds:
            raise ValueError("at least one seed is required")
        problem_names = resolve_option(args.problem, file_values, "problem")
        if problem_names is None:
            names = list(DEFAULT_BENCH_NAMES)
        else:
            names = [tok for tok in problem_names.split(",") if tok]
        problems = [builtin_problem(name)[0] for name in names]
        x0_count = resolve_option(args.x0_count, file_values, "x0-count", default=2, cast=int)
        budget = resolve_option(args.budget, file_values, "budget", default=1500, cast=int)
        mode_raw = resolve_option(args.mode, file_values, "mode", default="pip")
        modes = [tok for tok in mode_raw.split(",") if tok]
        no_search = resolve_option(args.no_search, file_values, "no-search", default=False, cast=_parse_bool)
        workers = resolve_option(args.workers, file_values, "workers", default=None, cast=int)
        if workers is not None and workers < 1:
            raise ValueError("--workers must be at least 1")
        out_dir = Path(resolve_option(args.out, file_values, "out", default="bench-out"))
        instances = make_instances(problems, x0_count, seeds)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.txt"
    done = set()
    if manifest_path.exists():
        done = {line.strip() for line in manifest_path.read_text().splitlines() if line.strip()}

    pending = []
    skipped = 0
    for instance in instances:
        for mode in modes:
            key = f"{instance.problem.name}__{instance.x0_id}__seed{instance.seed}__{mode}"
            if key in done and (out_dir / f"{key}.jsonl").exists():
                skipped += 1
            else:
                pending.append((instance, mode))

    completed = 0
    errors = 0
    keys: List[str] = sorted(done)
    run_summaries: List[str] = []
    if pending:
        base = SolverConfig(max_evaluations=budget, search_enabled=not no_search)
        records = run_matrix(pending, budget, max_workers=workers, base_config=base)
        for key, record in sorted(records.items()):
            name = f"{key[0]}__{key[1]}__seed{key[2]}__{key[3]}"
            write_history(record.rows, out_dir / f"{name}.jsonl")
            keys.append(name)
            run_summaries.append(summary_line(record))
            if record.outcome == "error":
                errors += 1
            else:
                completed += 1
    manifest_path.write_text("\n".join(sorted(set(keys))) + "\n", encoding="utf-8")

    machine = {
        "command": "bench",
        "out": str(out_dir),
        "manifest": str(manifest_path),
        "runs": len(instances) * len(modes),
        "completed": completed,
        "errors": errors,
        "skipped": skipped,
    }
    print(json.dumps(machine))
    for line in run_summaries:
        print(line)
    print(
        f"bench: {completed} runs completed, {errors} errors, {skipped} skipped, "
        f"histories in {out_dir}"
    )
    if completed + skipped == 0:
        return 1
    return 0


def _parse_history_name(name: str):
    stem = name[: -len(".jsonl")] if name.endswith(".jsonl") else name
    parts = stem.split("__")
    if len(parts) != 4 or not parts[2].startswith("seed"):
        raise ValueError(f"history file name {name!r} does not encode a run key")
    return parts[0], parts[1], int(parts[2][4:]), parts[3]


def cmd_profile(args, file_values: Dict[str, str]) -> int:
    histories_dir = Path(resolve_option(args.histories, file_values, "out", default="bench-out"))
    tau_raw = resolve_option(args.tau, file_values, "tau", default="0.1,0.001")
    taus = _parse_taus(tau_raw) if isinstance(tau_raw, str) else tau_raw
    out_dir = Path(resolve_option(args.out, file_values, "out", default=str(histories_dir)))
    if not histories_dir.is_dir():
        print(f"error: history directory {histories_dir} does not exist", file=sys.stderr)
        return 2

    views = []
    warnings = []
    for path in sorted(histories_dir.glob("*.jsonl")):
        try:
            problem, x0_id, seed, mode = _parse_history_name(path.name)
            rows = read_history(path)
            views.append(view_of_history(rows, problem, x0_id, seed, mode))
        except (ValueError, json.JSONDecodeError) as exc:
            warnings.append(f"skipping {path.name}: {exc}")
    if not views:
        print("error: no readable histories found", file=sys.stderr)
        return 2

    known = {problem.name: optimum.f_star for problem, optimum in builtin_problems()}
    f_star = best_feasible_table(views, known=known)
    f_ref = reference_table(views)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def _emit(curves, stem):
        csv_path = out_dir / f"{stem}.csv"
        svg_path = out_dir / f"{stem}.svg"
        export(curves, "csv", csv_path)
        export(curves, "svg", svg_path)
        written.extend([str(csv_path), str(svg_path)])

    for tau in taus:
        _emit(data_profile(views, tau, f_star, f_ref), f"data_profile_tau{tau:g}")
    _emit(feasibility_profile(views), "feasibility_profile")

    machine = {
        "command": "profile",
        "histories": len(views),
        "files": written,
        "warnings": warnings,
    }
    print(json.dumps(machine))
    for warning in warnings:
        print(f"warning: {warning}")
    print(f"profile: {len(views)} histories -> {len(written)} files in {out_dir}")
    return 0


def cmd_list(args, file_values: Dict[str, str]) -> int:
    rows = [
        {
            "name": problem.name,
            "n": problem.n,
            "m": problem.m,
            "p": problem.p,
            "f_star": optimum.f_star,
        }
        for problem, optimum in builtin_problems()
    ]
    print(json.dumps({"command": "list", "problems": rows}))
    for row in rows:
        print(
            f"{row['name']:<14} n={row['n']} m={row['m']} p={row['p']} "
            f"f*={row['f_star']:.10g}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="madspip")
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="run one instance and write its history")
    solve_p.add_argument("--problem")
    solve_p.add_argument("--x0", help="builtin id (e.g. feasible-0) or comma-separated vector")
    solve_p.add_argument("--x0-file")
    solve_p.add_argument("--seed", type=int)
    solve_p.add_argument("--budget", type=int)
    solve_p.add_argument("--mode", choices=["pip", "extreme-barrier"])
    solve_p.add_argument("--eval-exe", help="external blackbox executable")
    solve_p.add_argument("--no-search", action="store_true", default=None)
    solve_p.add_argument("--check-invariants", action="store_true", default=None)
    solve_p.add_argument("--out")
    solve_p.add_argument("--config")

    bench_p = sub.add_parser("bench", help="run an instance x mode matrix")
    bench_p.add_argument("--problem", help="comma-separated builtin names (default: canonical suite)")
    bench_p.add_argument("--x0-count", type=int)
    bench_p.add_argument("--seeds", help="comma-separated seeds")
    bench_p.add_argument("--budget", type=int)
    bench_p.add_argument("--mode", help="comma-separated modes, e.g. pip,extreme-barrier")
    bench_p.add_argument("--no-search", action="store_true", default=None)
    bench_p.add_argument("--workers", type=int)
    bench_p.add_argument("--out")
    bench_p.add_argument("--config")

    profile_p = sub.add_parser("profile", help="compute profiles from stored histories")
    profile_p.add_argument("--histories", help="directory of *.jsonl run histories")
    profile_p.add_argument("--tau", help="comma-separated precisions (default 0.1,0.001)")
    profile_p.add_argument("--out")
    profile_p.add_argument("--config")

    list_p = sub.add_parser("list", help="list builtin problems")
    list_p.add_argument("--config")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    file_values: Dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            file_values = _read_config_file(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    handlers = {
        "solve": cmd_solve,
        "bench": cmd_bench,
        "profile": cmd_profile,
        "list": cmd_list,
    }
    return handlers[args.command](args, file_values)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
