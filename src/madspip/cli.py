"""Command-line entry points: solve one instance, run a benchmark matrix,
compute profiles from stored histories, list builtin problems.

Options may also come from a flat key = value config file (--config): its
values become the subcommand's defaults and the command line is parsed again,
so a flag always wins over the file and file values are checked as flags are.
Every command prints one machine-readable JSON line before its human-readable
summary.
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


def _config_defaults(path: str) -> Dict[str, object]:
    """Config file values keyed by argparse destination, ready for
    ``set_defaults``; argparse converts the strings through each ``type=``."""
    defaults: Dict[str, object] = {
        key.replace("-", "_"): value for key, value in _read_config_file(path).items()
    }
    for key in ("no_search", "check_invariants"):
        if key in defaults:
            defaults[key] = _parse_bool(defaults[key])
    if "out" in defaults:
        defaults["histories"] = defaults["out"]  # profile reads where bench wrote
    return defaults


def _parse_bool(raw: str) -> bool:
    return raw.strip().lower() in ("1", "true", "yes", "on")


def _parse_list(raw: str, cast) -> list:
    return [cast(tok) for tok in raw.replace(" ", "").split(",") if tok]


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
        return tuple(_parse_list(text.replace("\n", ","), float)), Path(x0_file).stem
    if x0 is None:
        raise ValueError("one of --x0 or --x0-file is required")
    if any(c.isalpha() for c in x0):
        return initial_point(problem, x0), x0
    return tuple(_parse_list(x0, float)), "literal"


def _history_filename(problem: str, x0_id: str, seed: int, mode: str) -> str:
    return f"{problem}__{x0_id}__seed{seed}__{mode}.jsonl"


def cmd_solve(args) -> int:
    eval_exe = args.eval_exe
    try:
        if eval_exe is not None and not Path(eval_exe).exists():
            raise ValueError(f"evaluator executable {eval_exe!r} does not exist")
        problem, _ = _resolve_problem(args.problem, eval_exe)
        if eval_exe is not None and not isinstance(problem.evaluator, ExternalEvaluator):
            # swap a builtin's analytic evaluator for the external executable
            problem = dataclasses.replace(
                problem, evaluator=ExternalEvaluator(eval_exe, problem.m, problem.p)
            )
        x0, x0_id = _resolve_x0(problem, args.x0, args.x0_file)
        config = SolverConfig(
            max_evaluations=args.budget,
            seed=args.seed,
            mode=args.mode,
            search_enabled=not args.no_search,
        )
        record = solve(problem, x0, config, x0_id=x0_id)
    except (InitializationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    history_path = out_dir / _history_filename(problem.name, x0_id, args.seed, args.mode)
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
    if args.check_invariants:
        violations, logged = check_run_invariants(record)
        machine["invariant_violations"] = violations
        machine["invariant_warnings"] = logged
    print(json.dumps(machine))
    print(summary_line(record))
    if args.check_invariants and machine["invariant_violations"]:
        for violation in machine["invariant_violations"]:
            print(f"invariant violation: {violation}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    try:
        if args.seeds is None:
            raise ValueError("--seeds is required for bench")
        seeds = _parse_list(args.seeds, int)
        if not seeds:
            raise ValueError("at least one seed is required")
        names = DEFAULT_BENCH_NAMES if args.problem is None else _parse_list(args.problem, str)
        problems = [builtin_problem(name)[0] for name in names]
        modes = _parse_list(args.mode, str)
        if args.workers is not None and args.workers < 1:
            raise ValueError("--workers must be at least 1")
        instances = make_instances(problems, args.x0_count, seeds)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
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
        base = SolverConfig(max_evaluations=args.budget, search_enabled=not args.no_search)
        records = run_matrix(pending, args.budget, max_workers=args.workers, base_config=base)
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


def cmd_profile(args) -> int:
    histories_dir = Path(args.histories)
    out_dir = histories_dir if args.out is None else Path(args.out)
    try:
        taus = _parse_list(args.tau, float)
    except ValueError as exc:
        print(f"error: --tau: {exc}", file=sys.stderr)
        return 2
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


def cmd_list(args) -> int:
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


def build_parser(defaults: Optional[Dict[str, object]] = None) -> argparse.ArgumentParser:
    """The CLI parser; ``defaults`` (from a config file) replace every
    subcommand's own defaults."""
    parser = argparse.ArgumentParser(prog="madspip")
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="run one instance and write its history")
    solve_p.add_argument("--problem")
    solve_p.add_argument("--x0", help="builtin id (e.g. feasible-0) or comma-separated vector")
    solve_p.add_argument("--x0-file")
    solve_p.add_argument("--seed", type=int, default=0)
    solve_p.add_argument("--budget", type=int, default=1000)
    solve_p.add_argument("--mode", choices=["pip", "extreme-barrier"], default="pip")
    solve_p.add_argument("--eval-exe", help="external blackbox executable")
    solve_p.add_argument("--no-search", action="store_true")
    solve_p.add_argument("--check-invariants", action="store_true")
    solve_p.add_argument("--out", default=".")

    bench_p = sub.add_parser("bench", help="run an instance x mode matrix")
    bench_p.add_argument("--problem", help="comma-separated builtin names (default: canonical suite)")
    bench_p.add_argument("--x0-count", type=int, default=2)
    bench_p.add_argument("--seeds", help="comma-separated seeds")
    bench_p.add_argument("--budget", type=int, default=1500)
    bench_p.add_argument("--mode", default="pip", help="comma-separated modes, e.g. pip,extreme-barrier")
    bench_p.add_argument("--no-search", action="store_true")
    bench_p.add_argument("--workers", type=int)
    bench_p.add_argument("--out", default="bench-out")

    profile_p = sub.add_parser("profile", help="compute profiles from stored histories")
    profile_p.add_argument("--histories", default="bench-out", help="directory of *.jsonl run histories")
    profile_p.add_argument("--tau", default="0.1,0.001", help="comma-separated precisions (default 0.1,0.001)")
    profile_p.add_argument("--out", help="output directory (default: the histories directory)")

    list_p = sub.add_parser("list", help="list builtin problems")

    for subparser in (solve_p, bench_p, profile_p, list_p):
        subparser.add_argument("--config")
        if defaults:
            subparser.set_defaults(**defaults)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.config:
        try:
            defaults = _config_defaults(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        args = build_parser(defaults).parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "bench": cmd_bench,
        "profile": cmd_profile,
        "list": cmd_list,
    }
    return handlers[args.command](args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
