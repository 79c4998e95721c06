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
import math
import os
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from .bench import (
    best_feasible_table,
    data_profile,
    export,
    feasibility_profile,
    reference_table,
    run_matrix,
    view_of_history,
    view_of_stop,
)
from .problem import ExternalEvaluator, read_history, read_stop_line, write_history
from .solver import (
    MODE_EXTREME_BARRIER,
    MODE_PIP,
    InitializationError,
    SolverConfig,
    check_run_invariants,
    solve,
    stop_line,
    summary_line,
)
from .suite import (
    DEFAULT_BENCH_NAMES,
    builtin_problem,
    builtin_problems,
    check_name_part,
    initial_point,
    is_builtin,
    load_problem_file,
    make_instances,
    read_key_values,
)

_CONFIG_KEYS = {
    "problem", "x0", "x0-file", "seed", "seeds", "budget", "mode", "tau",
    "out", "eval-exe", "no-search", "check-invariants", "x0-count", "workers",
}


def _read_config_file(path: str) -> Dict[str, str]:
    values = read_key_values(path, "config")
    for key in values:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
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
    """The problem of a builtin name, or of a path to a key=value problem definition file."""
    if name is None:
        raise ValueError("--problem is required")
    try:
        return builtin_problem(name)[0]
    except KeyError:
        pass
    if Path(name).is_file():
        return load_problem_file(name, eval_exe=eval_exe)
    raise ValueError(f"unknown problem {name!r} (not a builtin, not a definition file)")


def _resolve_x0(problem, x0: Optional[str], x0_file: Optional[str]):
    """``(point, x0 id)``: a file's numbers under the file's stem, or an
    ``--x0`` that is a literal point when every token is a float (``1e-3,0``)
    and a builtin id (``feasible-0``) otherwise."""
    if x0_file is not None:
        x0_id = check_name_part("x0 id (the --x0-file stem)", Path(x0_file).stem)
        text = Path(x0_file).read_text(encoding="utf-8")
        return tuple(_parse_list(text.replace("\n", ","), float)), x0_id
    if x0 is None:
        raise ValueError("one of --x0 or --x0-file is required")
    try:
        return tuple(_parse_list(x0, float)), "literal"
    except ValueError:
        return initial_point(problem, x0), x0


def _run_name(problem: str, x0_id: str, seed: int, mode: str) -> str:
    """The stem of a run's history, ``<name>.jsonl``."""
    return f"{problem}__{x0_id}__seed{seed}__{mode}"


def cmd_solve(args) -> int:
    eval_exe = args.eval_exe
    if eval_exe is not None and not Path(eval_exe).exists():
        raise ValueError(f"evaluator executable {eval_exe!r} does not exist")
    problem = _resolve_problem(args.problem, eval_exe)
    # a builtin's starting points hold when its evaluator is swapped out
    x0, x0_id = _resolve_x0(problem, args.x0, args.x0_file)
    if eval_exe is not None and not isinstance(problem.evaluator, ExternalEvaluator):
        # swap a builtin's analytic evaluator for the external executable
        problem = dataclasses.replace(
            problem, evaluator=ExternalEvaluator(eval_exe, problem.m, problem.p)
        )
    config = SolverConfig(
        max_evaluations=args.budget,
        seed=args.seed,
        mode=args.mode,
        search_enabled=not args.no_search,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the budget is spent
    record = solve(problem, x0, config, x0_id=x0_id)

    history_path = out_dir / f"{_run_name(problem.name, x0_id, args.seed, args.mode)}.jsonl"
    write_history(record.rows, history_path, stop_line(record, is_builtin(problem)))

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
    if args.seeds is None:
        raise ValueError("--seeds is required for bench")
    seeds = _parse_list(args.seeds, int)
    if not seeds:
        raise ValueError("at least one seed is required")
    names = DEFAULT_BENCH_NAMES if args.problem is None else _parse_list(args.problem, str)
    modes = _parse_list(args.mode, str)
    if not names or not modes:
        raise ValueError("at least one problem and one mode are required")
    problems = [builtin_problem(name)[0] for name in names]
    for mode in modes:  # a bad budget, mode or seed fails here, before any run
        for seed in seeds:
            SolverConfig(max_evaluations=args.budget, mode=mode, seed=seed)
    if args.workers is not None and args.workers < 1:
        raise ValueError("--workers must be at least 1")
    instances = make_instances(problems, args.x0_count, seeds)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = {}  # run name -> (instance, mode); a repeated seed or problem is one run
    for instance in instances:
        for mode in modes:
            name = _run_name(instance.problem.name, instance.x0_id, instance.seed, mode)
            runs.setdefault(name, (instance, mode))
    # a run is finished when its history is a file: write_history renames
    # it into place only when whole
    pending = [job for name, job in runs.items() if not (out_dir / f"{name}.jsonl").is_file()]
    skipped = len(runs) - len(pending)

    def _keep(key, record):
        # write each run as it finishes, so an interrupted bench keeps it; an
        # error run (it has no rows) leaves a 0-byte history
        stop = None if record.outcome == "error" else stop_line(record, builtin=True)
        write_history(record.rows, out_dir / f"{_run_name(*key)}.jsonl", stop)
        return summary_line(record), record.outcome

    results = run_matrix(
        pending, args.budget, search_enabled=not args.no_search, on_record=_keep,
    ) if pending else {}
    outcomes = sorted(results.items())  # (key, (summary line, outcome)) per run
    errors = sum(1 for _, (_, outcome) in outcomes if outcome == "error")
    completed = len(outcomes) - errors

    machine = {
        "command": "bench",
        "out": str(out_dir),
        "runs": len(runs),
        "completed": completed,
        "errors": errors,
        "skipped": skipped,
    }
    print(json.dumps(machine))
    for _, (line, _) in outcomes:
        print(line)
    print(
        f"bench: {completed} runs completed, {errors} errors, {skipped} skipped, "
        f"histories in {out_dir}"
    )
    if completed + skipped == 0:
        return 1
    return 0


def _parse_history_name(name: str):
    """The run key of a history that :func:`_run_name` names; a seed spelt
    any other way (``seed05``, ``seed+5``, non-ASCII digits) is refused, so
    no two files parse to one key, and so is any other part that
    :func:`check_name_part` refuses."""
    stem = name[: -len(".jsonl")] if name.endswith(".jsonl") else name
    parts = stem.split("__")
    seed = parts[2][4:] if len(parts) == 4 and parts[2].startswith("seed") else ""
    if not (seed.isascii() and seed.isdigit() and str(int(seed)) == seed):
        raise ValueError(f"history file name {name!r} does not encode a run key")
    for what, part in (("problem name", parts[0]), ("x0 id", parts[1]), ("mode", parts[3])):
        check_name_part(what, part)
    return parts[0], parts[1], int(seed), parts[3]


def cmd_profile(args) -> int:
    histories_dir = Path(args.histories)
    out_dir = histories_dir if args.out is None else Path(args.out)
    try:
        taus = _parse_list(args.tau, float)
    except ValueError as exc:
        raise ValueError(f"--tau: {exc}") from exc
    if not all(0.0 < tau < math.inf for tau in taus):
        raise ValueError("--tau: precisions must be positive and finite")
    stems = {}  # file stem -> tau; two taus that name one file would overwrite it
    for tau in taus:
        stem = f"data_profile_tau{tau:g}"
        if stem in stems:
            raise ValueError(f"--tau: {stems[stem]!r} and {tau!r} both name {stem}")
        stems[stem] = tau
    if not histories_dir.is_dir():
        raise ValueError(f"history directory {histories_dir} does not exist")
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before any read

    views = []
    warnings = []
    foreign = set()  # names whose stop line says the problem is not that builtin
    for path in sorted(histories_dir.glob("*.jsonl")):
        try:
            key = _parse_history_name(path.name)
            stop = read_stop_line(path)
            if stop is None:  # no stop line: a history of rows only
                views.append(view_of_history(read_history(path), *key))
            else:  # the stop line holds the view; the rows go unread
                view = view_of_stop(stop, *key)
                if view.count > path.stat().st_size:  # each evaluation writes 50+ bytes
                    raise ValueError(f"stop line: count {view.count} exceeds the file's bytes")
                views.append(view)
                if not stop["builtin"]:
                    foreign.add(key[0])
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            warnings.append(f"skipping {path.name}: {exc}")
    if not views:
        raise ValueError("no readable histories found")

    known = {
        problem.name: optimum.f_star
        for problem, optimum in builtin_problems()
        if problem.name not in foreign
    }
    f_star = best_feasible_table(views, known=known)
    f_ref = reference_table(views)
    written = []

    def _emit(curves, stem):
        csv_path = out_dir / f"{stem}.csv"
        svg_path = out_dir / f"{stem}.svg"
        export(curves, "csv", csv_path)
        export(curves, "svg", svg_path)
        written.extend([str(csv_path), str(svg_path)])

    for stem, tau in stems.items():
        _emit(data_profile(views, tau, f_star, f_ref), stem)
    _emit(feasibility_profile(views), "feasibility_profile")

    machine = {
        "command": "profile",
        "histories": len(views),
        "files": written,
        "warnings": warnings,
    }
    print(json.dumps(machine))
    for warning in warnings:
        # a file name may hold a lone surrogate, which UTF-8 cannot encode
        print(f"warning: {warning}".encode("utf-8", "backslashreplace").decode("utf-8"))
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
    solve_p.add_argument("--mode", choices=[MODE_PIP, MODE_EXTREME_BARRIER], default=MODE_PIP)
    solve_p.add_argument("--eval-exe", help="external blackbox executable")
    solve_p.add_argument("--no-search", action="store_true")
    solve_p.add_argument("--check-invariants", action="store_true")
    solve_p.add_argument("--out", default=".")

    bench_p = sub.add_parser("bench", help="run an instance x mode matrix")
    bench_p.add_argument("--problem", help="comma-separated builtin names (default: canonical suite)")
    bench_p.add_argument("--x0-count", type=int, default=2)
    bench_p.add_argument("--seeds", help="comma-separated seeds")
    bench_p.add_argument("--budget", type=int, default=1500)
    bench_p.add_argument("--mode", default=MODE_PIP, help="comma-separated modes, e.g. pip,extreme-barrier")
    bench_p.add_argument("--no-search", action="store_true")
    bench_p.add_argument(
        "--workers", type=int,
        help="checked (at least 1) but has no effect: runs go one at a time",
    )
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
    """Run one command.  Any failure a command raises (a bad option, file or
    run setting) is reported here, and only here: one ``error:`` line on
    stderr and exit 2."""
    args = build_parser().parse_args(argv)
    handlers = {  # read per call, so a wrapper set on a module attribute runs
        "solve": cmd_solve,
        "bench": cmd_bench,
        "profile": cmd_profile,
        "list": cmd_list,
    }
    try:
        if args.config:
            args = build_parser(_config_defaults(args.config)).parse_args(argv)
        return handlers[args.command](args)
    except BrokenPipeError:
        raise  # stdout closed early: ``entry`` exits 1 without a message
    except (InitializationError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early (``madspip bench ... | head -1``): files are
        # already written; point stdout at devnull so the flush at exit
        # cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
