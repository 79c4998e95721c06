"""A/B timing of two madspip checkouts on the canonical solves, in one process.

    python tools/ab_solves.py PARENT_ROOT CHANGE_ROOT [--rounds N] [--seeds 5-8]

Each root's ``src/madspip`` is imported under its own package name, so both
trees run in the same interpreter and see the same machine state.  A round
runs the canonical matrix, the five default problems x 2 starting points x
the seeds x both modes at budget 1500 through each side's ``bench.run_matrix``,
once per side; the side that goes first alternates from round to round, and
each side's time is the CPU time of its matrix.  The tool prints each side's
median, the change/parent ratio of the medians and the median of the rounds'
own ratios, the rounds the change won and the SHA-256 over every run's key,
flags and events.  It exits 1 if the two sides' digests differ in any round.
"""

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

BUDGET = 1500
X0_PER_PROBLEM = 2


def load(root, name):
    """``root``'s ``src/madspip`` imported as the package ``name``."""
    package = Path(root) / "src" / "madspip"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def matrix(name, seeds):
    """The number of runs in the package ``name``'s canonical matrix, and a
    function that runs it and returns ``(evaluations, sha256 hex digest)``."""
    bench = importlib.import_module(f"{name}.bench")
    solver = importlib.import_module(f"{name}.solver")
    suite = importlib.import_module(f"{name}.suite")
    problems = [suite.builtin_problem(problem)[0] for problem in suite.DEFAULT_BENCH_NAMES]
    jobs = [
        (instance, mode)
        for instance in suite.make_instances(problems, X0_PER_PROBLEM, seeds)
        for mode in (solver.MODE_PIP, solver.MODE_EXTREME_BARRIER)
    ]

    def run():
        records = bench.run_matrix(jobs, BUDGET)
        digest = hashlib.sha256()
        for key, record in records.items():
            line = json.dumps([key, record.flags, record.events], separators=(",", ":"))
            digest.update(line.encode() + b"\n")
        return sum(record.evals_used for record in records.values()), digest.hexdigest()

    return len(jobs), run


def timed(run):
    """``(CPU seconds, evaluations, digest)`` of one call of ``run``."""
    gc.collect()  # the garbage of the side before is not collected on this side's clock
    start = time.process_time()
    evaluations, digest = run()
    return time.process_time() - start, evaluations, digest


def parse_seeds(text):
    """``"5-8"`` or ``"1,3,5"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("5-8"))
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sides = {}
    for side, root in (("parent", args.parent_root), ("change", args.change_root)):
        name = f"madspip_ab_{side}"
        load(root, name)
        runs, sides[side] = matrix(name, args.seeds)

    cpu = {"parent": [], "change": []}
    digests = {"parent": set(), "change": set()}
    evaluations = {}
    for round_ in range(args.rounds):
        order = ("parent", "change") if round_ % 2 == 0 else ("change", "parent")
        for side in order:
            seconds, evaluations[side], digest = timed(sides[side])
            cpu[side].append(seconds)
            digests[side].add(digest)

    won = sum(change < parent for parent, change in zip(cpu["parent"], cpu["change"]))
    for side in ("parent", "change"):
        median = statistics.median(cpu[side])
        print(
            f"{side}: median {median:.4f} s CPU over {args.rounds} rounds, {runs} runs, "
            f"{evaluations[side]} evaluations, {median / evaluations[side] * 1e6:.2f} us/eval, "
            f"sha256 {' '.join(sorted(digests[side]))}"
        )
    ratio = statistics.median(cpu["change"]) / statistics.median(cpu["parent"])
    paired = statistics.median(change / parent for parent, change in zip(cpu["parent"], cpu["change"]))
    print(
        f"change/parent median {ratio:.4f} (median of the rounds' ratios {paired:.4f}), "
        f"change faster in {won} of {args.rounds} rounds"
    )
    if len(digests["parent"] | digests["change"]) != 1:
        print("the event streams differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
