"""Compare two results files (parent, then change) written by ``run.py --out``.

For each (workload, metric) the report gives each side's median and
quartiles, the change-to-parent ratio with its base, the share of same-seed
pairs the change won, and a verdict (see ``stats.verdict``).  Runs pair up
by workload, trace setting and seed, in file order.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import spec
import stats


def load(path) -> Dict[Tuple[str, int], Dict[int, List[dict]]]:
    """``(workload, trace) -> seed -> [record, ...]`` in file order."""
    runs: Dict[Tuple[str, int], Dict[int, List[dict]]] = defaultdict(lambda: defaultdict(list))
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs[(record["workload"], record["trace"])][record["seed"]].append(record)
    return runs


def _values(by_seed: Dict[int, List[dict]], metric: str) -> List[float]:
    return [r["result"]["metrics"][metric]["value"] for runs in by_seed.values() for r in runs]


def _pairs(parent, change, metric: str) -> List[Tuple[float, float]]:
    pairs = []
    for seed in sorted(set(parent) & set(change)):
        for p, c in zip(parent[seed], change[seed]):
            pairs.append(
                (p["result"]["metrics"][metric]["value"], c["result"]["metrics"][metric]["value"])
            )
    return pairs


def _fmt(values: List[float]) -> str:
    q1, med, q3 = stats.quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent_runs, change_runs) -> List[str]:
    lines = []
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        parent, change = parent_runs[key], change_runs[key]
        lines.append(f"== {workload} (trace {trace}): parent {sum(map(len, parent.values()))} runs, "
                     f"change {sum(map(len, change.values()))} runs")
        lines.append(f"   {'metric':<40} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} "
                     f"{'change/parent (base)':<34} {'pairs won':<10} verdict")
        metrics = spec.PER_LAYER if trace else spec.END_TO_END
        for m in metrics:
            name = m["name"]
            p_vals, c_vals = _values(parent, name), _values(change, name)
            if not p_vals or not c_vals:
                continue
            pairs = _pairs(parent, change, name)
            verdict, facts = stats.verdict(
                p_vals, c_vals, pairs, m["better"] == "higher", m.get("bound")
            )
            p_med, c_med = stats.quartiles(p_vals)[1], stats.quartiles(c_vals)[1]
            ratio = f"{c_med / p_med:.4f} (of {p_med:.6g} {m['unit']})" if p_med else f"- (of 0 {m['unit']})"
            lines.append(
                f"   {name:<40} {_fmt(p_vals):<36} {_fmt(c_vals):<36} {ratio:<34} "
                f"{facts['wins']}/{facts['pairs']:<8} {verdict}"
            )
        for seed in sorted(set(parent) & set(change)):
            p_hash = parent[seed][0]["notes"]["history_sha256"]
            c_hash = change[seed][0]["notes"]["history_sha256"]
            same = "same" if p_hash == c_hash else f"CHANGED {p_hash[:12]} -> {c_hash[:12]}"
            lines.append(f"   seed {seed}: history sha256 {same}")
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare PARENT.jsonl CHANGE.jsonl")
        return 2
    for line in compare(load(argv[0]), load(argv[1])):
        print(line)
    return 0


def write_reference(argv: List[str], path: Path) -> int:
    """Record the history hash of each correct untraced run per seed."""
    if not argv:
        print("usage: run.py reference RESULTS.jsonl [...]")
        return 2
    reference = json.loads(path.read_text()) if path.is_file() else {}
    for results in argv:
        for (workload, trace), by_seed in load(results).items():
            for seed, runs in by_seed.items():
                for record in runs:
                    if not trace and record["result"]["correct"]:
                        reference.setdefault(workload, {})[str(seed)] = record["notes"]["history_sha256"]
    ordered = {w: dict(sorted(reference[w].items(), key=lambda kv: int(kv[0]))) for w in sorted(reference)}
    path.write_text(json.dumps(ordered, indent=2) + "\n", encoding="utf-8")
    return 0
