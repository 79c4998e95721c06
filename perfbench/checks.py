"""Output checks on run histories, independent of the package's own code.

A history is the list of row dicts one run writes.  Rows with a null
``eval_index`` (bound rejections) spent no budget; cache hits repeat an
earlier ``eval_index``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

#: Relative distance to ``f*`` within which a run counts as solved.
SOLVED_REL_TOL = 1e-3
#: How far a feasible row may undercut ``f*``; the relaxed equality
#: tolerance allows a few 1e-9 and no more.
UNDERCUT_TOL = 1e-6
EQ_TOL = 1e-8


def feasible(row: dict) -> bool:
    if row.get("status") == "failed" or row.get("f") is None:
        return False
    return all(v <= 0.0 for v in row.get("g") or []) and all(
        abs(v) < EQ_TOL for v in row.get("h") or []
    )


def distinct_evals(rows: Iterable[dict]) -> int:
    """Budget-spending evaluations: distinct non-null ``eval_index`` values."""
    return len({row["eval_index"] for row in rows if row.get("eval_index") is not None})


def evals_to_solve(rows: Iterable[dict], f_star: float) -> Optional[int]:
    """1 + ``eval_index`` of the first feasible row within
    ``SOLVED_REL_TOL * max(1, |f*|)`` of ``f*``; ``None`` when unsolved."""
    threshold = SOLVED_REL_TOL * max(1.0, abs(f_star))
    for row in rows:
        index = row.get("eval_index")
        if index is not None and feasible(row) and abs(row["f"] - f_star) <= threshold:
            return index + 1
    return None


def undercuts(rows: Iterable[dict], f_star: float) -> List[int]:
    """Indices of feasible rows whose ``f`` lies below ``f*`` by more than
    ``UNDERCUT_TOL``: a certified optimum cannot be beaten."""
    return [
        i for i, row in enumerate(rows) if feasible(row) and row["f"] < f_star - UNDERCUT_TOL
    ]


def read_rows(data: bytes) -> List[dict]:
    return [json.loads(line) for line in data.decode("utf-8").splitlines() if line.strip()]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_files(paths: Iterable[Path]) -> Dict[str, str]:
    """SHA-256 of each file's bytes, keyed by file name."""
    return {path.name: sha256(path.read_bytes()) for path in paths}


def combined_digest(digests: Dict[str, str]) -> str:
    """One SHA-256 over ``name digest`` lines in name order."""
    text = "".join(f"{name} {digests[name]}\n" for name in sorted(digests))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
