"""Built-in analytic test problems with provable optima, plus deterministic
instance generation (problem x starting point x seed).

Every problem carries a bound box on which it evaluates without failure, one
family of strictly feasible starting points and one family of strictly
infeasible ones (reflections across an active constraint boundary), all drawn
from generators seeded by the problem name and the starting-point id.
External problems plug in through a flat key=value definition file pointing
at an executable evaluator.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .problem import ExternalEvaluator, Problem
from .stream import Stream

__all__ = [
    "Instance",
    "builtin_problems",
    "builtin_problem",
    "DEFAULT_BENCH_NAMES",
    "initial_point",
    "make_instances",
    "load_problem_file",
]


@dataclass(frozen=True)
class KnownOptimum:
    f_star: float


@dataclass(frozen=True)
class Instance:
    """One benchmark unit: a problem, a starting point and a seed."""

    problem: Problem
    x0_id: str
    x0: Tuple[float, ...]
    seed: int


def _unit_disk(x):
    return x[0] + x[1], (x[0] * x[0] + x[1] * x[1] - 1.0,), ()


def _fold(values) -> float:
    """``values`` added left to right: the same bytes on every Python (from
    3.12 on, ``sum()`` of floats is compensated)."""
    total = 0.0
    for v in values:
        total += v
    return total


def _sphere_eq(x):
    return _fold(v * v for v in x), (), (_fold(x) - 1.0,)


def _mixed_kkt(x):
    return _fold(v * v for v in x), (x[0] - 0.2,), (_fold(x) - 1.0,)


def _maxabs_lin(x):
    return max(abs(x[0]), abs(x[1])), (1.0 - x[0] - x[1],), ()


def _two_ring(x):
    r2 = x[0] * x[0] + x[1] * x[1]
    return x[1], (1.0 - r2, r2 - 4.0), ()


def _box(lo: float, hi: float, n: int):
    return ((lo,) * n, (hi,) * n)


_SQRT2 = math.sqrt(2.0)

# Boxes are sized commensurate with each feasible region (the initial frame
# rule takes one tenth of the span, so oversized boxes throw away mesh
# resolution without adding reachable feasible territory).
_BUILTINS: List[Tuple[Problem, KnownOptimum]] = [
    (
        Problem("unit-disk", 2, 1, 0, _unit_disk, _box(-1.1, 1.1, 2)),
        KnownOptimum(-_SQRT2),  # linear objective over the unit disk; optimum at -(1,1)/sqrt(2)
    ),
    (
        Problem("sphere-eq", 5, 0, 1, _sphere_eq, _box(-0.2, 0.95, 5)),
        KnownOptimum(0.2),  # squared norm on the plane sum(x)=1; optimum x_i = 1/5 by symmetry
    ),
    (
        Problem("sphere-eq-3", 3, 0, 1, _sphere_eq, _box(-0.2, 0.95, 3)),
        KnownOptimum(1.0 / 3.0),  # squared norm on the plane sum(x)=1; optimum x_i = 1/3
    ),
    (
        Problem("mixed-kkt", 3, 1, 1, _mixed_kkt, _box(-0.25, 1.1, 3)),
        KnownOptimum(0.36),  # active bound x_1 = 0.2, remaining mass split equally: (0.2, 0.4, 0.4)
    ),
    (
        Problem("maxabs-lin", 2, 1, 0, _maxabs_lin, _box(-2.0, 2.0, 2)),
        KnownOptimum(0.5),  # nonsmooth max-abs objective on the half-plane x_1+x_2 >= 1; optimum (0.5, 0.5)
    ),
    (
        Problem("two-ring", 2, 2, 0, _two_ring, _box(-2.05, 2.05, 2)),
        KnownOptimum(-2.0),  # lowest point of the annulus 1 <= |x| <= 2 is (0, -2)
    ),
]

#: Canonical five-problem benchmark set used by the CLI by default
#: (the n=3 equality variant is an extra, not part of the default matrix).
DEFAULT_BENCH_NAMES = ("unit-disk", "sphere-eq", "mixed-kkt", "maxabs-lin", "two-ring")


def builtin_problems() -> List[Tuple[Problem, KnownOptimum]]:
    return list(_BUILTINS)


class _UnknownProblem(KeyError):
    __str__ = BaseException.__str__  # a plain KeyError prints its message's repr


def builtin_problem(name: str) -> Tuple[Problem, KnownOptimum]:
    for problem, optimum in _BUILTINS:
        if problem.name == name:
            return problem, optimum
    raise _UnknownProblem(f"no builtin problem named {name!r}")


def is_builtin(problem: Problem) -> bool:
    """Whether ``problem`` is a builtin, evaluator and bounds included: a
    problem file may take a builtin's name, and ``solve --eval-exe`` swaps
    a builtin's evaluator out."""
    return any(problem == builtin for builtin, _ in _BUILTINS)


def _x0_rng(problem_name: str, x0_id: str) -> Stream:
    digest = hashlib.blake2b(f"{problem_name}:{x0_id}".encode(), digest_size=8).digest()
    return Stream(int.from_bytes(digest, "big"))


def _disk_point(rng, feasible: bool):
    r = 0.05 + 0.85 * rng.random()
    if not feasible:
        r = 2.0 - (0.92 + 0.06 * rng.random())  # mirror image of a near-boundary radius
    angle = 2.0 * math.pi * rng.random()
    return (r * math.cos(angle), r * math.sin(angle))


def _plane_point(rng, n: int, feasible: bool):
    y = rng.uniform(-0.1, 0.3, size=n)
    shift = (1.0 - _fold(y)) / n
    x = [v + shift for v in y]
    if not feasible:
        offset = rng.uniform(0.2, 0.32) / math.sqrt(n)
        x = [v + offset for v in x]
    return tuple(x)


def _mixed_point(rng, feasible: bool):
    x1 = rng.uniform(-0.2, 0.1)
    rest = 1.0 - x1
    t = rng.uniform(-0.25, 0.25)
    x = [x1, rest / 2.0 + t, rest / 2.0 - t]
    if not feasible:
        offset = rng.uniform(0.2, 0.32) / math.sqrt(3.0)
        x = [v + offset for v in x]
    return tuple(x)


def _halfplane_point(rng, feasible: bool):
    s = rng.uniform(1.1, 2.0)
    t = rng.uniform(-0.7, 0.7)
    if not feasible:
        s = 2.0 - s  # reflected sum falls strictly below the constraint line
    return (s / 2.0 + t, s / 2.0 - t)


def _ring_point(rng, feasible: bool):
    r = rng.uniform(1.05, 1.9)
    if not feasible:
        r = 2.0 - r  # lands inside the inner hole
    angle = 2.0 * math.pi * rng.random()
    return (r * math.cos(angle), r * math.sin(angle))


_SAMPLERS: Dict[str, Callable] = {
    "unit-disk": _disk_point,
    "sphere-eq": lambda rng, feas: _plane_point(rng, 5, feas),
    "sphere-eq-3": lambda rng, feas: _plane_point(rng, 3, feas),
    "mixed-kkt": _mixed_point,
    "maxabs-lin": _halfplane_point,
    "two-ring": _ring_point,
}


def initial_point(problem: Problem, x0_id: str) -> Tuple[float, ...]:
    """Deterministic starting point for (problem, x0_id), inside its bounds.

    Ids look like ``feasible-0`` or ``infeasible-1``.  A builtin problem gets
    its bespoke sampler, which stays strictly inside its box.  Every other
    problem, a problem file named like a builtin included, gets a uniform
    draw in its bound box (or in ``[-1, 1]^n`` without bounds) regardless of
    the requested kind.
    """
    kind, _, index = x0_id.partition("-")
    if kind not in ("feasible", "infeasible") or not index.isdigit():
        raise ValueError(f"malformed x0 id {x0_id!r}; expected e.g. 'feasible-0'")
    rng = _x0_rng(problem.name, x0_id)
    sampler = _SAMPLERS.get(problem.name)
    if sampler is not None and is_builtin(problem):
        return sampler(rng, kind == "feasible")
    if problem.bounds is None:
        return tuple(rng.uniform(-1.0, 1.0, size=problem.n))
    lower, upper = problem.bounds
    # a draw l + (u - l) * r never rounds below l, but can round past u
    return tuple(min(rng.uniform(l, u), u) for l, u in zip(lower, upper))


def x0_ids(count: int) -> List[str]:
    """Alternating feasible/infeasible ids: feasible-0, infeasible-0, ..."""
    ids = []
    for i in range(count):
        kind = "feasible" if i % 2 == 0 else "infeasible"
        ids.append(f"{kind}-{i // 2}")
    return ids


def make_instances(
    problems: Sequence[Problem], x0_per_problem: int, seeds: Sequence[int]
) -> List[Instance]:
    """Cartesian product problems x starting points x seeds, deterministically."""
    if len(seeds) == 0:
        raise ValueError("at least one seed is required")
    if x0_per_problem < 1:
        raise ValueError("x0_per_problem must be at least 1")
    instances = []
    for problem in problems:
        for x0_id in x0_ids(x0_per_problem):
            x0 = initial_point(problem, x0_id)
            for seed in seeds:
                instances.append(Instance(problem, x0_id, x0, int(seed)))
    return instances


def check_name_part(what: str, value: str) -> str:
    """``value``, if it can stand as one ``__``-separated part of a history
    file name (``<problem>__<x0 id>__seed<N>__<mode>.jsonl``); problem names
    and starting-point ids both obey this rule.

    A part is nonempty, holds no ``__``, path separator, whitespace or
    unprintable character (a control character, or the lone surrogate that
    stands for a file-name byte that is not UTF-8), does not start with
    ``.`` (a hidden or relative path) and does not end with ``_``, which
    would run into the next separator.  ``ValueError`` names ``what``
    otherwise.
    """
    if (
        not value
        or value.startswith(".")
        or value.endswith("_")
        or "__" in value
        # every whitespace character but " " is unprintable
        or any(c in "/\\ " or not c.isprintable() for c in value)
    ):
        raise ValueError(f"{what} {value!r} cannot name a history file")
    return value


def read_key_values(path, what: str) -> Dict[str, str]:
    """The ``key = value`` lines of a flat file, both sides stripped; blank
    lines and ``#`` comments are skipped, a later key wins, and a line
    without ``=`` raises ``ValueError`` naming the file as ``what``."""
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed {what} line: {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def load_problem_file(path, eval_exe: Optional[str] = None) -> Problem:
    """Read a problem from a flat key=value definition file.

    Keys: ``name``, ``n``, ``m``, ``p``, optional ``lower``/``upper``
    (comma-separated), and ``evaluator`` (path to an executable speaking the
    one-line stdin/stdout protocol).  An ``evaluator`` path holding a ``/``
    that is not absolute resolves against the definition file's directory;
    a bare name stays a ``PATH`` lookup.  ``eval_exe`` overrides the file's
    evaluator path and is passed on as given.  The name becomes part of
    history file names, so it must pass :func:`check_name_part`.
    """
    fields = read_key_values(path, "problem definition")
    try:
        name = fields["name"]
        n = int(fields["n"])
        m = int(fields["m"])
        p = int(fields["p"])
    except KeyError as exc:
        raise ValueError(f"problem definition misses required key {exc}") from exc
    check_name_part("problem name", name)
    bounds = None
    if ("lower" in fields) != ("upper" in fields):
        raise ValueError("problem definition needs both lower and upper bounds, or neither")
    if "lower" in fields:
        lower = tuple(float(v) for v in fields["lower"].split(","))
        upper = tuple(float(v) for v in fields["upper"].split(","))
        bounds = (lower, upper)
    exe = eval_exe or fields.get("evaluator")
    if exe is None:
        raise ValueError("problem definition needs an evaluator (or pass --eval-exe)")
    if not eval_exe and "/" in exe and not os.path.isabs(exe):
        exe = os.path.abspath(os.path.join(os.path.dirname(path), exe))
    return Problem(name, n, m, p, ExternalEvaluator(exe, m, p), bounds)
