"""Merit function built from a log-barrier on interior constraints and a
quadratic penalty on exterior constraints, sharing one parameter ``rho``.

Inequality constraints are split into two index sets.  Those in the interior
set are aggregated into a single violation measure ``c_int`` and kept strictly
feasible through a thresholded logarithm; the remaining inequalities and all
equalities are penalized quadratically through ``c_ext``.  The merit value is

    z = f - b_int * rho * log(-c_int) + (b_ext / rho) * c_ext

whenever ``c_int < 0`` and ``+inf`` otherwise.  Driving ``rho`` to zero drives
the merit toward ``f`` on points that are strictly interior-feasible and
exterior-feasible, and toward ``+inf`` everywhere else.

A run varies only ``rho`` and ``b_ext`` (:class:`MeritParams`).  ``b_int``,
the starting ``rho``, the interior threshold of the starting partition and
the constants of the ``rho`` update are the module constants ``B_INT``,
``RHO0``, ``EPS_EXT``, ``THETA_RHO``, ``BETA``, ``B_RHO`` and ``B_C``.  All
operations here are pure functions of their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

__all__ = [
    "Partition",
    "MeritParams",
    "merit",
    "compute_b_ext",
    "penalty_update_check",
    "violation_summary",
]

_INF = math.inf

#: Barrier scaling.  The log threshold is fixed to 1, which keeps the
#: barrier term nonnegative on [-1, 0).
B_INT = 1.0
#: ``rho`` at the start of every run.
RHO0 = 1e-1
#: Factor by which ``rho`` shrinks whenever the update criterion fires.
THETA_RHO = 1e-2
#: ``beta``, ``b_rho`` and ``b_c`` relax the update criterion.
BETA = 1.0 + 1e-9
B_RHO = 10.0
B_C = 1e10
#: An inequality is interior (barrier-treated) once ``g <= -EPS_EXT``.
EPS_EXT = 1e-14


@dataclass(frozen=True)
class Partition:
    """Disjoint split of the inequality-constraint indices ``0..m-1``.

    ``g_int`` holds the indices treated by the log barrier, ``g_ext`` the
    indices penalized quadratically, each as a sorted tuple.  Together they
    must cover ``range(m)``.
    """

    g_int: Tuple[int, ...]
    g_ext: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "g_int", tuple(sorted(self.g_int)))
        object.__setattr__(self, "g_ext", tuple(sorted(self.g_ext)))
        if sorted(self.g_int + self.g_ext) != list(range(self.m)):
            raise ValueError("g_int and g_ext must partition range(m)")

    @property
    def m(self) -> int:
        return len(self.g_int) + len(self.g_ext)

    @staticmethod
    def from_initial(g_values: Sequence[float]) -> "Partition":
        """Partition by the starting point: indices with ``g <= -EPS_EXT``
        are safely interior and go to ``g_int``, everything else to ``g_ext``.
        """
        g_int = [i for i, v in enumerate(g_values) if v <= -EPS_EXT]
        g_ext = [i for i, v in enumerate(g_values) if not v <= -EPS_EXT]
        return Partition(g_int, g_ext)

    def moved_to_interior(self, indices: Iterable[int]) -> "Partition":
        """New partition with ``indices`` moved from g_ext to g_int."""
        moved = frozenset(indices)
        if not moved <= frozenset(self.g_ext):
            raise ValueError("can only move indices currently in g_ext")
        return Partition(self.g_int + tuple(moved), [i for i in self.g_ext if i not in moved])


@dataclass(frozen=True)
class MeritParams:
    """What a run varies in the merit: the penalty-barrier parameter ``rho``
    and the exterior scaling ``b_ext``, fixed per run from ``|f(x0)|``.
    Every other constant is a module constant."""

    rho: float
    b_ext: float = 1.0

    def __post_init__(self):
        if not (self.rho > 0.0):
            raise ValueError("rho must be positive")
        if not (self.b_ext > 0.0):
            raise ValueError("b_ext must be positive")


def merit(f: float, cint: float, cext: float, params: MeritParams) -> float:
    """Merit value of a point given its objective and violation measures.

    ``+inf`` outside the strict interior (``cint >= 0``) and whenever the
    objective itself is ``+inf``; finite otherwise.  NaN never comes out of
    this function: callers sanitize raw outputs to ``+inf`` beforehand.
    """
    if not cint < 0.0:
        return _INF
    if math.isinf(f):
        return _INF
    barrier = B_INT * params.rho * math.log(-cint)
    return f - barrier + (params.b_ext / params.rho) * cext


def compute_b_ext(f0: float) -> float:
    """Exterior scaling from the objective at the starting point.

    A power of ten matching the order of magnitude of ``|f0|``, floored at 1,
    so the penalty term contributes on the same scale as the objective.
    """
    if not math.isfinite(f0):
        raise ValueError("b_ext needs a finite objective at the starting point")
    if f0 == 0.0:
        return 1.0
    return max(1.0, 10.0 ** math.floor(math.log10(abs(f0))))


def penalty_update_check(delta_next: float, phi_prox_val: float, params: MeritParams) -> bool:
    """Whether the shrunken frame size is small enough to reduce ``rho``.

    Fires when ``delta_next <= min(b_rho * rho**beta, b_c * phi**2)``.  Meant
    to be called after an unsuccessful iteration only.  With no interior
    constraints ``phi_prox_val`` is ``-inf``, so the proximity term is
    ``+inf`` and the criterion reduces to its first argument.
    """
    term_rho = B_RHO * params.rho**BETA
    return delta_next <= min(term_rho, B_C * phi_prox_val * phi_prox_val)


def violation_summary(
    g: Sequence[float],
    h: Sequence[float],
    partition: Partition,
    failed: bool = False,
) -> Tuple[float, float, float]:
    """``(phi_prox, c_int, c_ext)`` of one raw evaluation under a partition,
    in one pass per index set.

    ``phi_prox`` is the largest interior value ``g_i`` (negative strictly
    inside, zero on the boundary, ``-inf`` when no constraint is interior).
    ``c_int`` lies in ``[-1, +inf)``: ``-prod(min(1, -g_i))`` over the
    interior values when ``phi_prox <= 0`` (``-1`` for an empty interior
    set), and ``phi_prox`` itself when some interior constraint is violated.
    ``c_ext`` is the sum of ``max(0, g_i)**2`` over the exterior values plus
    the sum of ``h_j**2``.  ``+inf`` inputs propagate; a failed evaluation
    gives ``+inf`` throughout.  The terms stay valid until the partition
    changes, and ``merit(f, c_int, c_ext, params)`` prices them under any
    ``rho``.
    """
    if failed:
        return (_INF, _INF, _INF)
    phi = -_INF
    prod = 1.0
    for i in partition.g_int:
        v = g[i]
        if v > phi:
            phi = v
        v = -v
        prod *= v if v < 1.0 else 1.0  # min(1.0, -v)
    if not partition.g_int:
        cint = -1.0
    elif phi > 0.0:
        cint = phi
    else:
        cint = -prod
    cext = 0.0
    for i in partition.g_ext:
        v = g[i]
        if v > 0.0:
            cext += v * v
    for v in h:
        cext += v * v
    return (phi, cint, cext)
