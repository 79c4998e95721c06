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

A run varies only ``rho``, ``b_ext`` and the interior set ``g_int``, a
sorted tuple of inequality indices; every index not in it is exterior.
``b_int``, the starting ``rho``, the interior threshold of the starting
interior set and the constants of the ``rho`` update are the module constants
``B_INT``, ``RHO0``, ``EPS_EXT``, ``THETA_RHO``, ``BETA``, ``B_RHO`` and
``B_C``.  All operations here are pure functions of their arguments.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

__all__ = [
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


def merit(f: float, cint: float, cext: float, rho: float, b_ext: float) -> float:
    """Merit value of a point given its objective and violation measures.

    ``+inf`` outside the strict interior (``cint >= 0``), and the formula
    gives ``+inf`` whenever the objective itself is ``+inf``.  NaN never
    comes out of this function: callers sanitize raw outputs to ``+inf``
    beforehand, so no objective is ``-inf``.
    """
    if not cint < 0.0:
        return _INF
    barrier = B_INT * rho * math.log(-cint)
    return f - barrier + (b_ext / rho) * cext


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


def penalty_update_check(delta_next: float, phi_prox_val: float, rho: float) -> bool:
    """Whether the shrunken frame size is small enough to reduce ``rho``.

    Fires when ``delta_next <= min(b_rho * rho**beta, b_c * phi**2)``.  Meant
    to be called after an unsuccessful iteration only.  With no interior
    constraints ``phi_prox_val`` is ``-inf``, so the proximity term is
    ``+inf`` and the criterion reduces to its first argument.
    """
    term_rho = B_RHO * rho**BETA
    return delta_next <= min(term_rho, B_C * phi_prox_val * phi_prox_val)


def violation_summary(
    g: Sequence[float],
    h: Sequence[float],
    g_int: Tuple[int, ...],
    failed: bool = False,
) -> Tuple[float, float, float]:
    """``(phi_prox, c_int, c_ext)`` of one raw evaluation under the interior
    set ``g_int``, in one pass over ``g``: an index in ``g_int`` is interior,
    any other exterior.

    ``phi_prox`` is the largest interior value ``g_i`` (negative strictly
    inside, zero on the boundary, ``-inf`` when no constraint is interior).
    ``c_int`` lies in ``[-1, +inf)``: ``-prod(min(1, -g_i))`` over the
    interior values when ``phi_prox <= 0`` (``-1`` for an empty interior
    set), and ``phi_prox`` itself when some interior constraint is violated.
    ``c_ext`` is the sum of ``max(0, g_i)**2`` over the exterior values plus
    the sum of ``h_j**2``.  Both run in ascending index order.  ``+inf``
    inputs propagate; a failed evaluation gives ``+inf`` throughout.  The
    terms stay valid until ``g_int`` changes, and
    ``merit(f, c_int, c_ext, rho, b_ext)`` prices them under any ``rho``.
    """
    if failed:
        return (_INF, _INF, _INF)
    phi = -_INF
    prod = 1.0
    cext = 0.0
    for i, v in enumerate(g):
        if i in g_int:
            if v > phi:
                phi = v
            v = -v
            prod *= v if v < 1.0 else 1.0  # min(1.0, -v)
        elif v > 0.0:
            cext += v * v
    if not g_int:
        cint = -1.0
    elif phi > 0.0:
        cint = phi
    else:
        cint = -prod
    for v in h:
        cext += v * v
    return (phi, cint, cext)
