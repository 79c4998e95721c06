"""Frame/mesh geometry and the orthogonal 2n poll-direction generator.

Trial points live on the lattice ``x_k + delta_mesh * Z^n`` centred on the
incumbent, and polling is restricted to the frame of max-norm radius
``delta_frame``.  The mesh size couples quadratically to the frame size,
``delta_mesh = min(delta_frame, delta_frame**2 / delta0)``, so the set of
reachable normalized directions becomes dense on the unit sphere as the frame
shrinks.

The frame only ever halves or doubles, so every frame and mesh size is
``delta0`` times a power of two and a frame is its integer exponent ``exp``:
``delta_frame = delta0 * 2**exp`` and ``delta_mesh = delta0 *
2**mesh_exp(exp)``.  Step arithmetic is integer arithmetic, free of
floating-point drift: point identity reduces to integer-step identity.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "update_frame",
    "poll_directions",
    "snap_steps",
    "initial_frame_size",
]

# Largest frame exponent: growth stops before delta_frame would exceed
# 1000 * delta0 (2**9 = 512 <= 1000 < 1024).
FRAME_CAP_EXP = 9


def mesh_exp(exp: int) -> int:
    """The mesh exponent of the frame exponent ``exp``, so that
    ``delta_mesh = min(delta_frame, delta_frame**2/delta0)``."""
    return min(exp, 2 * exp)


def update_frame(exp: int, success: bool) -> int:
    """The frame exponent after an iteration: grown after a success, shrunk
    after a failure.

    Growth past ``FRAME_CAP_EXP`` is skipped (the exponent is returned
    unchanged), which bounds the frame by ``1000 * delta0``.
    """
    if not success:
        return exp - 1
    return exp + 1 if exp < FRAME_CAP_EXP else exp


def poll_directions(n: int, exp: int, rng: np.random.Generator) -> list:
    """Generate 2n poll step vectors on the mesh, closed under negation.

    A random unit vector defines a Householder basis; each column is scaled
    to max-norm ``delta_frame`` of the frame exponent ``exp``, its
    coordinates are rounded toward zero onto the mesh, and the negated set is
    appended.  Every direction keeps at
    least one coordinate of magnitude ``delta_frame`` (exact on the leading
    coordinate), and all trial points stay inside the frame.  Each direction
    is a tuple of integer steps of size ``delta_mesh``.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    radius = float(1 << (exp - mesh_exp(exp)))  # frame radius in mesh steps

    v = rng.standard_normal(n)
    norm = math.sqrt(v.dot(v))  # what np.linalg.norm computes for a real vector
    while norm < 1e-12:  # essentially never; keeps the basis well defined
        v = rng.standard_normal(n)
        norm = math.sqrt(v.dot(v))
    u = [vi / norm for vi in v.tolist()]

    # The Householder basis I - 2 u u^T, one row at a time, in the operation
    # order numpy uses for it: (u_i * u_j), doubled, subtracted from the
    # identity (off the diagonal, -2.0 * p and 0.0 - 2.0 * p differ at most
    # in the sign of a zero, which truncation erases).  The basis is
    # symmetric, so row j is column j; scaled by its largest magnitude, its
    # leading coordinate becomes exactly +-1.
    step_sets = []
    negated = []
    for j, uj in enumerate(u):
        row = [-2.0 * (ui * uj) for ui in u]
        row[j] = 1.0 - 2.0 * (uj * uj)
        scale = max(map(abs, row))
        steps = [int(b / scale * radius) for b in row]  # int() truncates
        step_sets.append(tuple(steps))
        negated.append(tuple([-s for s in steps]))
    return step_sets + negated


def snap_steps(offset: Sequence[int], step: int) -> Tuple[int, ...]:
    """Nearest mesh point to an integer displacement, in mesh steps.

    ``offset`` and the mesh size ``step`` are integers in one common unit;
    each coordinate rounds to the nearest multiple of ``step``, ties away
    from zero.  Idempotent on multiples of ``step``.
    """
    if step < 1:
        raise ValueError("mesh step must be a positive integer")
    twice = 2 * step
    return tuple(
        [(2 * q + step) // twice if q >= 0 else -((step - 2 * q) // twice) for q in offset]
    )


def initial_frame_size(bounds: Optional[Tuple[Sequence[float], Sequence[float]]]) -> float:
    """Default initial frame size: 1 without bounds, otherwise the geometric
    mean of one tenth of each coordinate span."""
    if bounds is None:
        return 1.0
    lower, upper = bounds
    spans = [u - l for l, u in zip(lower, upper)]
    if any(s <= 0.0 for s in spans):
        raise ValueError("bounds must have positive span in every coordinate")
    log_sum = 0.0
    for s in spans:  # left to right: from 3.12 on, sum() of floats is compensated
        log_sum += math.log(s / 10.0)
    return math.exp(log_sum / len(spans))
