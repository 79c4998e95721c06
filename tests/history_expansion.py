"""A compact history expanded back to the layouts histories held before: the
8-key rows of frame-line histories get ``iteration`` back from the frame line
before them and ``incumbent`` from their status, and the 12-key rows of
histories before frame lines get ``rho`` and ``delta_frame`` from that frame
line too, with ``cint`` and ``cext`` recomputed from their own ``g`` and ``h``
under its interior set.  Iteration entries are rebuilt from the frames and
rows alone, to the 12 keys they held before frames: a test-side reference
reader, written apart from ``check_run_invariants``'s replay.  A helper for
the tests that hold the compact form to the pins of the full one."""

import json
import math

from madspip.merit import (
    B_C, B_INT, B_RHO, BETA, EPS_EXT, RHO0, THETA_RHO, compute_b_ext, merit,
    violation_summary,
)
from madspip.problem import Evaluation, is_feasible

FULL_ROW_KEYS = (
    "eval_index", "x", "f", "g", "h", "cint", "cext", "rho",
    "delta_frame", "incumbent", "iteration", "status",
)

EIGHT_ROW_KEYS = ("eval_index", "x", "f", "g", "h", "incumbent", "iteration", "status")

FULL_ENTRY_KEYS = (
    "iteration", "success", "kind", "incumbent_eval_index", "incumbent_merit",
    "incumbent_cint", "rho_before", "rho", "delta_frame", "delta_next", "phi_prox",
    "partition_moved",
)


def _failed(row):
    # a run stores +inf only for a failed evaluation's outputs
    return row["f"] == math.inf or math.inf in row["g"] or math.inf in row["h"]


def _terms(row, frame):
    """``(phi_prox, c_int, c_ext)`` of an evaluated row under the frame's
    interior set."""
    return violation_summary(row["g"], row["h"], frame["g_int"], _failed(row))


def with_row_keys(lines):
    """The lines of a history, in memory or read back, with each row given
    back the ``incumbent`` and ``iteration`` keys that rows held before they
    held only their evaluation's facts, at their old positions: ``iteration``
    is the preceding frame line's ``frame``, and ``incumbent`` holds for the
    start row (the row after frame 0) and every ``*-success`` row.  Other
    lines pass unchanged, so event indices stay."""
    out = []
    k = None
    for line in lines:
        if "frame" in line:
            k = line["frame"]
        elif "eval_index" in line:
            row = dict(line, incumbent=k == 0 or line["status"].endswith("-success"), iteration=k)
            line = {key: row[key] for key in EIGHT_ROW_KEYS}
        out.append(line)
    return out


def expand(lines):
    """The lines of a history, in memory or read back, with each frame line
    dropped and each row expanded to the full row; other lines (the stop
    line) pass unchanged."""
    out = []
    frame = None
    for line in with_row_keys(lines):
        if "frame" in line:
            frame = line
            continue
        if "eval_index" not in line:
            out.append(line)
            continue
        cint = cext = None
        if frame["g_int"] is not None and line["eval_index"] is not None:
            _, cint, cext = _terms(line, frame)
        row = dict(line, cint=cint, cext=cext, rho=frame["rho"], delta_frame=frame["delta_frame"])
        out.append({key: row[key] for key in FULL_ROW_KEYS})
    return out


def params_of(record):
    """The nine run parameters that records held before the replay took
    them from the start row and ``merit``'s constants, for a pip run, and
    ``None`` otherwise."""
    if record.mode != "pip":
        return None
    start = record.rows[0]
    return {
        "rho0": RHO0,
        "theta_rho": THETA_RHO,
        "beta": BETA,
        "b_rho": B_RHO,
        "b_c": B_C,
        "b_int": B_INT,
        "b_ext": compute_b_ext(start["f"]),
        "eps_ext": EPS_EXT,
        "m": len(start["g"]),
    }


def expand_iterations(record):
    """A record's iteration entries with the full entry keys, one per
    completed iteration ``k``, rebuilt from ``frames[k]``, ``frames[k + 1]``
    and the rows: the success is the iteration's ``*-success`` row, and a
    ``rho`` cut or partition move re-picks the incumbent as the earliest
    minimizer, under the next frame, of every evaluation so far.  ``b_ext``
    comes from the start row's ``f``."""
    frames, pip = record.frames, record.mode == "pip"
    rows = [line for line in with_row_keys(record.events) if "eval_index" in line]
    b_ext = compute_b_ext(rows[0]["f"]) if rows else None
    evaluations = []  # each evaluation's first row, in evaluation order
    successes = {}
    for row in rows:
        if row["eval_index"] == len(evaluations):
            evaluations.append(row)
        if row["status"].endswith("-success"):
            successes[row["iteration"]] = row

    def price(row, frame):
        if not pip:
            evaluation = Evaluation(row["x"], row["f"], row["g"], row["h"], row["eval_index"], _failed(row))
            return row["f"] if is_feasible(evaluation) else math.inf
        _, cint, cext = _terms(row, frame)
        return merit(row["f"], cint, cext, frame["rho"], b_ext)

    out = []
    incumbent = rows[0] if rows else None
    for k in range(1, len(frames) - 1):
        before, after = frames[k], frames[k + 1]
        success = successes.get(k)
        if success is not None:
            incumbent = success
        phi = _terms(incumbent, before)[0] if pip and success is None else None
        moved = [i for i in after["g_int"] if i not in before["g_int"]] if pip else []
        if pip and (after["rho"] != before["rho"] or moved):
            known = [row for row in evaluations if row["iteration"] <= k]
            merits = [price(row, after) for row in known]
            if min(merits) < math.inf:
                incumbent = known[merits.index(min(merits))]
        out.append({
            "iteration": k,
            "success": success is not None,
            "kind": None if success is None else success["status"].split("-")[0],
            "incumbent_eval_index": incumbent["eval_index"],
            "incumbent_merit": price(incumbent, after),
            "incumbent_cint": _terms(incumbent, after)[1] if pip else None,
            "rho_before": before["rho"],
            "rho": after["rho"],
            "delta_frame": before["delta_frame"],
            "delta_next": after["delta_frame"],
            "phi_prox": phi,
            "partition_moved": moved,
        })
    return out


def _rewritten(data, layout):
    lines = [json.loads(text) for text in data.decode("utf-8").splitlines() if text.strip()]
    return b"".join(
        json.dumps(line, separators=(",", ":")).encode() + b"\n" for line in layout(lines)
    )


def expanded_bytes(data: bytes) -> bytes:
    """A history file's bytes as the full-row writer wrote them."""
    return _rewritten(data, expand)


def bytes_with_row_keys(data: bytes) -> bytes:
    """A history file's bytes as the 8-key row writer wrote them, frame and
    stop lines included."""
    return _rewritten(data, with_row_keys)
