"""A compact history expanded back to the 12-key rows that histories held
before frame lines: each row gets ``rho`` and ``delta_frame`` from the frame
line before it, and ``cint`` and ``cext`` recomputed from its own ``g`` and
``h`` under that frame's interior set.  Iteration entries expand the same
way, to the 12 keys they held before frames: ``rho_before`` and
``delta_frame`` are the iteration's frame's, and ``rho`` and ``delta_next``
the next frame's, the state the iteration left.  A helper for the tests that
hold the compact form to the pins of the full one."""

import json
import math

from madspip.merit import Partition, violation_summary

FULL_ROW_KEYS = (
    "eval_index", "x", "f", "g", "h", "cint", "cext", "rho",
    "delta_frame", "incumbent", "iteration", "status",
)

FULL_ENTRY_KEYS = (
    "iteration", "success", "kind", "incumbent_eval_index", "incumbent_merit",
    "incumbent_cint", "rho_before", "rho", "delta_frame", "delta_next", "phi_prox",
    "partition_moved",
)


def expand(lines):
    """The lines of a history, in memory or read back, with each frame line
    dropped and each row expanded to the full row; other lines (the stop
    line) pass unchanged."""
    out = []
    frame = None
    for line in lines:
        if "frame" in line:
            frame = line
            continue
        if "eval_index" not in line:
            out.append(line)
            continue
        cint = cext = None
        g_int = frame["g_int"]
        if g_int is not None and line["eval_index"] is not None:
            f, g, h = line["f"], line["g"], line["h"]
            # a run stores +inf only for a failed evaluation's outputs
            failed = f == math.inf or math.inf in g or math.inf in h
            partition = Partition(g_int, [i for i in range(len(g)) if i not in g_int])
            _, cint, cext = violation_summary(g, h, partition, failed)
        row = dict(line, cint=cint, cext=cext, rho=frame["rho"], delta_frame=frame["delta_frame"])
        out.append({key: row[key] for key in FULL_ROW_KEYS})
    return out


def expand_iterations(record):
    """A record's iteration entries with the full entry keys."""
    out = []
    for entry in record.iterations:
        frame, after = record.frames[entry["iteration"]:entry["iteration"] + 2]
        full = dict(
            entry, rho_before=frame["rho"], rho=after["rho"],
            delta_frame=frame["delta_frame"], delta_next=after["delta_frame"],
        )
        out.append({key: full[key] for key in FULL_ENTRY_KEYS})
    return out


def expanded_bytes(data: bytes) -> bytes:
    """A history file's bytes as the full-row writer wrote them."""
    lines = [json.loads(text) for text in data.decode("utf-8").splitlines() if text.strip()]
    return b"".join(
        json.dumps(line, separators=(",", ":")).encode() + b"\n" for line in expand(lines)
    )
