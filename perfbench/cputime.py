"""CPU time, and reference work to read it against.

The benchmark times in CPU seconds: user plus system time of its process,
all its threads, and its child processes.  On a shared virtual machine the
wall clock also counts the time the host gave the CPUs to other guests
(steal) and the time spent queued behind other processes; CPU time leaves
both out.  It still moves with how fast the host runs each instruction,
which changes by 25-50 % over seconds to minutes while other guests load
it.  So each pass is also read against reference work done right before
and during it: fixed work that uses nothing from the package, so that a
change to the package moves the pass and not the reference.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import time
from fractions import Fraction
from typing import List

import numpy as np

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _children(pid: int) -> List[int]:
    pids = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            pass
    return pids


def _live_descendants_s(pid: int) -> float:
    """CPU seconds of the live descendants of ``pid``, with the children
    they have waited for."""
    total = 0.0
    for child in _children(pid):
        try:
            with open(f"/proc/{child}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:  # it ended meanwhile
            continue
        # utime, stime, cutime, cstime are fields 14-17 of the stat line
        total += sum(int(v) for v in fields[11:15]) * _TICK_S
        total += _live_descendants_s(child)
    return total


def cpu_seconds() -> float:
    """CPU seconds of this process, all its threads, the children it has
    waited for, and its descendants still running, so that work handed to
    a process that outlives a pass still counts."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + reaped.ru_utime + reaped.ru_stime + _live_descendants_s(os.getpid())


def _reference_cpu() -> float:
    # the calling thread only, so a thread the package leaves running
    # does not slow the reference down with it
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + reaped.ru_utime + reaped.ru_stime


def interpreter() -> float:
    """CPU seconds of a fixed mix of the work the solver does: small
    objects and calls, float and rational arithmetic, tuple-keyed dicts,
    small numpy arrays and JSON lines."""
    start = _reference_cpu()
    table = {}
    step = Fraction(1)
    point = np.zeros(4)
    rows = []
    total = 0.0
    for i in range(3000):
        if i % 8 == 0:
            step = step / 2 if step > Fraction(1, 1024) else Fraction(1)
        direction = np.array([(i >> k) % 3 - 1.0 for k in range(4)])
        trial = point + float(step) * direction
        key = tuple(int(round(v * 1024)) for v in trial)
        if key not in table:
            g = [math.hypot(trial[0], trial[1]) - 1.0, float(trial @ trial) - 4.0]
            table[key] = (float(np.sum(trial)), g)
        f, g = table[key]
        total += f + max(0.0, *g) + sum(v * v for v in g if v > 0.0)
        if i % 4 == 0:
            rows.append(json.dumps({"i": i, "x": trial.tolist(), "f": f, "g": g}))
    if not math.isfinite(total) or len(rows) != 750:
        raise AssertionError("the reference work went wrong")
    return _reference_cpu() - start


def spawn(program: str, line: str, count: int) -> float:
    """CPU seconds of running ``program`` ``count`` times, one line in."""
    start = _reference_cpu()
    for _ in range(count):
        subprocess.run([program], input=line, capture_output=True, text=True, check=True)
    return _reference_cpu() - start
