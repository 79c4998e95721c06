import subprocess
import sys

import cputime

BUSY_THEN_SLEEP = (
    "import time\n"
    "t = time.process_time()\n"
    "while time.process_time() - t < 0.3: pass\n"
    "print('busy done', flush=True)\n"
    "time.sleep(30)\n"
)


def test_cpu_seconds_counts_a_child_that_is_still_running():
    start = cputime.cpu_seconds()
    child = subprocess.Popen([sys.executable, "-c", BUSY_THEN_SLEEP], stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "busy done\n"
        busy = cputime.cpu_seconds() - start
        assert busy >= 0.3
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    # reaped, it is counted once, not twice
    assert cputime.cpu_seconds() - start < busy + 0.2


def test_reference_work_takes_cpu_time():
    assert cputime.interpreter() > 0.0
