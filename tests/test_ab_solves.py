"""``tools/ab_solves.py`` times two checkouts in one process and refuses two
whose event streams differ."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_solves.py"


def _ab(parent, change):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--rounds", "1", "--seeds", "1"],
        capture_output=True, text=True, timeout=120,
    )


def _digests(out):
    return re.findall(r"^(parent|change): .*, 20 runs, .* sha256 ([0-9a-f]{64})$", out, re.M)


def test_the_repo_against_itself_gives_one_digest():
    result = _ab(ROOT, ROOT)
    assert result.returncode == 0, result.stderr
    (parent, first), (change, second) = _digests(result.stdout)
    assert (parent, change) == ("parent", "change") and first == second
    ratios = r"^change/parent median \d+\.\d{4} \(median of the rounds' ratios \d+\.\d{4}\), "
    assert re.search(ratios + r"change faster in [01] of 1 rounds$", result.stdout, re.M)


def test_a_change_to_the_runs_exits_1(tmp_path):
    package = tmp_path / "src" / "madspip"
    shutil.copytree(ROOT / "src" / "madspip", package, ignore=shutil.ignore_patterns("__pycache__"))
    solver = package / "solver.py"
    text = solver.read_text(encoding="utf-8")
    assert "DELTA_STOP = 1e-9\n" in text
    solver.write_text(text.replace("DELTA_STOP = 1e-9\n", "DELTA_STOP = 1e-6\n"), encoding="utf-8")
    result = _ab(ROOT, tmp_path)
    assert result.returncode == 1
    (_, first), (_, second) = _digests(result.stdout)
    assert first != second and result.stderr == "the event streams differ\n"
