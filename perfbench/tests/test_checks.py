import pytest

import checks
import workloads


def row(index, f, g=(), h=(), status="unsuccessful"):
    return {"eval_index": index, "x": [0.0], "f": f, "g": list(g), "h": list(h), "status": status}


REJECTED = {"eval_index": None, "x": [9.0], "f": None, "g": None, "h": None, "status": "rejected-bounds"}

# f* = 2: threshold 1e-3 * max(1, 2) = 2e-3
SOLVED = [
    row(0, 5.0, g=[0.5]),  # infeasible
    row(1, 3.0, g=[-0.1], status="poll-success"),
    REJECTED,
    row(1, 3.0, g=[-0.1], status="cache-hit"),  # repeats eval 1
    row(2, 2.0015, g=[-0.2], status="poll-success"),  # first solved: 1 + 2
    row(2, 2.0015, g=[-0.2], status="cache-hit"),
    row(3, 2.0001, g=[-0.3], status="poll-success"),
]
UNSOLVED = [
    row(0, 2.5, g=[-1.0]),
    REJECTED,
    row(1, 2.0001, g=[0.1], status="poll-success"),  # inside but infeasible
    row(1, 2.0001, g=[0.1], status="cache-hit"),
    row(2, 2.0, g=[-0.1], status="failed"),  # failed rows are never feasible
]
# equality residual 1e-7 is infeasible under the 1e-8 tolerance
EQUALITY = [row(0, 2.0, h=[1e-7]), row(1, 2.0004, h=[5e-9]), row(2, 2.0, h=[0.0], status="cache-hit")]


def test_evals_to_solve_skips_null_and_repeated_indices():
    assert checks.evals_to_solve(SOLVED, 2.0) == 3
    assert checks.evals_to_solve(UNSOLVED, 2.0) is None
    assert checks.evals_to_solve(EQUALITY, 2.0) == 2
    assert checks.distinct_evals(SOLVED) == 4
    assert checks.distinct_evals(UNSOLVED) == 3


def test_threshold_scales_with_f_star():
    big = [row(0, -1000.5)]  # within 1e-3 * 1000 of -1000
    assert checks.evals_to_solve(big, -1000.0) == 1
    assert checks.evals_to_solve([row(0, 0.0015)], 0.0) is None  # max(1, 0) keeps 1e-3


def test_undercut_tolerance():
    rows = [row(0, 2.0 - 5e-9), row(1, 2.0 - 2e-6), row(2, 1.0, g=[0.5])]
    assert checks.undercuts(rows, 2.0) == [1]


def test_solved_frac_and_median_over_applicable_runs():
    w = workloads._Workload()
    assert w._judge_rows(SOLVED, True, 2.0) is None
    assert w._judge_rows(UNSOLVED, True, 2.0) is None
    assert w._judge_rows(EQUALITY, True, 2.0) is None
    assert w._judge_rows([], False, 2.0) is None  # inapplicable, not a failure
    assert w.quality.applicable == 3 and w.quality.inapplicable == 1
    assert w.quality.solved_frac == pytest.approx(2 / 3)
    assert w.quality.evals_to_solve_p50 == 2.5
    assert w.evals == 4 + 3 + 3


def test_judge_rows_failures():
    w = workloads._Workload()
    assert w._judge_rows([], True, 2.0) == "applicable run ended as an error"
    assert w._judge_rows([row(0, 1.0)], False, 2.0) == "inapplicable run wrote rows"
    assert "undercut" in w._judge_rows([row(0, 1.9)], True, 2.0)


def test_combined_digest_is_order_free():
    a = checks.combined_digest({"x": "1", "y": "2"})
    assert a == checks.combined_digest({"y": "2", "x": "1"})
    assert a != checks.combined_digest({"x": "1", "y": "3"})
