"""``madspip.stream.Stream`` against numpy, its oracle: the same seeds give
the same ``random``, ``uniform`` and ``standard_normal`` floats as
``numpy.random.default_rng``, and ``mesh.sum_of_squares`` gives the bits of
``v.dot(v)``, so starting points and poll directions are numpy's.

``v.dot(v)`` is OpenBLAS's ``ddot``, a chain of fused multiply-adds on a CPU
with FMA for fewer than 16 entries; from 16 on OpenBLAS switches to a
blocked kernel with several accumulators, so only ``n < 16`` is numpy-equal
there.  Polls use ``n`` up to the problem dimension, 5 for the builtins.
"""

import numpy as np
import pytest

import madspip.suite
from madspip.mesh import sum_of_squares
from madspip.stream import Stream
from madspip.suite import _fold, builtin_problems, initial_point, x0_ids

# SeedSequence splits a seed into 32-bit words; one above 2**128 has more
# words than its pool of 4 and takes the second mixing loop
SEEDS = [0, 1, 2**32 - 1, 2**64 - 1, 2**128, 2**200 + 987654321]


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_equal_numpy(seed):
    ours, theirs = Stream(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert ours.random() == theirs.random()
        assert ours.uniform(-0.1, 0.3) == theirs.uniform(-0.1, 0.3)
        assert ours.uniform(1.05, 1.9, size=5) == theirs.uniform(1.05, 1.9, size=5).tolist()
        assert ours.standard_normal(1) == theirs.standard_normal(1).tolist()
        assert ours.standard_normal(7) == theirs.standard_normal(7).tolist()
    assert ours.standard_normal(2000) == theirs.standard_normal(2000).tolist()
    assert type(ours.uniform(0.0, 1.0)) is float


def test_a_million_normals_equal_numpy_through_every_path(monkeypatch):
    # a draw outside its layer's rectangle goes to Stream._outside: from
    # layer 0 into the tail, from another layer into the wedge test
    layers = []
    outside = Stream._outside

    def counting(self, idx, rabs, x):
        layers.append(idx)
        return outside(self, idx, rabs, x)

    monkeypatch.setattr(Stream, "_outside", counting)
    for seed in range(5):
        assert Stream(seed).standard_normal(200_000) == np.random.default_rng(seed).standard_normal(200_000).tolist()
    tails = layers.count(0)
    assert tails > 100 and len(layers) - tails > 1000, (tails, len(layers))


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        Stream(-1)


@pytest.mark.parametrize("n", range(1, 6))
def test_sum_of_squares_equals_numpy_dot(n):
    rng = np.random.default_rng(n)
    vectors = rng.standard_normal((20_000, n))
    vectors[::7] *= rng.uniform(1e-3, 1e3, size=(len(vectors[::7]), 1))  # other binades too
    mismatched = [v for v in vectors if sum_of_squares(v.tolist()) != v.dot(v)]
    assert mismatched == []


def test_builtin_starting_points_equal_numpys(monkeypatch):
    # all 240: each builtin's feasible-0..19 and infeasible-0..19
    ids = x0_ids(40)
    ours = [initial_point(problem, x0_id) for problem, _ in builtin_problems() for x0_id in ids]
    monkeypatch.setattr(madspip.suite, "Stream", np.random.default_rng)
    theirs = [initial_point(problem, x0_id) for problem, _ in builtin_problems() for x0_id in ids]
    assert len(ours) == 240 and ours == theirs


@pytest.mark.parametrize("n", range(1, 8))
def test_fold_equals_numpy_sum_below_8(n):
    # the sphere-eq samplers' shift sums n = 3 and 5 draws with _fold, where
    # numpy's y.sum() has not yet switched to pairwise blocks
    rows = np.random.default_rng(n).uniform(-0.1, 0.3, size=(5_000, n))
    assert [_fold(row.tolist()) for row in rows] == [float(np.array(row).sum()) for row in rows.tolist()]
