import math

import numpy as np
import pytest

import madspip.mesh
from madspip.mesh import (
    FRAME_CAP_EXP,
    initial_frame_size,
    mesh_exp,
    poll_directions,
    snap_steps,
    update_frame,
)


def mesh_size(delta0, exp):
    """``delta_mesh`` of the frame ``delta0 * 2**exp``."""
    return math.ldexp(delta0, mesh_exp(exp))


class TestMeshSize:
    def test_at_initial(self):
        assert mesh_size(1.0, 0) == 1.0

    def test_quadratic_branch(self):
        assert (math.ldexp(1.0, -1), mesh_size(1.0, -1)) == (0.5, 0.25)
        assert mesh_exp(-1) == -2

    def test_linear_branch(self):
        assert (math.ldexp(1.0, 1), mesh_size(1.0, 1)) == (2.0, 2.0)
        assert mesh_exp(1) == 1

    def test_mesh_follows_frame(self):
        for delta0 in (1.0, 10.0, 0.3):
            for exp in range(-6, 4):
                d = math.ldexp(delta0, exp)
                assert mesh_size(delta0, exp) == pytest.approx(min(d, d * d / delta0), rel=1e-15)

    def test_sizes_scale_with_delta0(self):
        assert math.ldexp(10.0, -3) == 10.0 / 8
        assert mesh_size(10.0, -3) == 10.0 / 64


class TestUpdateFrame:
    def test_success_grows(self):
        assert math.ldexp(1.0, update_frame(0, success=True)) == 2.0

    def test_failure_shrinks_and_recomputes_mesh(self):
        exp = update_frame(0, success=False)
        assert math.ldexp(1.0, exp) == 0.5
        assert mesh_size(1.0, exp) == 0.25

    def test_growth_cap(self):
        # 2**9 = 512 is the largest frame ratio not above 1000
        assert FRAME_CAP_EXP == 9
        grown = update_frame(FRAME_CAP_EXP, success=True)
        assert grown == FRAME_CAP_EXP  # cap leaves the frame unchanged
        assert math.ldexp(1.0, grown) == 512.0
        # the cap is reached by growth from the start and never passed
        exp = 0
        for _ in range(20):
            exp = update_frame(exp, success=True)
            assert math.ldexp(1.0, exp) <= 1000.0
        assert exp == FRAME_CAP_EXP
        # shrinking away from the cap still works
        assert math.ldexp(1.0, update_frame(FRAME_CAP_EXP, success=False)) == 256.0

    def test_mesh_never_exceeds_frame(self):
        exp = 0
        for success in [True, True, False, False, False, True, False] * 4:
            exp = update_frame(exp, success)
            assert mesh_size(1.0, exp) <= math.ldexp(1.0, exp)


def _max_step(steps):
    return max(abs(s) for s in steps)


class TestPollDirections:
    def test_n1_unit_mesh(self):
        dirs = poll_directions(1, 0, np.random.default_rng(0))
        assert sorted(dirs) == [(-1,), (1,)]

    def test_negation_closure(self):
        dirs = poll_directions(2, 0, np.random.default_rng(1))
        assert len(dirs) == 4
        for d, neg in zip(dirs[:2], dirs[2:]):
            assert tuple(-s for s in d) == neg

    def test_steps_are_ints(self):
        dirs = poll_directions(3, -3, np.random.default_rng(5))
        assert all(type(s) is int for d in dirs for s in d)

    def test_frame_membership_and_step_bound(self):
        # fixed seed, delta=0.0625 so integer steps live on a radius-4 lattice
        delta_mesh = mesh_size(1.0, -2)
        assert delta_mesh == 0.0625
        dirs = poll_directions(3, -2, np.random.default_rng(42))
        assert len(dirs) == 6
        for d in dirs:
            assert _max_step(d) <= 4
            assert _max_step(d) * delta_mesh <= math.ldexp(1.0, -2)

    def test_leading_coordinate_spans_frame(self):
        exp = -3
        radius = 2 ** (exp - mesh_exp(exp))
        delta_mesh = mesh_size(1.0, exp)
        for seed in range(20):
            dirs = poll_directions(3, exp, np.random.default_rng(seed))
            for d in dirs:
                assert _max_step(d) == radius
                assert _max_step(d) * delta_mesh >= math.ldexp(1.0, exp) * 0.5

    def test_determinism(self):
        a = poll_directions(4, -4, np.random.default_rng(123))
        b = poll_directions(4, -4, np.random.default_rng(123))
        assert a == b

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            poll_directions(0, 0, np.random.default_rng(0))

    def test_density_proxy(self):
        # no 30-degree spherical cap stays empty across a shrinking-frame sweep
        rng = np.random.default_rng(2024)
        samples = []
        exp = 0
        for i in range(10_000):
            if i % 100 == 0:
                exp = -(4 + (i // 100) % 8)
            first = poll_directions(3, exp, rng)[0]
            v = np.array(first, dtype=float)
            samples.append(v / np.linalg.norm(v))
        samples = np.array(samples)
        probes = np.random.default_rng(7).standard_normal((500, 3))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        cos30 = math.cos(math.radians(30.0))
        worst = np.min((probes @ samples.T).max(axis=1))
        assert worst >= cos30


# First n of the 2n steps (the rest are their negations) for
# (n, frame exponent, seed), each from a fresh generator; recorded from the
# per-column implementation, so a rewrite must keep every step and draw.
PINNED_POLLS = {
    (1, -1, 0): [(-2,)],
    (2, -1, 0): [(0, 2), (2, 0)],
    (3, -1, 0): [(2, 0, 0), (0, 2, 0), (0, 0, -2)],
    (4, -1, 0): [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, -2, 0), (0, 0, 0, 2)],
    (5, -1, 0): [
        (2, 0, 0, 0, 0),
        (0, 2, 0, 0, 0),
        (0, 0, 0, 0, 2),
        (0, 0, 0, 2, 0),
        (0, 0, 2, 0, 0),
    ],
    (6, -1, 0): [
        (2, 0, 0, 0, 0, 0),
        (0, 2, 0, 0, 0, 0),
        (0, 0, 0, 0, 2, -1),
        (0, 0, 0, 2, 0, 0),
        (0, 0, 2, 0, 0, 1),
        (0, 0, -1, 0, 1, 2),
    ],
    (1, -4, 0): [(-16,)],
    (2, -4, 0): [(0, 16), (16, 0)],
    (3, -4, 0): [(16, 1, -6), (1, 16, 6), (-6, 7, -16)],
    (4, -4, 0): [(16, 1, -6, 0), (1, 16, 6, 1), (-7, 7, -16, -5), (0, 1, -4, 16)],
    (5, -4, 0): [
        (16, 0, -3, 0, 3),
        (0, 16, 3, 0, -3),
        (-3, 3, -1, -3, 16),
        (0, 0, -2, 16, 2),
        (3, -3, 16, 2, 3),
    ],
    (6, -4, 0): [
        (16, 0, -3, 0, 2, -1),
        (0, 16, 3, 0, -2, 1),
        (-3, 3, 1, -3, 16, -10),
        (0, 0, -2, 16, 2, -1),
        (3, -3, 16, 2, 6, 9),
        (-2, 2, -12, -1, 10, 16),
    ],
    (1, -20, 0): [(-1048576,)],
    (2, -20, 0): [(51881, 1048576), (1048576, -51881)],
    (3, -20, 0): [
        (1048576, 84589, -410077),
        (85270, 1048576, 434336),
        (-448055, 470772, -1048576),
    ],
    (4, -20, 0): [
        (1048576, 82388, -399404, -65421),
        (83033, 1048576, 422942, 69277),
        (-461530, 484930, -1048576, -385067),
        (-63968, 67211, -325829, 1048576),
    ],
    (5, -20, 0): [
        (1048576, 49078, -237926, -38971, 199009),
        (49307, 1048576, 251152, 41138, -210072),
        (-246117, 258596, -120636, -205342, 1048576),
        (-38451, 40400, -195857, 1048576, 163820),
        (205860, -216297, 1048576, 171754, 255932),
    ],
    (6, -20, 0): [
        (1048576, 41443, -200913, -32909, 168049, -113439),
        (41606, 1048576, 211928, 34713, -177263, 119658),
        (-246117, 258596, 79188, -205342, 1048576, -707824),
        (-32537, 34186, -165732, 1048576, 138623, -93575),
        (205860, -216297, 1048576, 171754, 455758, 592046),
        (-156148, 164065, -795362, -130279, 665266, 1048576),
    ],
    (1, -1, 3): [(-2,)],
    (2, -1, 3): [(0, 2), (2, 0)],
    (3, -1, 3): [(0, 2, 0), (2, 0, 0), (0, 0, 2)],
    (4, -1, 3): [(0, 2, 0, 0), (2, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)],
    (5, -1, 3): [
        (0, 2, 0, 0, 0),
        (2, 0, 0, 0, 0),
        (0, 0, 2, 0, 0),
        (0, 0, 0, 2, 0),
        (0, 0, 0, 0, 2),
    ],
    (6, -1, 3): [
        (0, 2, 0, 0, 0, 0),
        (2, 0, 0, 0, 0, 0),
        (0, 0, 2, 0, 0, 0),
        (0, 0, 0, 2, 0, 0),
        (0, 0, 0, 0, 2, 0),
        (0, 0, 0, 0, 0, 2),
    ],
    (1, -4, 3): [(-16,)],
    (2, -4, 3): [(3, 16), (16, -3)],
    (3, -4, 3): [(3, 16, -2), (16, -3, 3), (-2, 3, 16)],
    (4, -4, 3): [(4, 16, -2, 3), (16, -2, 3, -4), (-2, 3, 16, 0), (3, -4, 0, 16)],
    (5, -4, 3): [
        (4, 16, -2, 3, 2),
        (16, -2, 3, -4, -3),
        (-2, 3, 16, 0, 0),
        (3, -4, 0, 16, 0),
        (2, -3, 0, 0, 16),
    ],
    (6, -4, 3): [
        (4, 16, -2, 3, 2, 1),
        (16, -2, 3, -4, -3, -1),
        (-2, 3, 16, 0, 0, 0),
        (3, -4, 0, 16, 0, 0),
        (2, -3, 0, 0, 16, 0),
        (1, -1, 0, 0, 0, 16),
    ],
    (1, -20, 3): [(-1048576,)],
    (2, -20, 3): [(237830, 1048576), (1048576, -237830)],
    (3, -20, 3): [
        (255401, 1048576, -171543),
        (1048576, -220259, 214809),
        (-170073, 212968, 1048576),
    ],
    (4, -20, 3): [
        (287804, 1048576, -171543, 232952),
        (1048576, -187856, 214809, -291706),
        (-165018, 206637, 1048576, 45906),
        (230360, -288460, 47191, 1048576),
    ],
    (5, -20, 3): [
        (308400, 1048576, -171543, 232952, 185719),
        (1048576, -167261, 214809, -291706, -232560),
        (-161958, 202806, 1048576, 45055, 35920),
        (225971, -282964, 46292, 1048576, -50117),
        (176302, -220767, 36116, -49046, 1048576),
    ],
    (6, -20, 3): [
        (313072, 1048576, -171543, 232952, 185719, 88458),
        (1048576, -162589, 214809, -291706, -232560, -110768),
        (-161279, 201956, 1048576, 44866, 35769, 17037),
        (224998, -281746, 46092, 1048576, -49901, -23768),
        (175559, -219837, 35964, -48839, 1048576, -18545),
        (81285, -101786, 16651, -22613, -18028, 1048576),
    ],
}


@pytest.mark.parametrize("n,exp,seed", sorted(PINNED_POLLS))
def test_poll_directions_pinned(n, exp, seed):
    dirs = poll_directions(n, exp, np.random.default_rng(seed))
    expected = PINNED_POLLS[(n, exp, seed)]
    assert dirs == expected + [tuple(-s for s in steps) for steps in expected]


def _numpy_poll_directions(n, exp, rng):
    """The basis as numpy computes it: I - 2 v v^T, columns scaled by their
    largest magnitude, truncated onto the mesh."""
    radius = float(1 << (exp - mesh_exp(exp)))
    v = rng.standard_normal(n)
    norm = math.sqrt(v.dot(v))
    while norm < 1e-12:
        v = rng.standard_normal(n)
        norm = math.sqrt(v.dot(v))
    v = v / norm
    basis = np.eye(n) - 2.0 * np.outer(v, v)
    columns = basis.T / np.abs(basis).max(axis=0)[:, None]
    step_sets = [tuple(s) for s in np.trunc(columns * radius).astype(np.int64).tolist()]
    return step_sets + [tuple(-s for s in steps) for steps in step_sets]


@pytest.mark.parametrize("n", range(1, 9))
def test_poll_directions_match_the_numpy_basis(n):
    for exp in (9, 2, 0, -1, -7, -30):
        for seed in range(60):
            assert poll_directions(n, exp, np.random.default_rng(seed)) == _numpy_poll_directions(
                n, exp, np.random.default_rng(seed)
            ), (n, exp, seed)


class TestSnap:
    def test_nearest_multiple(self):
        # (0.26, -0.24) onto mesh 0.25, in units of 0.01
        assert snap_steps((26, -24), 25) == (1, -1)
        # (13/16, -3/8) onto mesh 1/4, in units of 1/16
        assert snap_steps((13, -6), 4) == (3, -2)

    def test_idempotent_on_mesh_points(self):
        assert snap_steps((0, 0), 8) == (0, 0)
        for q in range(-40, 41, 8):
            assert snap_steps((q,), 8) == (q // 8,)

    def test_tie_rounds_away_from_zero(self):
        # 0.125 onto mesh 0.25, in units of 1/8, both signs
        assert snap_steps((1,), 2) == (1,)
        assert snap_steps((-1,), 2) == (-1,)

    def test_invalid_mesh_size(self):
        with pytest.raises(ValueError):
            snap_steps((1,), 0)
        with pytest.raises(ValueError):
            snap_steps((1,), -4)

    def test_exact_steps_match_float_version(self):
        # the integer rounding agrees with rounding the float quotient
        for step in (1, 2, 3, 4, 8, 25):
            for q in range(-60, 61):
                ratio = q / step
                expected = math.floor(abs(ratio) + 0.5)
                assert snap_steps((q,), step) == (int(math.copysign(expected, ratio)),)

    def test_exact_tie_away_from_zero(self):
        assert snap_steps((3, -3, 5, -5), 2) == (2, -2, 3, -3)
        assert snap_steps((2**70 + 2**69,), 2**70) == (2,)
        assert snap_steps((-(2**70 + 2**69),), 2**70) == (-2,)


class TestInitialFrameSize:
    def test_no_bounds(self):
        assert initial_frame_size(None) == 1.0

    def test_geometric_mean_of_tenth_spans(self):
        bounds = ((0.0, 0.0), (10.0, 40.0))
        assert initial_frame_size(bounds) == pytest.approx(math.sqrt(1.0 * 4.0))

    def test_degenerate_span_rejected(self):
        with pytest.raises(ValueError):
            initial_frame_size(((0.0,), (0.0,)))

    def test_log_sum_left_to_right(self, monkeypatch):
        # math.fsum stands in for the compensated sum() of Python 3.12 on
        spans = (1.0, 2.0, 3.0, 13.0)
        logs = [math.log(s / 10.0) for s in spans]
        fold = 0.0
        for v in logs:
            fold += v
        assert math.fsum(logs) != fold
        monkeypatch.setattr(madspip.mesh, "sum", math.fsum, raising=False)
        assert initial_frame_size(((0.0,) * 4, spans)) == math.exp(fold / 4)
