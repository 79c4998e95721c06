import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from madspip.merit import (
    B_C,
    B_INT,
    B_RHO,
    BETA,
    THETA_RHO,
    compute_b_ext,
    merit,
    penalty_update_check,
    violation_summary,
)

INF = math.inf


def interior_terms(g):
    """``(phi_prox, c_int)`` of ``g`` with every constraint interior."""
    phi, cint, _ = violation_summary(g, [], tuple(range(len(g))))
    return phi, cint


def exterior_term(g, h):
    """``c_ext`` of ``g`` and ``h`` with every inequality exterior."""
    return violation_summary(g, h, ())[2]


class TestPhiProx:
    def test_all_negative(self):
        assert interior_terms([-2.0, -0.5])[0] == -0.5

    def test_one_positive(self):
        assert interior_terms([0.5, -2.0])[0] == 0.5

    def test_boundary(self):
        assert interior_terms([0.0, -1.0])[0] == 0.0

    def test_infinity_propagates(self):
        assert interior_terms([INF, -1.0])[0] == INF


class TestCInt:
    def test_deep_interior_saturates(self):
        assert interior_terms([-3.0, -1.5])[1] == -1.0

    def test_product_branch(self):
        assert interior_terms([-0.5, -0.25])[1] == pytest.approx(-0.125)

    def test_violation_branch(self):
        assert interior_terms([0.5, -2.0])[1] == 0.5

    def test_empty_product(self):
        assert interior_terms([])[1] == -1.0

    def test_boundary_value_zero(self):
        # a zero value keeps the product branch and yields exactly 0
        assert interior_terms([0.0, -2.0])[1] == 0.0

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=0, max_size=6))
    def test_range_and_sign(self, values):
        v = interior_terms(values)[1]
        assert v >= -1.0
        assert (v <= 0.0) == all(x <= 0.0 for x in values)


class TestCExt:
    def test_mixed(self):
        assert exterior_term([0.3, -1.0], [0.2]) == pytest.approx(0.13)

    def test_feasible(self):
        assert exterior_term([-1.0, -2.0], []) == 0.0

    def test_equalities_only(self):
        assert exterior_term([], [1.0, -1.0]) == pytest.approx(2.0)

    def test_infinity(self):
        assert exterior_term([INF], []) == INF

    # magnitudes kept above the square-underflow threshold: h**2 flushes to
    # zero below ~1e-162, where the zero-iff-feasible equivalence cannot hold
    _scale = st.floats(min_value=-50, max_value=50).filter(
        lambda v: v == 0.0 or abs(v) > 1e-100
    )

    @given(st.lists(_scale, max_size=5), st.lists(_scale, max_size=5))
    def test_nonnegative_zero_iff_feasible(self, g, h):
        v = exterior_term(g, h)
        assert v >= 0.0
        assert (v == 0.0) == (all(x <= 0.0 for x in g) and all(x == 0.0 for x in h))


class TestMerit:
    def test_interior_feasible_no_penalty(self):
        assert merit(1.0, -1.0, 0.0, 0.1, 1.0) == 1.0

    def test_boundary_is_infinite(self):
        assert merit(2.0, 0.0, 0.0, 0.1, 1.0) == INF
        assert merit(2.0, -0.0, 0.0, 0.1, 1.0) == INF

    def test_infinite_objective(self):
        assert merit(INF, -1.0, 0.0, 0.1, 1.0) == INF

    def test_scaled_value_against_oracle(self):
        # high-precision oracle for f - rho*log(0.5) + (1/rho)*0.04
        mpmath.mp.dps = 50
        expected = mpmath.mpf(2) - mpmath.mpf("0.1") * mpmath.log(mpmath.mpf("0.5"))
        expected += (1 / mpmath.mpf("0.1")) * mpmath.mpf("0.04")
        got = merit(2.0, -0.5, 0.04, 0.1, 1.0)
        assert got == pytest.approx(float(expected), rel=1e-15)
        assert got == pytest.approx(2.46931471805, abs=1e-11)

    @given(
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=-1.0, max_value=-1e-9),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=1e-9, max_value=10.0),
    )
    def test_merit_dominates_objective(self, f, cint, cext, rho):
        # -cint <= 1 always, so the barrier term never pushes z below f
        assert merit(f, cint, cext, rho, 1.0) >= f

    def test_limit_in_rho_feasible(self):
        # with no exterior violation the merit tends to f from above
        previous = None
        for k in range(1, 12):
            z = merit(3.0, -0.25, 0.0, 10.0**-k, 1.0)
            assert z >= 3.0
            if previous is not None:
                assert z <= previous
            previous = z
        assert previous == pytest.approx(3.0, abs=1e-9)

    def test_limit_in_rho_infeasible(self):
        values = [merit(3.0, -0.25, 0.5, 10.0**-k, 1.0) for k in range(1, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 1e9


class TestComputeBExt:
    def test_paper_examples(self):
        assert compute_b_ext(523.0) == 100.0
        assert compute_b_ext(0.0) == 1.0
        assert compute_b_ext(0.05) == 1.0
        assert compute_b_ext(-523.0) == 100.0

    def test_infinite_rejected(self):
        with pytest.raises(ValueError):
            compute_b_ext(INF)

    @given(st.floats(min_value=-1e12, max_value=1e12))
    def test_power_of_ten_at_least_one(self, f0):
        b = compute_b_ext(f0)
        assert b >= 1.0
        exponent = math.log10(b)
        assert exponent == pytest.approx(round(exponent), abs=1e-12)


class TestPenaltyUpdateCheck:
    def test_fires_small_frame(self):
        # oracle: min(10 * 0.1**(1+1e-9), 1e10 * 1e-6) ~ 0.9999999977 >= 1e-4
        assert penalty_update_check(1e-4, -1e-3, 0.1) is True

    def test_boundary_case_settled_by_oracle(self):
        # 0.5 <= 10 * 0.1**(1+1e-9): verified with 50-digit arithmetic
        mpmath.mp.dps = 50
        bound = 10 * mpmath.mpf("0.1") ** (1 + mpmath.mpf(10) ** -9)
        assert mpmath.mpf("0.5") <= bound
        assert penalty_update_check(0.5, -1.0, 0.1) is True

    def test_large_frame_does_not_fire(self):
        mpmath.mp.dps = 50
        bound = 10 * mpmath.mpf("0.1") ** (1 + mpmath.mpf(10) ** -9)
        assert mpmath.mpf("2.0") > bound
        assert penalty_update_check(2.0, -1.0, 0.1) is False

    def test_boundary_proximity_blocks(self):
        assert penalty_update_check(1e-4, 0.0, 0.1) is False

    def test_empty_interior_set(self):
        # criterion reduces to the rho term when no constraint is interior
        assert penalty_update_check(0.5, -INF, 0.1) is True
        assert penalty_update_check(2.0, -INF, 0.1) is False

    @given(
        st.floats(min_value=1e-12, max_value=1e3),
        st.floats(min_value=1e-12, max_value=1e3),
        st.floats(min_value=-10, max_value=-1e-9),
    )
    def test_monotone_in_delta(self, delta, smaller, phi):
        rho = 0.1
        if penalty_update_check(delta, phi, rho):
            assert penalty_update_check(min(delta, smaller), phi, rho)


class TestViolationSummary:
    def test_summary_consistency(self):
        terms = violation_summary([-0.5, 0.3], [0.2], (0,))
        assert type(terms) is tuple
        phi, cint, cext = terms
        assert phi == -0.5
        assert cint == -0.5
        assert cext == pytest.approx(0.09 + 0.04)

    def test_failed_evaluation(self):
        assert violation_summary([0.0], [], (), failed=True) == (INF, INF, INF)

    def test_empty_interior_phi_is_minus_infinity(self):
        phi, cint, _ = violation_summary([0.5], [], ())
        assert phi == -INF
        assert cint == -1.0


_g_value = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), st.sampled_from([0.0, -0.0, 1.0, -1.0, INF])
)


@given(
    g=st.lists(_g_value, max_size=5),
    h=st.lists(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), max_size=3),
    interior=st.sets(st.integers(min_value=0, max_value=4)),
)
def test_summary_matches_the_term_helpers(g, h, interior):
    # bit for bit the formulas, each written out as its own left-to-right loop
    g_int = tuple(i for i in range(len(g)) if i in interior)
    gi = [g[i] for i in g_int]
    phi = -INF
    for v in gi:
        phi = max(phi, v)
    if any(v > 0.0 for v in gi):
        cint = phi
    else:
        prod = 1.0
        for v in gi:
            prod *= min(1.0, -v)
        cint = -prod
    cext = 0.0
    for i in (i for i in range(len(g)) if i not in interior):
        v = max(0.0, g[i])
        cext += v * v
    for v in h:
        cext += v * v
    got = violation_summary(g, h, g_int)
    assert [v.hex() for v in got] == [v.hex() for v in (phi, cint, cext)]


def test_update_constants():
    # a run varies rho, b_ext and g_int only; the rest are module constants
    assert (THETA_RHO, BETA, B_RHO, B_C, B_INT) == (1e-2, 1.0 + 1e-9, 10.0, 1e10, 1.0)
