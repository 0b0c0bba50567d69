import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mobosat.approx import approx_coefficients, as_ratio, compute_domain, weight_grid
from mobosat.model import LinearExpr, Literal, evaluate


def expr_of(weights, constant=0):
    return LinearExpr(tuple((w, Literal(v + 1)) for v, w in enumerate(weights)), constant)


class TestComputeDomain:
    def test_doubling_grid(self):
        assert compute_domain(1, 11, 2) == (1, 2, 4, 8, 16)
        assert compute_domain(1, 22, 2) == (1, 2, 4, 8, 16, 32)

    def test_exact_grid_is_every_integer(self):
        assert compute_domain(2, 10, 1) == tuple(range(2, 12))

    def test_three_halves_grid(self):
        # the recurrence max(d+1, floor(3/2 * d)) from 2
        assert compute_domain(2, 10, Fraction(3, 2)) == (2, 3, 4, 6, 9, 13)

    def test_quadrupling_grid(self):
        assert compute_domain(1, 11, 4) == (1, 4, 16)
        assert compute_domain(1, 22, 4) == (1, 4, 16, 64)

    def test_zero_lower_bound_escapes_via_plus_one(self):
        assert compute_domain(0, 60, 101) == (0, 1, 101)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compute_domain(5, 3, 2)
        with pytest.raises(ValueError):
            compute_domain(0, 3, Fraction(1, 2))

    @given(st.integers(0, 40), st.integers(0, 200), st.fractions(min_value=1, max_value=20))
    @settings(max_examples=200)
    def test_coverage_and_step_law(self, lower, span, ratio):
        upper = lower + span
        values = compute_domain(lower, upper, ratio)
        assert values[0] == lower
        assert values[-1] > upper
        assert all(b > a for a, b in zip(values, values[1:]))
        for a, b in zip(values, values[1:]):
            assert b == max(a + 1, (ratio * a).__floor__())
        # every integer in [lower, upper] falls in exactly one interval [d_i, d_{i+1})
        for v in range(lower, upper + 1):
            containing = [i for i in range(len(values) - 1)
                          if values[i] <= v < values[i + 1]]
            assert len(containing) == 1


@pytest.mark.parametrize("ratio", [1, Fraction(101, 100), Fraction(11, 10), Fraction(7, 3), 2, 11,
                                   101, "1.0001"])
@pytest.mark.parametrize("min_weight", [0, 1, 37])
def test_weight_grid_is_the_fraction_floor_law(ratio, min_weight):
    # past 20,000 the ratio 1.0001 steps by more than 1
    exact, expected = Fraction(ratio), [min_weight]
    while expected[-1] < 30000:
        expected.append(max(expected[-1] + 1, math.floor(exact * expected[-1])))
    assert weight_grid(min_weight, 30000, ratio) == tuple(expected)


class TestCoefficients:
    def test_worked_rounding(self):
        m = approx_coefficients(expr_of([2, 3, 5, 7]), 2)
        assert m.grid == (2, 4, 8)
        assert [c for c, _ in m.approx.terms] == [2, 2, 4, 4]

    def test_exact_when_ratio_one(self):
        f = expr_of([2, 3, 5, 7], 3)
        m = approx_coefficients(f, 1)
        assert m.exact and m.approx == f

    def test_constant_passes_through(self):
        f = expr_of([3, 3, 1, 2], 1)
        m = approx_coefficients(f, 2)
        assert [c for c, _ in m.approx.terms] == [2, 2, 1, 2]
        assert m.approx.constant == 1

    def test_large_ratio_collapses_small_weights(self):
        f = expr_of([3, 3, 1, 2], 1)
        m = approx_coefficients(f, 4)
        assert [c for c, _ in m.approx.terms] == [1, 1, 1, 1]

    def test_constant_only_expression(self):
        f = LinearExpr((), 5)
        m = approx_coefficients(f, 7)
        assert m.exact

    @given(
        st.lists(st.integers(1, 10_000), min_size=1, max_size=12),
        st.fractions(min_value=1, max_value=101),
        st.integers(0, 10),
    )
    @settings(max_examples=150)
    def test_underestimate_within_ratio_all_assignments(self, weights, ratio, constant):
        f = expr_of(weights, constant)
        m = approx_coefficients(f, ratio)
        n = len(weights)
        approx_w = [c for c, _ in m.approx.terms]
        assert all(a <= w for a, w in zip(approx_w, weights))
        # f'(x) <= f(x) <= ratio * f'(x), exact arithmetic, checked per subset
        # via the additive structure (a subset violates iff a single term does)
        for w, a in zip(weights, approx_w):
            assert a <= w <= ratio * a
        assert constant <= ratio * constant

    def test_all_assignments_small_case(self):
        rng = random.Random(5)
        for _ in range(20):
            weights = [rng.randint(1, 50) for _ in range(rng.randint(1, 8))]
            ratio = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            if ratio < 1:
                ratio = 1 / ratio
            f = expr_of(weights, rng.randint(0, 3))
            m = approx_coefficients(f, ratio)
            for bits in itertools.product((0, 1), repeat=len(weights)):
                original = evaluate(f, bits)
                rounded = evaluate(m.approx, bits)
                assert rounded <= original <= ratio * rounded

    def test_grid_saturation_above_max_weight(self):
        # ratios above the largest weight behave like ratio == largest weight
        # (provably so once the smallest weight is at least 2)
        rng = random.Random(9)
        for _ in range(40):
            weights = [rng.randint(2, 60) for _ in range(rng.randint(1, 10))]
            top = max(weights)
            at_top = approx_coefficients(expr_of(weights), top)
            above = approx_coefficients(expr_of(weights), top + rng.randint(1, 10))
            assert at_top.approx == above.approx


class TestRatioParsing:
    def test_accepted_forms(self):
        assert as_ratio(2) == 2
        assert as_ratio("1.1") == Fraction(11, 10)
        assert as_ratio("11/10") == Fraction(11, 10)
        assert as_ratio(Fraction(101)) == 101

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            as_ratio("0.5")
