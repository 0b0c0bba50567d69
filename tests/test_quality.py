import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mobosat.quality import (
    epsilon_indicator,
    epsilon_indicator_shifted,
    hypervolume,
    hypervolume_inclusion_exclusion,
    make_report,
    normalize,
    protocol_denominators,
)

points2 = st.lists(
    st.tuples(st.integers(1, 30), st.integers(1, 30)), min_size=1, max_size=8
)


class TestEpsilonIndicator:
    def test_single_point_against_front(self):
        assert epsilon_indicator([(2, 2)], [(1, 4), (2, 2), (4, 1)]) == 2

    def test_worked_interval_run(self):
        a = [(1, 22), (3, 15), (7, 6), (10, 1)]
        lower = [(1, 16), (2, 8), (4, 4), (8, 1)]
        front = [(1, 22), (2, 17), (3, 15), (4, 10), (7, 5), (10, 1)]
        assert epsilon_indicator(a, lower) == Fraction(15, 8)
        assert epsilon_indicator(a, front) == Fraction(3, 2)

    def test_identity(self):
        pts = [(3, 5), (5, 3)]
        assert epsilon_indicator(pts, pts) == 1

    def test_subset_reference(self):
        assert epsilon_indicator([(3, 5), (5, 3)], [(3, 5)]) == 1

    def test_zero_coordinate_triggers_shift(self):
        value, shifted = epsilon_indicator_shifted([(1, 1)], [(0, 1)])
        assert shifted
        assert value == 2  # (1+1)/(0+1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            epsilon_indicator([], [(1, 2)])
        with pytest.raises(ValueError):
            epsilon_indicator([(1, 2)], [])

    @given(points2, points2, st.tuples(st.integers(1, 30), st.integers(1, 30)))
    @settings(max_examples=150)
    def test_monotonicity(self, a, r, extra):
        base = epsilon_indicator(a, r)
        assert epsilon_indicator(a + [extra], r) <= base
        assert epsilon_indicator(a, r + [extra]) >= base


class TestNormalize:
    def test_exact_division(self):
        got = normalize([(4, 10)], (21076, 21367))
        assert got == [(Fraction(4, 21076), Fraction(10, 21367))]

    def test_identity_denominators(self):
        assert normalize([(0, 1)], (1, 1)) == [(Fraction(0), Fraction(1))]

    def test_protocol_max_plus_one(self):
        denoms = protocol_denominators([[(1, 4), (2, 2)], [(4, 1)]])
        assert denoms == (5, 5)

    def test_protocol_slack(self):
        denoms = protocol_denominators([[(10, 20)]], slack=Fraction(11, 10))
        assert denoms == (11, 22)

    @pytest.mark.parametrize("slack", [Fraction(0), Fraction(-2), Fraction(1, 2)])
    def test_protocol_rejects_slack_below_one(self, slack):
        # a denominator at or below a coordinate's maximum drops every point
        with pytest.raises(ValueError, match="slack"):
            protocol_denominators([[(10, 20)]], slack=slack)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            normalize([(1,)], (0,))


class TestHypervolume:
    def test_single_box(self):
        assert hypervolume([(Fraction(1, 2), Fraction(1, 2))], (1, 1)) == Fraction(1, 4)

    def test_empty(self):
        assert hypervolume([], (1, 1)) == 0

    def test_point_on_reference_excluded(self):
        assert hypervolume([(Fraction(1), Fraction(1, 2))], (1, 1)) == 0

    def test_example_front_against_inclusion_exclusion(self):
        pts = normalize([(1, 4), (2, 2), (4, 1)], (5, 5))
        ref = (Fraction(1), Fraction(1))
        assert hypervolume(pts, ref) == hypervolume_inclusion_exclusion(pts, ref)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_fronts_match_oracle(self, dim):
        rng = random.Random(dim)
        for _ in range(15):
            count = rng.randint(1, 8)
            pts = [tuple(Fraction(rng.randint(0, 9), 10) for _ in range(dim))
                   for _ in range(count)]
            ref = tuple(Fraction(1) for _ in range(dim))
            assert hypervolume(pts, ref) == hypervolume_inclusion_exclusion(pts, ref)

    def test_monte_carlo_agreement(self):
        rng = random.Random(4)
        pts = [tuple(Fraction(rng.randint(0, 9), 10) for _ in range(3)) for _ in range(6)]
        ref = (Fraction(1),) * 3
        exact = float(hypervolume(pts, ref))
        samples = 200_000
        hits = 0
        for _ in range(samples):
            q = tuple(rng.random() for _ in range(3))
            if any(all(float(p[k]) <= q[k] for k in range(3)) for p in pts):
                hits += 1
        estimate = hits / samples
        sigma = (exact * (1 - exact) / samples) ** 0.5 if 0 < exact < 1 else 1 / samples
        assert abs(estimate - exact) <= 4 * sigma + 1e-9


class TestReport:
    def test_report_fields(self):
        report = make_report([(2, 2)], reference=[(1, 4), (2, 2), (4, 1)])
        assert report.epsilon_vs_reference == 2
        assert report.denominators == (5, 5)
        assert 0 <= report.hypervolume <= 1
        assert not report.shifted
