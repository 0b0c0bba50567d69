import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mobosat.model import (
    Instance,
    LinearExpr,
    Literal,
    PBConstraint,
    dominates,
    evaluate,
    nondominated_filter,
    normalize_expression,
    normalize_objective,
    satisfies,
    weakly_dominates,
)


def lit(v):
    return Literal(v)


def nlit(v):
    return Literal(v, True)


points = st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=2).map(tuple)


class TestNormalizeExpression:
    def test_mixed_signs_flip_to_negated_literals(self):
        # -2x1 - 3x2 + 2x3 >= -2  becomes  2~x1 + 3~x2 + 2x3 >= 3
        expr, bound = normalize_expression(
            [(-2, lit(1)), (-3, lit(2)), (2, lit(3))], -2
        )
        assert bound == 3
        assert expr.terms == ((2, nlit(1)), (3, nlit(2)), (2, lit(3)))

    def test_already_nonnegative_unchanged(self):
        expr, bound = normalize_expression([(1, lit(1)), (1, lit(2))], 1)
        assert bound == 1
        assert expr.terms == ((1, lit(1)), (1, lit(2)))

    def test_trivial_constraint_detected(self):
        expr, bound = normalize_expression([(-5, lit(1))], -5)
        assert bound == 0
        assert PBConstraint(expr, bound).trivial
        # equivalence over both assignments of x1
        for x1 in (0, 1):
            original = -5 * x1 >= -5
            transformed = evaluate(expr, [x1]) >= bound
            assert original == transformed

    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 5), st.booleans()),
                    min_size=1, max_size=6),
           st.integers(-20, 20))
    def test_satisfying_set_preserved(self, raw, bound):
        terms = [(c, Literal(v, neg)) for c, v, neg in raw]
        expr, new_bound = normalize_expression(terms, bound)
        nvars = max(v for _, v, _ in raw)
        for bits in itertools.product((0, 1), repeat=nvars):
            original = sum(
                c * ((1 - bits[l.var - 1]) if l.negated else bits[l.var - 1])
                for c, l in terms
            ) >= bound
            assert (evaluate(expr, bits) >= new_bound) == original

    def test_duplicate_variable_merged(self):
        expr, bound = normalize_expression([(2, lit(1)), (3, lit(1))], 4)
        assert expr.terms == ((5, lit(1)),)
        assert bound == 4

    def test_objective_constant_nonnegative(self):
        f = normalize_objective([(-4, lit(1)), (-5, lit(2))], 22)
        assert f.constant == 13
        assert f.terms == ((4, nlit(1)), (5, nlit(2)))
        with pytest.raises(ValueError):
            normalize_objective([(-4, lit(1))], 2)


class TestEvaluate:
    def test_biobjective_point(self, two_obj_triangle):
        assert evaluate(two_obj_triangle.objectives[0], (1, 0, 1)) == 2
        assert evaluate(two_obj_triangle.objectives[1], (1, 0, 1)) == 2

    def test_constant_only(self):
        assert evaluate(LinearExpr((), 7), (0, 1)) == 7

    def test_with_constant_term(self, unconstrained_biobjective):
        assert evaluate(unconstrained_biobjective.objectives[0], (0, 0, 1, 1)) == 4
        assert evaluate(unconstrained_biobjective.objectives[1], (0, 0, 1, 1)) == 10


class TestDominance:
    def test_weak_dominance(self):
        assert weakly_dominates((2, 2), (3, 3))
        assert weakly_dominates((2, 2), (2, 2))
        assert not weakly_dominates((1, 4), (4, 1))
        assert not weakly_dominates((4, 1), (1, 4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weakly_dominates((1,), (1, 2))

    @given(points)
    def test_reflexive(self, z):
        assert weakly_dominates(z, z)
        assert not dominates(z, z)

    @given(points, points, points)
    def test_transitive(self, a, b, c):
        if weakly_dominates(a, b) and weakly_dominates(b, c):
            assert weakly_dominates(a, c)


def sequential_filter(items, key=lambda item: item):
    """The filter's defining pass: an element enters unless a kept one weakly
    dominates it, and evicts the kept ones it dominates."""
    kept = []
    for candidate in items:
        cpoint = key(candidate)
        if any(weakly_dominates(key(other), cpoint) for other in kept):
            continue
        kept = [other for other in kept if not dominates(cpoint, key(other))]
        kept.append(candidate)
    return kept


class TestNondominatedFilter:
    @given(st.integers(1, 4).flatmap(lambda p: st.lists(
        st.lists(st.integers(0, 5), min_size=p, max_size=p).map(tuple), max_size=30)))
    @settings(max_examples=300)
    def test_matches_the_sequential_definition(self, pts):
        assert nondominated_filter(pts) == sequential_filter(pts)
        records = list(enumerate(pts))
        assert nondominated_filter(records, key=lambda r: r[1]) == \
            sequential_filter(records, key=lambda r: r[1])

    def test_example_front(self):
        got = nondominated_filter([(4, 1), (2, 2), (1, 4), (3, 3)])
        assert sorted(got) == [(1, 4), (2, 2), (4, 1)]

    def test_singleton(self):
        assert nondominated_filter([(5, 5)]) == [(5, 5)]

    def test_weakly_dominated_pair(self):
        assert nondominated_filter([(7, 6), (7, 13)]) == [(7, 6)]
        assert nondominated_filter([(7, 13), (7, 6)]) == [(7, 6)]

    def test_duplicates_keep_earliest(self):
        first, second = ("a", (1, 1)), ("b", (1, 1))
        got = nondominated_filter([first, second], key=lambda t: t[1])
        assert got == [first]

    @given(st.lists(points, max_size=12))
    def test_idempotent_and_mutually_nondominated(self, pts):
        once = nondominated_filter(pts)
        assert nondominated_filter(once) == once
        for a in once:
            for b in once:
                if a is not b:
                    assert not weakly_dominates(a, b) or a == b
        # equal points collapse
        assert len(set(once)) == len(once)


class TestInstance:
    def test_bounds_derived(self, unconstrained_biobjective):
        objectives = unconstrained_biobjective.objectives
        assert tuple(f.lower_bound for f in objectives) == (1, 1)
        assert tuple(f.upper_bound for f in objectives) == (10, 22)

    def test_feasibility(self, two_obj_triangle):
        assert satisfies(two_obj_triangle.constraints[0], (1, 1, 0))
        assert not satisfies(two_obj_triangle.constraints[0], (1, 0, 0))

    def test_needs_an_objective(self):
        with pytest.raises(ValueError):
            Instance(num_vars=1, constraints=(), objectives=())
