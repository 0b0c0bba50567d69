import random
import time
from fractions import Fraction

import pytest

from mobosat.engine import (
    RatioSchedule,
    core_solve,
    enumerate_efficient_set,
    intre_solve,
    solve_exact,
    update_ratio,
)
from mobosat.io import generate_mscp
from mobosat.model import (
    Instance,
    LinearExpr,
    Literal,
    PBConstraint,
    image,
    is_feasible,
    nondominated_filter,
    normalize_expression,
    weakly_dominates,
)
from mobosat.oracle import brute_force_pareto, verify_approximation
from mobosat.quality import epsilon_indicator


def schedule(start, divisor=10, target=1, budget=None):
    return RatioSchedule(start=Fraction(start), divisor=Fraction(divisor),
                         target=Fraction(target), budget_s=budget)


def random_instance(rng, max_vars=12, max_cons=8, num_obj=2, max_coeff=9):
    num_vars = rng.randint(3, max_vars)
    constraints = []
    for _ in range(rng.randint(0, max_cons)):
        width = rng.randint(1, min(4, num_vars))
        vs = rng.sample(range(1, num_vars + 1), width)
        raw = [(rng.randint(-max_coeff, max_coeff), Literal(v)) for v in vs]
        bound = rng.randint(-max_coeff, 2 * max_coeff)
        lhs, new_bound = normalize_expression(raw, bound)
        con = PBConstraint(lhs, new_bound)
        if not con.trivial:
            constraints.append(con)
    objectives = []
    for _ in range(num_obj):
        terms = tuple(
            (rng.randint(1, max_coeff), Literal(v, rng.random() < 0.5))
            for v in range(1, num_vars + 1)
        )
        objectives.append(LinearExpr(terms, rng.randint(0, max_coeff)))
    return Instance(num_vars=num_vars, constraints=tuple(constraints),
                    objectives=tuple(objectives))


class TestExactMode:
    def test_triangle_front(self, two_obj_triangle):
        result = solve_exact(two_obj_triangle)
        assert sorted(result.images) == [(1, 4), (2, 2), (4, 1)]
        assert sorted(result.lower_bounds) == [(1, 4), (2, 2), (4, 1)]
        assert result.warranted_ratio == 1
        assert not result.truncated and not result.infeasible

    def test_biobjective_front(self, unconstrained_biobjective):
        result = solve_exact(unconstrained_biobjective)
        assert sorted(result.images) == [
            (1, 22), (2, 17), (3, 15), (4, 10), (7, 5), (10, 1)]

    def test_infeasible(self, infeasible_instance):
        result = solve_exact(infeasible_instance)
        assert result.infeasible
        assert result.images == () and result.lower_bounds == ()

    def test_records_are_feasible_with_correct_images(self, two_obj_triangle):
        result = solve_exact(two_obj_triangle)
        for rec in result.records:
            assert is_feasible(two_obj_triangle, rec.assignment)
            assert image(two_obj_triangle, rec.assignment) == rec.image


class TestIntervalDriver:
    def test_single_call_ratio_two(self, unconstrained_biobjective):
        result = intre_solve(unconstrained_biobjective, schedule(2, target=2))
        assert sorted(result.lower_bounds) == [(1, 16), (2, 8), (4, 4), (8, 1)]
        assert result.warranted_ratio == 2
        # each image weakly dominated by a distinct lower bound, within ratio 2
        assert len(result.images) == len(result.lower_bounds) == 4
        used = set()
        for img in result.images:
            matches = [lb for lb in result.lower_bounds
                       if weakly_dominates(lb, img) and lb not in used
                       and all(i <= 2 * l for i, l in zip(img, lb))]
            assert matches
            used.add(matches[0])

    def test_two_iteration_trace(self, unconstrained_biobjective):
        result = intre_solve(unconstrained_biobjective, schedule(4, divisor=3, target=2))
        assert sorted(result.lower_bounds) == [(1, 16), (3, 15), (4, 4), (10, 1)]
        first, second = result.trace
        assert first.ratio == 4 and second.ratio == 2
        assert sorted(first.new_images) == [(3, 15), (10, 1)]
        assert sorted(first.new_lower_bounds) == [(1, 4), (4, 1)]
        assert sorted(second.new_lower_bounds) == [(1, 16), (4, 4)]

    def test_runs_to_exact_front(self, unconstrained_biobjective):
        result = intre_solve(unconstrained_biobjective, schedule(4, divisor=2))
        assert sorted(result.images) == [
            (1, 22), (2, 17), (3, 15), (4, 10), (7, 5), (10, 1)]
        assert sorted(result.lower_bounds) == sorted(result.images)

    def test_infeasible(self, infeasible_instance):
        result = intre_solve(infeasible_instance, schedule(2))
        assert result.infeasible


class TestCoefficientDriver:
    def test_single_iteration_ratio_four(self, unconstrained_biobjective):
        result = core_solve(unconstrained_biobjective, schedule(4, target=4))
        assert sorted(result.lower_bounds) == [
            (1, 17), (2, 13), (3, 9), (4, 5), (5, 1)]
        ok, _ = verify_approximation(result.records, unconstrained_biobjective, 4)
        assert ok

    def test_two_iteration_trace(self, unconstrained_biobjective):
        result = core_solve(unconstrained_biobjective, schedule(4, divisor=3, target=2))
        assert sorted(result.lower_bounds) == [
            (1, 17), (2, 13), (4, 9), (6, 5), (8, 1)]
        assert result.warranted_ratio == 2
        assert epsilon_indicator(result.images, result.lower_bounds) <= 2
        ok, _ = verify_approximation(result.records, unconstrained_biobjective, 2)
        assert ok

    def test_exact_when_start_ratio_one(self, unconstrained_biobjective):
        result = core_solve(unconstrained_biobjective, schedule(1))
        assert sorted(result.images) == [
            (1, 22), (2, 17), (3, 15), (4, 10), (7, 5), (10, 1)]
        assert len(result.trace) == 1

    def test_runs_to_exact_front(self, unconstrained_biobjective):
        result = core_solve(unconstrained_biobjective, schedule(4, divisor=2))
        assert sorted(result.images) == [
            (1, 22), (2, 17), (3, 15), (4, 10), (7, 5), (10, 1)]

    def test_unchanged_rounding_across_iterations(self, unconstrained_biobjective):
        # objective 2 rounds identically at ratios 4 and 2, so iteration 2
        # rebuilds the same ladder in its fresh solver
        result = core_solve(unconstrained_biobjective, schedule(4, divisor=2, target=2))
        assert sorted(result.lower_bounds) == [
            (1, 17), (2, 13), (4, 9), (6, 5), (8, 1)]

    def test_per_iteration_sizes_on_covering_instance(self):
        # objective 1 rounds to itself at every ratio, so three of the eight
        # ladders repeat one built in an earlier iteration's solver
        result = core_solve(generate_mscp(20, 6, 2, seed=5),
                            RatioSchedule(start=11, divisor=10))
        assert [(t.ratio, t.objective_clauses, t.mcs_count) for t in result.trace] == [
            (11, 1890, 1), (2, 3179, 1), (Fraction(11, 10), 34913, 0),
            (Fraction(101, 100), 42784, 0)]
        assert result.warranted_ratio == 1
        assert len(result.records) == 1


class TestEfficientSet:
    def test_triangle_three_solutions(self, two_obj_triangle):
        records, complete = enumerate_efficient_set(two_obj_triangle)
        assert complete
        assert sorted(r.assignment for r in records) == [
            (0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_shared_image_enumerates_all(self):
        # x1 + ~x1 is constant under f1; both assignments of x2 tie on f
        instance = Instance(
            num_vars=2,
            constraints=(),
            objectives=(LinearExpr(((1, Literal(1)),)),),
        )
        records, complete = enumerate_efficient_set(instance)
        assert complete
        assert sorted(r.assignment for r in records) == [(0, 0), (0, 1)]

    def test_unique_optimum(self):
        instance = Instance(
            num_vars=2,
            constraints=(),
            objectives=(LinearExpr(((1, Literal(1)), (2, Literal(2)))),),
        )
        records, complete = enumerate_efficient_set(instance)
        assert complete
        assert [r.assignment for r in records] == [(0, 0)]

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(41)
        for _ in range(15):
            instance = random_instance(rng, max_vars=8, max_cons=5)
            records, complete = enumerate_efficient_set(instance)
            assert complete
            expected = brute_force_pareto(instance)
            assert sorted(r.assignment for r in records) == sorted(
                r.assignment for r in expected.efficient)


class TestUpdateRatio:
    def test_divide_by_ten(self):
        sched = schedule(2, divisor=10)
        assert update_ratio(sched, Fraction(2)) == Fraction(11, 10)

    def test_floor_snaps_to_exact(self):
        sched = schedule(2, divisor=10)
        assert update_ratio(sched, 1 + Fraction(5, 100000)) == 1

    def test_zero_is_fixed_point(self):
        assert update_ratio(schedule(2), Fraction(1)) == 1

    def test_never_below_target(self):
        sched = schedule(4, divisor=10, target=Fraction(3, 2))
        assert update_ratio(sched, Fraction(4)) == Fraction(3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            RatioSchedule(start=Fraction(2), divisor=Fraction(1))
        with pytest.raises(ValueError):
            RatioSchedule(start=Fraction(1), target=Fraction(2))
        with pytest.raises(ValueError):
            RatioSchedule(start=Fraction(2), budget_s=0)


class TestBudget:
    def test_zero_ish_budget_truncates(self, unconstrained_biobjective):
        result = core_solve(unconstrained_biobjective,
                            schedule(1, budget=1e-9))
        assert result.truncated
        assert result.warranted_ratio is None
        assert result.lower_bounds == ()

    def test_partial_records_kept(self, unconstrained_biobjective):
        result = intre_solve(unconstrained_biobjective, schedule(1, budget=1e-9))
        assert result.truncated

    def test_interval_driver_returns_near_budget(self):
        # few conflicts per solve call: the deadline must still be read
        instance = generate_mscp(60, 20, 3, 2)
        start = time.monotonic()
        result = intre_solve(instance, RatioSchedule(start=101, divisor=10, budget_s=3))
        assert result.truncated
        assert time.monotonic() - start < 3 + 2

    def test_memory_cap_truncates(self, unconstrained_biobjective):
        tight = RatioSchedule(start=Fraction(4), divisor=Fraction(2),
                              memory_cap_mb=1e-6)
        result = core_solve(unconstrained_biobjective, tight)
        assert result.truncated
        # a generous cap lets iterations complete and never truncates
        roomy = RatioSchedule(start=Fraction(4), divisor=Fraction(2),
                              memory_cap_mb=64)
        result = core_solve(unconstrained_biobjective, roomy)
        assert not result.truncated
        assert result.warranted_ratio == 1


class TestDeterminism:
    def test_identical_runs_identical_results(self, unconstrained_biobjective):
        a = core_solve(unconstrained_biobjective, schedule(4, divisor=2))
        b = core_solve(unconstrained_biobjective, schedule(4, divisor=2))
        assert a.records == b.records
        assert a.lower_bounds == b.lower_bounds
        assert [t.new_images for t in a.trace] == [t.new_images for t in b.trace]


class TestCrossValidation:
    @pytest.mark.parametrize("mode", ["interval", "coeff"])
    @pytest.mark.parametrize("start", [Fraction(3, 2), 2, 11])
    def test_random_instances_meet_guarantees(self, mode, start):
        rng = random.Random(f"{mode}-{start}")
        driver = intre_solve if mode == "interval" else core_solve
        for _ in range(6):
            instance = random_instance(rng, max_vars=10, max_cons=6)
            oracle = brute_force_pareto(instance)
            result = driver(instance, schedule(start, target=start))
            if oracle.feasible_count == 0:
                assert result.infeasible
                continue
            assert not result.truncated
            ok, counterexample = verify_approximation(result.records, instance, start)
            assert ok, (instance, counterexample)
            # every Pareto point weakly dominated by some lower bound
            for z in oracle.pareto_front:
                assert any(weakly_dominates(lb, z) for lb in result.lower_bounds)
            # sandwich: the lower-bound set gives a bound at least as loose
            # as the true front, and both stay within the warranted ratio
            eps_lb = epsilon_indicator(result.images, result.lower_bounds)
            eps_front = epsilon_indicator(result.images, list(oracle.pareto_front))
            assert eps_front <= eps_lb <= start
            # records mutually nondominated and the lower bounds too
            assert nondominated_filter(list(result.images)) == list(result.images)
            assert nondominated_filter(list(result.lower_bounds)) == list(result.lower_bounds)

    def test_exact_equals_oracle_on_random_instances(self):
        rng = random.Random(77)
        for _ in range(10):
            instance = random_instance(rng, max_vars=11, max_cons=7)
            oracle = brute_force_pareto(instance)
            result = solve_exact(instance)
            assert sorted(result.images) == sorted(oracle.pareto_front)
            assert sorted(result.lower_bounds) == sorted(oracle.pareto_front)

    def test_single_objective_and_three_objectives(self):
        rng = random.Random(13)
        for num_obj in (1, 3):
            for _ in range(4):
                instance = random_instance(rng, max_vars=9, max_cons=5,
                                           num_obj=num_obj)
                oracle = brute_force_pareto(instance)
                for driver in (solve_exact,
                               lambda i: intre_solve(i, schedule(1))):
                    result = driver(instance)
                    assert sorted(result.images) == sorted(oracle.pareto_front)
