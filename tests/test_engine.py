import dataclasses
import itertools
import logging
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from mobosat import engine
from mobosat.approx import approx_coefficients
from mobosat.engine import (
    RatioSchedule,
    _complete_ladder,
    _constrained_solver,
    _Walk,
    core_solve,
    enumerate_efficient_set,
    intre_solve,
    mcs_approx,
    solve_exact,
    update_ratio,
)
from mobosat.io import generate_mscp
from mobosat.mcs import McsInvariantError
from mobosat.model import (
    Instance,
    LinearExpr,
    Literal,
    PBConstraint,
    SolutionRecord,
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
        # each iteration's solvers create only the threshold literals asked
        # for, not one per attainable value of each rounded objective (which
        # would be 20 + 56, 20 + 155, 20 + 779 and 20 + 802 here); the count
        # sums the extraction solver and, unless the rounding is the
        # identity, the walk solver.  At ratio 11 the four clause-D rounds of
        # the one MCS ask the extraction solver for 11 next to their
        # witnesses' values, and the walk of its witness, already at
        # (3, 45), asks the walk solver for one hold threshold per
        # objective, 2, and for the bound of the objectives' sum below 48,
        # 1.  At ratio 2 the region block of the known record and one round
        # ask for 5; the witness, at (3, 53), walks one step to (3, 45): 2
        # holds and the bound below 56 for the first step, then the second
        # objective's new hold and the bound below 48 for the second, 2.  At
        # ratios 11/10 and 101/100 only the region block of the known record
        # asks, for one threshold per objective, and no MCS is left to walk
        result = core_solve(generate_mscp(20, 6, 2, seed=5),
                            RatioSchedule(start=11, divisor=10))
        assert [(t.ratio, t.objective_clauses, t.mcs_count) for t in result.trace] == [
            (11, 11 + 2 + 1, 1), (2, 5 + 3 + 2, 1), (Fraction(11, 10), 2, 0),
            (Fraction(101, 100), 2, 0)]
        assert result.warranted_ratio == 1
        assert len(result.records) == 1
        assert sorted(result.lower_bounds) == [(3, 45)]

    @pytest.mark.parametrize("case", ["small covers", "conflict pool"])
    def test_lower_bounds_are_the_rounded_front(self, case):
        # a completed iteration's L is the front of the rounded objectives at
        # its ratio: every representative is rounded-Pareto, and every
        # rounded-Pareto point is a seed or a representative.  So L does not
        # depend on which witnesses the search and the walk returned, even
        # when earlier iterations' records seed it
        if case == "small covers":
            runs = [(generate_mscp(n, m, p, seed), schedule(11, target=2))
                    for n, m, p in SMALL_COVER for seed in (1, 2)]
        else:
            pool, target = _conflict_pool()
            runs = [(instance, schedule(11, target=target)) for instance in pool]
        for instance, sched in runs:
            result = core_solve(instance, sched)
            assert not result.truncated and result.warranted_ratio == sched.target
            rounded = dataclasses.replace(instance, objectives=tuple(
                approx_coefficients(f, result.warranted_ratio).approx
                for f in instance.objectives))
            assert sorted(result.lower_bounds) == sorted(brute_force_pareto(rounded).pareto_front)


FRONT = [(1, 22), (2, 17), (3, 15), (4, 10), (7, 5), (10, 1)]


def _witness(instance, assignment):
    return SolutionRecord(tuple(assignment), image(instance, assignment))


class TestParetoWalk:
    def test_walk_reaches_a_dominating_front_point(self, unconstrained_biobjective):
        instance = unconstrained_biobjective
        walk = _Walk.build(instance, None)
        for assignment in itertools.product((0, 1), repeat=instance.num_vars):
            start = _witness(instance, assignment)
            walked, steps = walk.run(instance, start)
            assert (steps >= 1) == (start.image not in FRONT)
            assert walked.image in FRONT and weakly_dominates(walked.image, start.image)
            assert walked.image == image(instance, walked.assignment)
            # from a front point the first step is unsatisfiable
            assert walk.run(instance, walked) == (walked, 0)

    def test_walk_on_a_constrained_instance(self, two_obj_triangle):
        # the walk solver holds the constraint's encoding ahead of the
        # thresholds, none of which the start assigns
        instance = two_obj_triangle
        walk = _Walk.build(instance, None)
        front = set(brute_force_pareto(instance).pareto_front)
        for assignment in itertools.product((0, 1), repeat=instance.num_vars):
            if is_feasible(instance, assignment):
                walked, _ = walk.run(instance, _witness(instance, assignment))
                assert walked.image in front
                assert weakly_dominates(walked.image, image(instance, assignment))

    def test_sum_bound_over_opposite_polarities(self):
        # in the objectives' sum x1 and x3 cancel into its constant, x2 keeps
        # 1, x4 flips to 2~x4 and x5 to ~x5: a bound on that sum that missed
        # an offset would refute a round that can still improve
        x = [None] + [Literal(v) for v in range(1, 6)]
        nx = [None] + [Literal(v, True) for v in range(1, 6)]
        instance = Instance(
            num_vars=5,
            constraints=(PBConstraint(LinearExpr(((1, x[1]), (1, x[2]), (1, x[4]))), 2),),
            objectives=(
                LinearExpr(((3, x[1]), (2, x[2]), (1, nx[3]), (2, x[5])), 1),
                LinearExpr(((3, nx[1]), (1, x[3]), (3, nx[4]), (1, nx[5]))),
                LinearExpr(((1, nx[2]), (1, x[4]), (2, nx[5])), 2),
            ),
        )
        walk = _Walk.build(instance, None)
        front = set(brute_force_pareto(instance).pareto_front)
        for assignment in itertools.product((0, 1), repeat=instance.num_vars):
            if is_feasible(instance, assignment):
                walked, steps = walk.run(instance, _witness(instance, assignment))
                assert walked.image in front
                assert weakly_dominates(walked.image, image(instance, assignment))
                assert (steps >= 1) == (image(instance, assignment) not in front)

    def test_constant_sum_keeps_every_start(self):
        # f1 + f2 == 2 everywhere: every point is on the front, and each walk
        # ends after one solve under the constant-false bound of a sum with
        # no terms
        instance = Instance(
            num_vars=2, constraints=(),
            objectives=(LinearExpr(((1, Literal(1)), (1, Literal(2)))),
                        LinearExpr(((1, Literal(1, True)), (1, Literal(2, True))))),
        )
        walk = _Walk.build(instance, None)
        for assignment in itertools.product((0, 1), repeat=instance.num_vars):
            start = _witness(instance, assignment)
            calls = walk.solver.stats["solve_calls"]
            assert walk.run(instance, start) == (start, 0)
            assert walk.solver.stats["solve_calls"] == calls + 1

    def test_walk_stops_at_the_deadline(self, unconstrained_biobjective):
        instance = unconstrained_biobjective
        walk = _Walk.build(instance, None)
        walk.solver.deadline = time.monotonic() - 1
        start = SolutionRecord((1, 0, 0, 0), (4, 18))
        assert walk.run(instance, start) == (start, 0)

    @pytest.mark.parametrize("corruption", ["stale", "hold"])
    def test_walk_steps_are_checked(self, unconstrained_biobjective, corruption):
        # the first satisfiable answer of the walk comes back with the start's
        # values of the instance variables (no move), or with its last
        # assumption, the hold literal of the last objective, flipped
        instance = unconstrained_biobjective
        walk = _Walk.build(instance, None)
        solver = walk.solver
        start = (1, 0, 0, 0)
        solve, corrupted = solver.solve, []

        def corrupting_solve(assumptions):
            sat = solve(assumptions)
            if sat and not corrupted:
                corrupted.append(True)
                if corruption == "stale":
                    solver.model[1:len(start) + 1] = [1 if a else -1 for a in start]
                else:
                    var = abs(assumptions[-1])
                    solver.model[var] = -solver.model[var]
            return sat

        solver.solve = corrupting_solve
        with pytest.raises(McsInvariantError):
            walk.run(instance, _witness(instance, start))
        assert corrupted

    def test_walk_asks_by_assumptions_alone(self, unconstrained_biobjective):
        # every variable a walk adds is a threshold, at most p + 1 before each
        # solve, and it adds no clause: no selector and no guarded clause
        for instance in (unconstrained_biobjective, generate_mscp(10, 4, 3, 1)):
            walk = _Walk.build(instance, None)
            solver, solve = walk.solver, walk.solver.solve

            def sizes():
                return solver.num_vars, solver.num_thresholds

            created, last = [], [sizes()]

            def counting_solve(assumptions):
                created.append(tuple(now - then for now, then in zip(sizes(), last[0])))
                sat = solve(assumptions)
                last[0] = sizes()
                return sat

            solver.solve = counting_solve
            clauses = solver.num_clauses
            for assignment in itertools.product((0, 1), repeat=instance.num_vars):
                if is_feasible(instance, assignment):
                    walk.run(instance, _witness(instance, assignment))
            assert created and solver.num_clauses == clauses
            assert all(vars_ == thresholds <= instance.num_objectives + 1
                       for vars_, thresholds in created)

    def test_coefficient_records_are_walked(self, unconstrained_biobjective):
        result = core_solve(unconstrained_biobjective, schedule(4, divisor=3, target=2))
        assert set(result.images) <= set(FRONT)


# the small covering instances of tools/fingerprint.py, each with seeds 1 and 2
SMALL_COVER = ((8, 3, 2), (10, 4, 2), (10, 4, 3), (12, 5, 2), (12, 4, 3), (14, 5, 2), (14, 6, 3))


def _conflict_pool():
    """The anytime benchmark's instances and target (``perfbench/workloads.py``)."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    return workloads.conflict_pool(), workloads.TARGET


def _extraction(instance, ratio):
    """An extraction solver as CoRe's first iteration at ``ratio`` builds it:
    the constraints and complete domains of the rounded objectives."""
    solver, encoder = _constrained_solver(instance, None)
    return solver, [_complete_ladder(encoder, k, approx_coefficients(f, ratio).approx)
                    for k, f in enumerate(instance.objectives)]


class TestWalkSolver:
    def test_extraction_is_independent_of_the_walk(self, unconstrained_biobjective):
        pool, _ = _conflict_pool()
        cases = [(unconstrained_biobjective, 4), (generate_mscp(14, 6, 3, 2), 11)]
        cases += [(instance, 11) for instance in pool]
        moved = 0
        for instance, ratio in cases:
            walked_solver, prepared = _extraction(instance, Fraction(ratio))
            walked = mcs_approx(walked_solver, prepared, instance, complete=True,
                                walk=_Walk.build(instance, None))
            plain_solver, prepared = _extraction(instance, Fraction(ratio))
            plain = mcs_approx(plain_solver, prepared, instance, complete=True)
            assert walked.completed and plain.completed
            assert walked.lower_bounds == plain.lower_bounds
            assert walked_solver.stats == plain_solver.stats
            assert all(weakly_dominates(w.image, p.image)
                       for w, p in zip(walked.records, plain.records))
            moved += sum(w.image != p.image for w, p in zip(walked.records, plain.records))
        assert moved  # some witness was walked off its own image

    def test_refuted_witness_raises(self, two_obj_triangle):
        instance = two_obj_triangle
        assignment = next(a for a in itertools.product((0, 1), repeat=instance.num_vars)
                          if not is_feasible(instance, a))
        walk = _Walk.build(instance, None)
        with pytest.raises(McsInvariantError, match="violates a constraint"):
            walk.run(instance, _witness(instance, assignment))
        assert walk.solver.stats["solve_calls"] == 0

    def test_deadline_in_the_first_round_keeps_the_witness(self, unconstrained_biobjective,
                                                           caplog):
        caplog.set_level(logging.DEBUG, logger="mobosat.engine")
        instance = unconstrained_biobjective
        solver, prepared = _extraction(instance, Fraction(4))
        plain = mcs_approx(solver, prepared, instance, complete=True)
        walk = _Walk.build(instance, time.monotonic() - 1)
        solver, prepared = _extraction(instance, Fraction(4))
        caplog.clear()
        outcome = mcs_approx(solver, prepared, instance, complete=True, walk=walk)
        assert outcome.completed and outcome.records == plain.records
        # the first round's threshold, created past the deadline, raises
        # before the round solves
        assert walk.solver.stats["solve_calls"] == 0
        steps = [TestMcsLog.LINE.match(r.getMessage()).group(6) for r in caplog.records
                 if r.getMessage().startswith("mcs ")]
        assert steps == ["0"] * len(outcome.records)

    # on unconstrained_biobjective, TestParetoWalk checks the same
    @pytest.mark.parametrize("case", ["small covers", "conflict pool"])
    def test_coefficient_records_are_on_the_front(self, case):
        if case == "small covers":
            runs = [(generate_mscp(n, m, p, seed), schedule(2))
                    for n, m, p in SMALL_COVER for seed in (1, 2)]
        else:
            pool, target = _conflict_pool()
            runs = [(instance, schedule(11, target=target)) for instance in pool]
        for instance, sched in runs:
            front = set(brute_force_pareto(instance).pareto_front)
            result = core_solve(instance, sched)
            assert result.records and set(result.images) <= front


class TestMcsLog:
    LINE = re.compile(r"mcs (\d+): rep=\(.*\) image=\(.*\) solves=(\d+) conflicts=(\d+) "
                      r"propagations=(\d+) rounds=(\d+) walk=(\d+)$")

    def lines(self, caplog):
        return [self.LINE.match(r.getMessage()) for r in caplog.records
                if r.getMessage().startswith("mcs ")]

    def test_one_debug_line_per_mcs(self, unconstrained_biobjective, caplog):
        caplog.set_level(logging.DEBUG, logger="mobosat.engine")
        result = core_solve(unconstrained_biobjective, schedule(4, divisor=3, target=2))
        lines = self.lines(caplog)
        assert all(lines) and len(lines) == sum(t.mcs_count for t in result.trace)
        for match in lines:
            solves, conflicts, propagations, rounds, walk = map(int, match.groups()[1:])
            # the extraction solver's first solve and clause-D rounds, then
            # the walk's steps and its last, unsatisfiable step: the walk
            # starts from the witness's assignment, with no solve of its own
            assert solves == 1 + rounds + walk + 1
            assert propagations > 0

    def test_no_walk_on_exact_objectives(self, unconstrained_biobjective, caplog):
        caplog.set_level(logging.DEBUG, logger="mobosat.engine")
        result = solve_exact(unconstrained_biobjective)
        lines = self.lines(caplog)
        assert len(lines) == len(result.records) == 6
        assert all(int(match.group(6)) == 0 for match in lines)  # walk steps
        assert all(int(match.group(2)) == 1 + int(match.group(5)) for match in lines)


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

    def test_witness_checked_against_representative(self, two_obj_triangle, monkeypatch):
        extract = engine.extract_mcs

        def corrupted(solver, softs, assumptions=()):
            mcs = extract(solver, softs, assumptions)
            if mcs is None:
                return None
            rep = (mcs.representative[0] - 1,) + mcs.representative[1:]
            return dataclasses.replace(mcs, representative=rep)

        monkeypatch.setattr(engine, "extract_mcs", corrupted)
        with pytest.raises(McsInvariantError):
            enumerate_efficient_set(two_obj_triangle)


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
        # few conflicts per solve call: the deadline must still be read.
        # IntRe(101,10) takes 3.4 to 3.9 s to reach ratio 1 here, so a 1 s
        # budget truncates the run with room for a faster solver
        instance = generate_mscp(60, 20, 3, 2)
        start = time.monotonic()
        result = intre_solve(instance, RatioSchedule(start=101, divisor=10, budget_s=1))
        assert result.truncated
        assert time.monotonic() - start < 1 + 2

    def test_exact_solve_returns_near_budget(self):
        # the exact front of this instance (25 points) takes 2.5 to 3.4 s on
        # a 2-vCPU host, so a 0.5 s budget truncates the run with room for a
        # faster solver: the deadline must stop the run, not wait for it;
        # test_encode.py::TestDeadline checks that a ladder build stops at
        # the deadline too
        start = time.monotonic()
        result = solve_exact(generate_mscp(60, 20, 3, 2), budget_s=0.5)
        assert result.truncated
        assert time.monotonic() - start < 0.5 + 1.5

    def test_infeasible_reported_under_any_budget(self, infeasible_instance):
        for driver in (core_solve, intre_solve):
            result = driver(infeasible_instance, schedule(2, budget=1e-9))
            assert result.infeasible and not result.truncated
        assert enumerate_efficient_set(infeasible_instance, budget_s=1e-9) == ((), True)

    @pytest.mark.parametrize("budget", [0, -1, float("nan")])
    def test_non_positive_or_nan_budget_rejected(self, budget, unconstrained_biobjective):
        with pytest.raises(ValueError):
            RatioSchedule(start=Fraction(2), budget_s=budget)
        with pytest.raises(ValueError):
            enumerate_efficient_set(unconstrained_biobjective, budget_s=budget)


class TestInfeasible:
    def test_instance_refuted_only_by_search(self, search_refuted_instance):
        instance = search_refuted_instance
        assert _constrained_solver(instance, None)[0].ok
        for result in (solve_exact(instance), core_solve(instance, schedule(2)),
                       intre_solve(instance, schedule(2))):
            assert result.infeasible and not result.truncated
            assert result.records == () and result.warranted_ratio is None
        assert enumerate_efficient_set(instance) == ((), True)


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
