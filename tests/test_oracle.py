import random

import numpy as np
import pytest

from mobosat.model import SolutionRecord, image, is_feasible
from mobosat.oracle import (
    OracleCapError,
    _pareto_of_unique,
    all_mcs_bruteforce,
    brute_force_pareto,
    verify_approximation,
)


class TestBruteForcePareto:
    def test_triangle_example(self, two_obj_triangle):
        report = brute_force_pareto(two_obj_triangle)
        assert sorted(report.pareto_front) == [(1, 4), (2, 2), (4, 1)]
        assert len(report.efficient) == 3
        assert report.feasible_count == 4
        for rec in report.efficient:
            assert is_feasible(two_obj_triangle, rec.assignment)
            assert image(two_obj_triangle, rec.assignment) == rec.image

    def test_biobjective_front(self, unconstrained_biobjective):
        report = brute_force_pareto(unconstrained_biobjective)
        assert sorted(report.pareto_front) == [
            (1, 22), (2, 17), (3, 15), (4, 10), (7, 5), (10, 1)]
        assert report.feasible_count == 16

    def test_infeasible(self, infeasible_instance):
        report = brute_force_pareto(infeasible_instance)
        assert report.pareto_front == ()
        assert report.efficient == ()
        assert report.feasible_count == 0

    def test_cap(self, two_obj_triangle):
        with pytest.raises(OracleCapError):
            brute_force_pareto(two_obj_triangle, cap=2)


class TestParetoSweep:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_matches_definition_with_ties(self, p):
        rng = random.Random(p)
        for _ in range(40):
            rows = {tuple(rng.randint(0, 3) for _ in range(p))
                    for _ in range(rng.randint(1, 60))}
            distinct = np.array(sorted(rows), dtype=np.int64)
            expected = [
                not any(all(o <= r for o, r in zip(other, row)) and other != row
                        for other in rows)
                for row in sorted(rows)
            ]
            assert _pareto_of_unique(distinct).tolist() == expected


class TestVerifyApproximation:
    def test_center_point_is_2_approximation(self, two_obj_triangle):
        rec = SolutionRecord((1, 0, 1), (2, 2))
        ok, _ = verify_approximation([rec], two_obj_triangle, 2)
        assert ok

    def test_dominated_point_needs_ratio_3(self, two_obj_triangle):
        rec = SolutionRecord((1, 1, 1), (3, 3))
        ok, _ = verify_approximation([rec], two_obj_triangle, 3)
        assert ok
        ok, counterexample = verify_approximation([rec], two_obj_triangle, 2.5)
        assert not ok
        assert counterexample is not None
        assert is_feasible(two_obj_triangle, counterexample)
        # the violating point: (3,3) is not within 2.5x of it in every coordinate
        bad_image = image(two_obj_triangle, counterexample)
        assert any(2 * 3 > 5 * c for c in bad_image)

    def test_full_front_is_exact(self, two_obj_triangle):
        report = brute_force_pareto(two_obj_triangle)
        ok, _ = verify_approximation(report.efficient, two_obj_triangle, 1)
        assert ok

    def test_empty_records_only_for_infeasible(self, two_obj_triangle, infeasible_instance):
        ok, _ = verify_approximation([], infeasible_instance, 1)
        assert ok
        ok, _ = verify_approximation([], two_obj_triangle, 1)
        assert not ok


class TestEncodingCorrespondence:
    def test_mcs_reps_equal_front_on_tiny_instances(self):
        # dual route: enumerate every MCS of the encoded formula by brute
        # force and check the representative points are exactly the front
        from mobosat.encode import Encoder, encode_instance_constraints, encode_objective
        from mobosat.model import (
            Instance, LinearExpr, Literal, PBConstraint, normalize_expression)
        from mobosat.sat import SatSolver

        rng = random.Random(61)
        checked = 0
        for _ in range(40):
            num_vars = rng.randint(2, 4)
            constraints = []
            for _ in range(rng.randint(0, 2)):
                vs = rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars))
                lhs, bound = normalize_expression(
                    [(rng.randint(-2, 3), Literal(v)) for v in vs], rng.randint(0, 3))
                con = PBConstraint(lhs, bound)
                if not con.trivial:
                    constraints.append(con)
            objectives = tuple(
                LinearExpr(tuple((rng.randint(1, 3), Literal(v, rng.random() < 0.5))
                                 for v in range(1, num_vars + 1)),
                           rng.randint(0, 2))
                for _ in range(2)
            )
            instance = Instance(num_vars=num_vars, constraints=tuple(constraints),
                                objectives=objectives)
            solver = SatSolver()
            encoder = Encoder(solver)
            encode_instance_constraints(encoder, instance)
            if not solver.propagate_root():
                assert brute_force_pareto(instance).feasible_count == 0
                continue
            per_obj = []
            thresholds = []
            for k, f in enumerate(instance.objectives):
                ladder = encode_objective(encoder, k, f, eager=True)
                domain = ladder.reachable_values()
                domain.append(domain[-1] + 1)
                per_obj.append([ladder.encode_lt(d) for d in domain])
                thresholds.append(domain)
            if solver.num_vars > 20:
                continue  # above the brute-force cap
            checked += 1
            lines = solver.to_dimacs().strip().splitlines()[1:]
            hard = [[int(tok) for tok in line.split()[:-1]] for line in lines]
            softs = [lit for lits in per_obj for lit in lits]
            mcses = all_mcs_bruteforce(hard, softs)
            offsets = [0]
            for lits in per_obj[:-1]:
                offsets.append(offsets[-1] + len(lits))
            reps = []
            for mcs in mcses:
                rep = []
                for k, lits in enumerate(per_obj):
                    positions = sorted(i - offsets[k] for i in mcs
                                       if offsets[k] <= i < offsets[k] + len(lits))
                    assert positions == list(range(len(positions))), "not a prefix"
                    rep.append(thresholds[k][len(positions) - 1])
                reps.append(tuple(rep))
            front = brute_force_pareto(instance).pareto_front
            assert sorted(reps) == sorted(front), (instance, reps, front)
        assert checked >= 15


class TestAllMcsBruteForce:
    def test_two_mcs_example(self):
        hard = [[-1, -2, -3], [1, 2], [-1, 2, 3]]
        softs = [-1, -2, -3]
        got = set(all_mcs_bruteforce(hard, softs))
        assert got == {frozenset({0, 2}), frozenset({1})}

    def test_jointly_satisfiable(self):
        assert all_mcs_bruteforce([[1, 2]], [1, -2]) == (frozenset(),)

    def test_cap(self):
        with pytest.raises(OracleCapError):
            all_mcs_bruteforce([[21]], [21], var_cap=20)

    def test_agrees_with_definition_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(25):
            num_vars = rng.randint(2, 5)
            hard = []
            for _ in range(rng.randint(0, 6)):
                vs = rng.sample(range(1, num_vars + 1), rng.randint(1, min(3, num_vars)))
                hard.append([v if rng.random() < 0.5 else -v for v in vs])
            softs = [v if rng.random() < 0.5 else -v
                     for v in rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars))]
            got = set(all_mcs_bruteforce(hard, softs))

            # independent check straight from the definition, subset by subset
            import itertools
            def sat(extra_units):
                for bits in itertools.product((0, 1), repeat=num_vars):
                    def val(l):
                        v = bits[abs(l) - 1]
                        return bool(v) if l > 0 else not v
                    if all(any(val(l) for l in cl) for cl in hard) and \
                       all(val(u) for u in extra_units):
                        return True
                return False

            expected = set()
            indices = list(range(len(softs)))
            for r in range(len(softs) + 1):
                for subset in itertools.combinations(indices, r):
                    c = frozenset(subset)
                    if any(existing < c for existing in expected):
                        continue
                    keep = [softs[i] for i in indices if i not in c]
                    if sat(keep) and all(
                        not sat(keep + [softs[i]]) for i in c
                    ):
                        expected.add(c)
            assert got == expected, (hard, softs)
