import itertools
import random

import pytest

from mobosat.sat import SatSolver, SolveBudgetExceeded


def brute_force_sat(num_vars, clauses, assumptions=()):
    for bits in itertools.product((False, True), repeat=num_vars):
        def val(literal):
            v = bits[abs(literal) - 1]
            return v if literal > 0 else not v
        if all(val(a) for a in assumptions) and all(any(val(l) for l in cl) for cl in clauses):
            return True
    return False


def make_solver(num_vars, clauses):
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    return solver


class TestBasics:
    def test_new_var_strictly_increasing(self):
        solver = SatSolver()
        assert solver.new_var() == 1
        for i in range(2, 6):
            assert solver.new_var() == i
        solver.add_clause([1, -2])
        assert solver.new_var() == 6

    def test_two_clause_formula_sat(self):
        solver = make_solver(2, [[1, -2], [-1, -2]])
        assert solver.solve()
        assert solver.model_value(2) is False

    def test_adding_unit_makes_unsat(self):
        solver = make_solver(2, [[1, -2], [-1, -2]])
        solver.add_clause([2])
        assert not solver.solve()
        # monotone: stays unsat forever
        assert not solver.solve()
        assert not solver.solve([1])

    def test_empty_formula_sat(self):
        assert SatSolver().solve()

    def test_empty_clause_unsat(self):
        solver = SatSolver()
        solver.add_clause([])
        assert not solver.solve()

    def test_assumptions(self):
        solver = make_solver(2, [[1, -2], [-1, -2]])
        assert not solver.solve([2])
        assert solver.solve([-2])
        solver = make_solver(1, [])
        assert solver.solve([1])
        assert solver.model_value(1) is True

    def test_hard_clauses_of_mcs_example(self):
        solver = make_solver(3, [[-1, -2, -3], [1, 2], [-1, 2, 3]])
        assert solver.solve()

    def test_model_is_complete(self):
        solver = make_solver(4, [[1, 2]])
        assert solver.solve()
        assert len(solver.model_assignment()) == 4


class TestDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_with_truth_table(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            num_vars = rng.randint(1, 9)
            num_clauses = rng.randint(1, 42)
            clauses = []
            for _ in range(num_clauses):
                width = rng.randint(1, min(3, num_vars))
                vs = rng.sample(range(1, num_vars + 1), width)
                clauses.append([v if rng.random() < 0.5 else -v for v in vs])
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), rng.randint(0, min(2, num_vars)))
            ]
            solver = make_solver(num_vars, clauses)
            got = solver.solve(assumptions)
            assert got == brute_force_sat(num_vars, clauses, assumptions)
            if got:
                model = solver.model_assignment(num_vars)
                def val(literal):
                    v = model[abs(literal) - 1]
                    return bool(v) if literal > 0 else not v
                assert all(any(val(l) for l in cl) for cl in clauses)
                assert all(val(a) for a in assumptions)

    def test_agreement_at_larger_width(self):
        # a few wider formulas near the practical truth-table limit
        rng = random.Random(1234)
        for _ in range(8):
            num_vars = rng.randint(12, 14)
            clauses = []
            for _ in range(int(num_vars * 4.0)):
                vs = rng.sample(range(1, num_vars + 1), 3)
                clauses.append([v if rng.random() < 0.5 else -v for v in vs])
            solver = make_solver(num_vars, clauses)
            got = solver.solve()
            assert got == brute_force_sat(num_vars, clauses)
            if got:
                model = solver.model_assignment(num_vars)
                def val(literal):
                    v = model[abs(literal) - 1]
                    return bool(v) if literal > 0 else not v
                assert all(any(val(l) for l in cl) for cl in clauses)

    def test_incremental_growth(self):
        rng = random.Random(11)
        num_vars = 8
        solver = make_solver(num_vars, [])
        clauses = []
        for _ in range(50):
            vs = rng.sample(range(1, num_vars + 1), 3)
            clause = [v if rng.random() < 0.5 else -v for v in vs]
            clauses.append(clause)
            solver.add_clause(clause)
            assert solver.solve() == brute_force_sat(num_vars, clauses)
            if not solver.ok:
                break


class TestDeterminism:
    def _run(self):
        rng = random.Random(3)
        solver = make_solver(30, [])
        models = []
        for _ in range(100):
            vs = rng.sample(range(1, 31), 3)
            solver.add_clause([v if rng.random() < 0.5 else -v for v in vs])
            if solver.solve():
                models.append(solver.model_assignment())
            else:
                break
        return models

    def test_identical_histories_identical_models(self):
        assert self._run() == self._run()


class TestExtras:
    def test_fixed_literals_after_root_propagation(self):
        solver = make_solver(3, [[1], [-1, 2]])
        assert solver.propagate_root()
        assert set(solver.fixed_literals()) == {1, 2}

    def test_dimacs_dump(self):
        solver = make_solver(2, [[1, -2], [-1, -2]])
        text = solver.to_dimacs()
        lines = text.strip().splitlines()
        assert lines[0] == "p cnf 2 2"
        assert set(lines[1:]) == {"1 -2 0", "-1 -2 0"}

    def test_deadline_interrupts(self):
        # pigeonhole is hard enough to outlast a 1ms deadline
        solver = SatSolver()
        holes = 7
        var = {}
        for p in range(holes + 1):
            for h in range(holes):
                var[p, h] = solver.new_var()
        for p in range(holes + 1):
            solver.add_clause([var[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(holes + 1):
                for p2 in range(p1 + 1, holes + 1):
                    solver.add_clause([-var[p1, h], -var[p2, h]])
        import time
        with pytest.raises(SolveBudgetExceeded):
            solver.solve(deadline=time.monotonic() + 0.001)

    def test_expired_deadline_raises_before_any_decision(self):
        # satisfiable without a single conflict: the clock must be read anyway
        solver = make_solver(20, [[v, v + 1] for v in range(1, 20)])
        import time
        with pytest.raises(SolveBudgetExceeded):
            solver.solve(deadline=time.monotonic() - 1)
        assert solver.stats["decisions"] == 0
        assert solver.solve()
