import hashlib
import itertools
import random
import types

import pytest

from mobosat.encode import Encoder, encode_instance_constraints, encode_objective
from mobosat import sat
from mobosat.mcs import SoftSet, extract_mcs
from mobosat.sat import SatSolver, SolveBudgetExceeded, _from_code


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

    def test_literal_zero_rejected(self):
        # 0 names no variable: it must not alias the reserved slot 0
        solver = make_solver(1, [])
        with pytest.raises(ValueError):
            solver.add_clause([0, 1])
        with pytest.raises(ValueError):
            solver.solve([0])
        solver.add_clause([-1])
        assert solver.solve()
        assert solver.model_value(1) is False


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


def _digest(models):
    return hashlib.sha256(repr(models).encode()).hexdigest()[:16]


class TestSearchIdentity:
    """Golden values of the search itself: a change to the solver's hot paths
    that alters a single propagation, decision or learnt clause moves them."""

    @pytest.mark.parametrize("var_inc, final_var_inc", [
        (1.0, 9.208494827774979e+30),
        # starts near the 1e100 limit, so analysis rescales every activity
        (1e97, 9.208494827774989e+27),
    ], ids=["plain", "rescale"])
    def test_incremental_random_3sat(self, var_inc, final_var_inc):
        # near the threshold: 1390 conflicts, 8 restarts, last call unsat
        rng = random.Random(7)
        num_vars = 150
        solver = make_solver(num_vars, [])
        solver.var_inc = var_inc
        models = []
        for i in range(int(num_vars * 4.25)):
            vs = rng.sample(range(1, num_vars + 1), 3)
            solver.add_clause([v if rng.random() < 0.5 else -v for v in vs])
            if i % 50 == 49:
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(range(1, num_vars + 1), 2)]
                models.append(solver.model_assignment() if solver.solve(assumptions) else None)
        assert solver.stats == {"solve_calls": 12, "decisions": 2565, "conflicts": 1390,
                                "propagations": 46860, "restarts": 8}
        assert len(solver.learnt_idxs) == 1390
        assert [m is None for m in models] == [False] * 11 + [True]
        assert _digest(models) == "913566a1af16b378"
        assert solver.var_inc == pytest.approx(final_var_inc, rel=1e-12)

    def test_extract_mcs_enumeration(self, unconstrained_biobjective):
        instance = unconstrained_biobjective
        solver = SatSolver()
        encoder = Encoder(solver)
        encode_instance_constraints(encoder, instance)
        ladders = [encode_objective(encoder, k, f, eager=True)
                   for k, f in enumerate(instance.objectives)]
        per_obj = []
        for ladder in ladders:
            reachable = ladder.reachable_values()
            domain = reachable + [reachable[-1] + 1]
            per_obj.append(tuple((d, ladder.encode_lt(d)) for d in domain))
        softs = SoftSet(tuple(per_obj))
        reps, models = [], []
        while (mcs := extract_mcs(solver, softs)) is not None:
            reps.append(mcs.representative)
            models.append(mcs.model)
            solver.add_clause([ladder.encode_lt(r) for ladder, r in zip(ladders, mcs.representative)])
        # the thresholds are native: branched on as true first, they lead
        # the search to the front from its low end in objective 1
        assert reps == [(1, 22), (2, 17), (4, 10), (3, 15), (7, 5), (10, 1)]
        assert [m[1:instance.num_vars + 1] for m in models] == [
            (-1, -1, -1, -1), (-1, -1, 1, -1), (-1, -1, 1, 1),
            (-1, -1, -1, 1), (-1, 1, 1, 1), (1, 1, 1, 1)]
        assert solver.stats == {"solve_calls": 16, "decisions": 17, "conflicts": 12,
                                "propagations": 342, "restarts": 0}
        assert len(solver.learnt_idxs) == 10
        assert _digest(models) == "a91aa1e2d0e3ffcd"

    def test_analysis_resolves_through_binary_reasons(self):
        # under x1, the decision -x6 implies x3 by [6, 3], x4 by [4, -3] and
        # -x5 by the ternary clause; [-4, 5] is then a binary conflict, and
        # first-UIP analysis resolves through the binary reasons of x4 and x3
        # (stored as [3, 6] once propagated) to learn [-3, -1]
        solver = make_solver(6, [[6, 3], [4, -3], [-4, 5], [-1, -3, -5], [2, -6, 1]])
        answers = []
        for assumptions in ([1], [1, 3], [-1, 3], [5, 1]):
            answers.append(solver.solve(assumptions) and solver.model_assignment())
        assert answers == [(1, 0, 0, 0, 0, 1), False, (0, 1, 1, 1, 1, 1), (1, 1, 0, 1, 1, 1)]
        assert [[_from_code(c) for c in solver.clauses[i]] for i in solver.learnt_idxs] == [[-3, -1]]
        assert solver.stats == {"solve_calls": 4, "decisions": 6, "conflicts": 1,
                                "propagations": 24, "restarts": 0}


class TestLevelZeroInvariant:
    """Every exit of ``solve`` leaves the solver at decision level 0 with only
    the root-level literals on the trail; ``add_clause``, ``propagate_root``,
    ``fixed_literals`` and ``to_dimacs`` rely on it."""

    @staticmethod
    def assert_at_root(solver, fixed):
        assert solver.trail_lim == []
        assert set(solver.fixed_literals()) == fixed

    def test_every_exit_of_solve(self, monkeypatch):
        # root units 1 and 2; 3 implies 5; under 3 and -4, 6 and -6 collide
        solver = make_solver(8, [[1], [-1, 2], [-3, 5], [-3, 4, 6], [-3, 4, -6], [7, 8]])
        root = {1, 2}
        assert solver.solve()
        assert solver.stats["decisions"] > 0
        self.assert_at_root(solver, root)
        assert not solver.solve([3, -5])  # the assumption -5 is false at level 1
        self.assert_at_root(solver, root)
        conflicts = solver.stats["conflicts"]
        assert not solver.solve([3, -4])  # the learnt clause refutes the assumptions
        assert solver.stats["conflicts"] == conflicts + 1
        self.assert_at_root(solver, root)
        with pytest.raises(ValueError):
            solver.solve([1, 9])
        self.assert_at_root(solver, root)
        # a clock that passes the deadline on its fourth reading, mid-search
        ticks = itertools.chain([0.0] * 3, itertools.repeat(1.0))
        monkeypatch.setattr(sat, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
        solver.deadline = 0.5
        decisions = solver.stats["decisions"]
        with pytest.raises(SolveBudgetExceeded):
            solver.solve()
        assert solver.stats["decisions"] > decisions
        self.assert_at_root(solver, root)
        solver.deadline = None
        assert solver.solve()
        self.assert_at_root(solver, root)

    def test_unsat_at_root(self):
        # deciding -1 learns the unit 1, whose propagation conflicts at level 0
        solver = make_solver(2, [[1, 2], [1, -2], [-1, 2], [-1, -2]])
        assert not solver.solve()
        assert not solver.ok and solver.stats["conflicts"] == 2
        self.assert_at_root(solver, {1, 2})


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

    def test_dimacs_dump_leaves_out_learnt_clauses(self):
        # any two variables false propagate to a conflict, so all-false
        # polarity learns a clause before it finds the model
        problem = [[1, 2, 3], [1, 2, -3], [1, -2, 3], [-1, 2, 3]]
        solver = make_solver(3, problem)
        assert solver.solve()
        assert solver.learnt_idxs
        lines = solver.to_dimacs().strip().splitlines()
        assert lines[0] == "p cnf 3 4"
        dumped = {frozenset(int(t) for t in line.split()[:-1]) for line in lines[1:]}
        assert dumped == {frozenset(clause) for clause in problem}

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
        solver.deadline = time.monotonic() + 0.001
        with pytest.raises(SolveBudgetExceeded):
            solver.solve()

    def test_expired_deadline_raises_before_any_decision(self):
        # satisfiable without a single conflict: the clock must be read anyway
        solver = make_solver(20, [[v, v + 1] for v in range(1, 20)])
        import time
        solver.deadline = time.monotonic() - 1
        with pytest.raises(SolveBudgetExceeded):
            solver.solve()
        assert solver.stats["decisions"] == 0
        solver.deadline = None
        assert solver.solve()


def brute_force_linear(num_vars, clauses, sums, assumptions):
    """Truth-table satisfiability of clauses plus threshold definitions.

    ``sums`` holds ``(terms, {bound: var})`` with ``var <-> sum(terms) < bound``;
    threshold variables are numbered after the ``num_vars`` instance ones.
    """
    for bits in itertools.product((False, True), repeat=num_vars):
        def val(literal):
            v = bits[abs(literal) - 1]
            return v if literal > 0 else not v
        if not all(any(val(l) for l in cl) for cl in clauses):
            continue
        value = {}
        for terms, ys in sums:
            total = sum(w for w, l in terms if val(l))
            value.update({y: total < b for b, y in ys.items()})
        if all(val(a) if abs(a) <= num_vars else value[abs(a)] == (a > 0)
               for a in assumptions):
            return True
    return False


def random_linear_solver(rng, max_vars):
    """A solver over random clauses and one or two random linear sums with
    random thresholds; returns it with its clauses and sums."""
    num_vars = rng.randint(1, max_vars)
    solver = make_solver(num_vars, [])
    clauses = []
    for _ in range(rng.randint(0, 4)):
        vs = rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        solver.add_clause(clauses[-1])
    sums = []
    for _ in range(rng.randint(1, 2)):
        terms = [(rng.randint(1, 6), v if rng.random() < 0.5 else -v)
                 for v in rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars))]
        lin = solver.new_linear(terms)
        total = sum(w for w, _ in terms)
        bounds = rng.sample(range(1, total + 1), rng.randint(1, total))
        sums.append((terms, {b: solver.threshold(lin, b) for b in bounds}))
    return solver, num_vars, clauses, sums


def pigeonhole_with_sum(holes):
    """Pigeonhole, ``holes + 1`` into ``holes``, with a sum over the pigeons
    of hole 0 that counts as busy from the start."""
    solver = SatSolver()
    pigeons = range(holes + 1)
    var = {(p, h): solver.new_var() for p in pigeons for h in range(holes)}
    for p in pigeons:
        solver.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1, p2 in itertools.combinations(pigeons, 2):
            solver.add_clause([-var[p1, h], -var[p2, h]])
    lin = solver.new_linear([(1, var[p, 0]) for p in pigeons])
    solver.BUSY_EXPLANATIONS = 0
    return solver, lin


def record_splits(solver):
    """Record each sum the solver's restarts split, with the decision levels
    open at the time."""
    calls = []
    split = solver._split
    solver._split = lambda lin: (calls.append((lin, list(solver.trail_lim))), split(lin))
    return calls


class TestLinear:
    """Native linear sums: thresholds ``y(b) <-> S < b`` propagated with
    explanation clauses, each checked by the conftest hook."""

    @pytest.mark.parametrize("seed", range(4))
    def test_agreement_with_truth_table(self, seed):
        # random assumptions over instance and threshold variables, many
        # calls per solver, so search backtracks through learnt clauses
        rng = random.Random(seed)
        explained = []
        conflicts = 0
        for _ in range(120):
            solver, num_vars, clauses, sums = random_linear_solver(rng, 8)
            check = solver.explain_hook
            solver.explain_hook = lambda lin, cl: (explained.append(len(cl)), check(lin, cl))
            for _ in range(8):
                pool = range(1, solver.num_vars + 1)
                assumptions = [v if rng.random() < 0.5 else -v
                               for v in rng.sample(pool, rng.randint(0, min(4, len(pool))))]
                assert solver.solve(assumptions) == brute_force_linear(
                    num_vars, clauses, sums, assumptions)
            conflicts += solver.stats["conflicts"]
        assert len(explained) > 50 and conflicts > 20

    def test_corrupted_explanation_rejected(self):
        # under the assumption x1, the clause [-1, 2] sets x2 and the sum
        # 2x1 + 2x2 + 2x3 reaches 4, refuting the root unit S < 4; analysis
        # asks for that conflict's explanation, which loses a literal here
        from conftest import check_explanation

        solver = make_solver(3, [[-1, 2]])
        lin = solver.new_linear([(2, 1), (2, 2), (2, 3)])
        solver.add_clause([solver.threshold(lin, 4)])

        def corrupting(lin, clause):
            if len(clause) > 1:
                del clause[-1]
            check_explanation(lin, clause)

        solver.explain_hook = corrupting
        with pytest.raises(AssertionError, match="does not follow"):
            solver.solve([1])

    def test_thresholds_branched_on_as_true_first(self):
        solver = make_solver(4, [[1, 2, 3, 4]])
        lin = solver.new_linear([(3, 1), (2, -2), (2, 3), (1, 4)])
        ys = [solver.threshold(lin, b) for b in range(1, 9)]
        assert all(solver.order.pos[y] >= 0 and solver.phase[y] == 1 for y in ys)
        for assumptions in ([], [1], [-3, 2], [ys[3]], [-ys[5], ys[6]]):
            if solver.solve(assumptions):
                assert all(solver.model[y] != 0 for y in ys)

    def test_busy_sum_handed_over_at_a_restart(self):
        # pigeonhole, 6 into 5, takes restarts; with no explanation needed
        # the first restart splits the sum, once, at level 0
        solver, lin = pigeonhole_with_sum(5)
        calls = record_splits(solver)
        assert not solver.solve()
        assert solver.stats["restarts"] >= 1
        assert calls == [(lin, [])]
        assert len(solver.linears) == 5  # two nodes of 3 terms, each over a node of 2

    def test_nodes_never_split_and_ineligible_sums_tested_once(self):
        # a sum of two terms is never split; at every later restart neither it
        # nor the partial-sum nodes of the split sum come up again (7 into 6
        # takes 6 restarts)
        solver, lin = pigeonhole_with_sum(6)
        pair = solver.new_linear([(1, 1), (2, 2)])
        solver.threshold(pair, 2)
        terms = list(pair.terms)
        calls = record_splits(solver)
        assert not solver.solve()
        assert solver.stats["restarts"] >= 3
        assert calls == [(lin, []), (pair, [])]
        assert pair.terms == terms
        assert all(node.settled for node in solver.linears)

    def test_root_thresholds_fixed_at_creation(self):
        solver = make_solver(3, [[1], [-2]])
        lin = solver.new_linear([(4, 1), (2, 2), (1, 3)])
        low, high = solver.threshold(lin, 4), solver.threshold(lin, 6)
        assert {-low, high} <= set(solver.fixed_literals())  # S is 4 or 5
        middle = solver.threshold(lin, 5)
        assert middle not in solver.fixed_literals()
        assert solver.threshold(lin, 5) == middle
        assert solver.solve([middle]) and solver.model_value(-3)

    def test_threshold_past_deadline_raises(self):
        solver = make_solver(2, [])
        lin = solver.new_linear([(1, 1), (1, 2)])
        first = solver.threshold(lin, 1)
        import time
        solver.deadline = time.monotonic() - 1
        assert solver.threshold(lin, 1) == first  # already there: nothing to create
        with pytest.raises(SolveBudgetExceeded):
            solver.threshold(lin, 2)
        assert solver.num_vars == 3

    def test_model_check_covers_thresholds(self):
        solver = make_solver(2, [])
        lin = solver.new_linear([(1, 1), (1, 2)])
        y = solver.threshold(lin, 2)
        assert solver.solve([1, 2])
        solver.model[y] = 1  # S is 2, not below 2
        with pytest.raises(AssertionError, match="threshold"):
            solver._verify_model([])

    def test_dimacs_defines_thresholds(self):
        rng = random.Random(3)
        for _ in range(30):
            solver, num_vars, clauses, sums = random_linear_solver(rng, 5)
            lines = solver.to_dimacs().strip().splitlines()
            dumped = [[int(tok) for tok in line.split()[:-1]] for line in lines[1:]]
            total_vars = int(lines[0].split()[2])
            for bits in itertools.product((0, 1), repeat=num_vars):
                units = [v + 1 if b else -(v + 1) for v, b in enumerate(bits)]
                expect = brute_force_linear(num_vars, clauses, sums, units)
                assert brute_force_sat(total_vars, dumped, units) == expect
