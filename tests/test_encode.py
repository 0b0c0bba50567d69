import itertools
import random
import time

import pytest

from mobosat.encode import (
    Encoder,
    UnarySum,
    encode_instance_constraints,
    encode_objective,
    encode_pb_geq,
)
from mobosat.approx import approx_coefficients
from mobosat.io import generate_mscp
from mobosat.model import LinearExpr, Literal, PBConstraint, evaluate
from mobosat.sat import SatSolver, SolveBudgetExceeded


def lit(v):
    return Literal(v)


def nlit(v):
    return Literal(v, True)


def fresh(num_vars):
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    return solver, Encoder(solver)


def enumerate_models(solver, num_vars):
    """Yield the solver model for every assignment of the first num_vars vars."""
    for bits in itertools.product((0, 1), repeat=num_vars):
        assumptions = [v + 1 if bits[v] else -(v + 1) for v in range(num_vars)]
        if solver.solve(assumptions):
            yield bits, solver


class TestPbConstraints:
    def test_clause_case_emits_single_clause(self):
        solver, encoder = fresh(2)
        before = len(solver.clauses)
        encode_pb_geq(encoder, PBConstraint(LinearExpr(((1, lit(1)), (1, lit(2)))), 1))
        assert len(solver.clauses) == before + 1
        assert sorted(solver.clauses[-1]) == sorted([2, 4])  # internal codes of x1, x2

    @pytest.mark.parametrize("terms,bound", [
        ([(2, nlit(1)), (3, nlit(2)), (2, lit(3))], 3),
        ([(1, lit(1)), (1, lit(2)), (1, lit(3))], 2),
        ([(3, lit(1)), (2, lit(2)), (2, nlit(3)), (1, lit(4))], 4),
        ([(5, lit(1))], 5),
        ([(2, lit(1)), (2, lit(2))], 5),  # unsatisfiable
    ])
    def test_models_match_inequality(self, terms, bound):
        num_vars = max(l.var for _, l in terms)
        solver, encoder = fresh(num_vars)
        encode_pb_geq(encoder, PBConstraint(LinearExpr(tuple(terms)), bound))
        for bits in itertools.product((0, 1), repeat=num_vars):
            value = sum(c * ((1 - bits[l.var - 1]) if l.negated else bits[l.var - 1])
                        for c, l in terms)
            assumptions = [v + 1 if bits[v] else -(v + 1) for v in range(num_vars)]
            assert solver.solve(assumptions) == (value >= bound)

    def test_cardinality_feasible_set(self, two_obj_triangle):
        solver, encoder = fresh(3)
        encode_instance_constraints(encoder, two_obj_triangle)
        feasible = [bits for bits, _ in enumerate_models(solver, 3)]
        assert sorted(feasible) == [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]


@pytest.mark.parametrize("eager", [False, True])
class TestLadder:
    def test_reachable_sums_sparse(self, eager, ladder_example):
        solver, encoder = fresh(3)
        ladder = encode_objective(encoder, 0, ladder_example.objectives[0], eager=eager)
        assert ladder.reachable_values() == [0, 2, 3, 4, 5, 7]

    def test_reachable_with_constant(self, eager):
        solver, encoder = fresh(4)
        f = LinearExpr(tuple((1, lit(v)) for v in range(1, 5)), 1)
        ladder = encode_objective(encoder, 0, f, eager=eager)
        assert ladder.reachable_values() == [1, 2, 3, 4, 5]

    def test_constant_only(self, eager):
        solver, encoder = fresh(1)
        ladder = encode_objective(encoder, 0, LinearExpr((), 6), eager=eager)
        assert ladder.reachable_values() == [6]

    def test_biobjective_reachable_values(self, eager, unconstrained_biobjective):
        solver, encoder = fresh(4)
        first = encode_objective(encoder, 0, unconstrained_biobjective.objectives[0],
                                 eager=eager)
        assert first.reachable_values() == list(range(1, 11))
        second = encode_objective(encoder, 1, unconstrained_biobjective.objectives[1],
                                  eager=eager)
        assert second.reachable_values() == [1, 5, 6, 8, 10, 11, 12, 13, 15, 17, 18, 22]

    def test_threshold_semantics_exhaustive(self, eager, ladder_example):
        solver, encoder = fresh(3)
        encode_instance_constraints(encoder, ladder_example)
        f = ladder_example.objectives[0]
        ladder = encode_objective(encoder, 0, f, eager=eager)
        thresholds = [0, 2, 3, 4, 5, 7, 8]
        lits = {d: ladder.encode_lt(d) for d in thresholds}
        # idempotent: same literal, no duplicate clauses or variables
        emitted = (encoder.objective_clauses, solver.num_vars)
        assert all(ladder.encode_lt(d) == lits[d] for d in thresholds)
        assert (encoder.objective_clauses, solver.num_vars) == emitted
        for bits, s in enumerate_models(solver, 3):
            value = evaluate(f, bits)
            for d, y in lits.items():
                assert s.model_value(y) == (value < d), (bits, d)

    def test_asserting_threshold_prunes(self, eager, ladder_example):
        solver, encoder = fresh(3)
        encode_instance_constraints(encoder, ladder_example)
        ladder = encode_objective(encoder, 0, ladder_example.objectives[0], eager=eager)
        y4 = ladder.encode_lt(4)
        # (1,0,0) has value 3 < 4: still feasible under y4
        assert solver.solve([y4, 1, -2, -3])
        # (1,1,0) violates the second constraint anyway; (1,0,1) has value 5
        assert not solver.solve([y4, 1, -2, 3])

    def test_boundary_thresholds(self, eager, ladder_example):
        solver, encoder = fresh(3)
        encode_instance_constraints(encoder, ladder_example)
        ladder = encode_objective(encoder, 0, ladder_example.objectives[0], eager=eager)
        y_bottom = ladder.encode_lt(0)   # f < 0: never
        y_top = ladder.encode_lt(8)      # f < 8: always
        assert not solver.solve([y_bottom])
        assert solver.solve([-y_top]) is False
        assert solver.solve([y_top])

    def test_monotone_consistency_entailed(self, eager, ladder_example):
        solver, encoder = fresh(3)
        encode_instance_constraints(encoder, ladder_example)
        ladder = encode_objective(encoder, 0, ladder_example.objectives[0], eager=eager)
        y3, y5 = ladder.encode_lt(3), ladder.encode_lt(5)
        # y3 -> y5 must be entailed: y3 and not y5 is unsat
        assert not solver.solve([y3, -y5])

    def test_random_equivalence(self, eager):
        rng = random.Random(17 + eager)
        for _ in range(25):
            num_vars = rng.randint(1, 7)
            terms = tuple(
                (rng.randint(1, 9), Literal(v, rng.random() < 0.5))
                for v in range(1, num_vars + 1)
            )
            constant = rng.randint(0, 5)
            f = LinearExpr(terms, constant)
            solver, encoder = fresh(num_vars)
            ladder = encode_objective(encoder, 0, f, eager=eager)
            ds = sorted(rng.sample(range(0, f.upper_bound + 2),
                                   rng.randint(1, f.upper_bound + 1)))
            lits = {d: ladder.encode_lt(d) for d in ds}
            for bits, s in enumerate_models(solver, num_vars):
                value = evaluate(f, bits)
                for d, y in lits.items():
                    assert s.model_value(y) == (value < d)

    def test_level0_substitution_shrinks_encoding(self, eager):
        solver, encoder = fresh(3)
        solver.add_clause([1])  # x1 fixed true
        assert solver.propagate_root()
        f = LinearExpr(((3, lit(1)), (2, lit(2)), (2, lit(3))))
        ladder = encode_objective(encoder, 0, f, eager=eager)
        assert ladder.constant == 3
        assert ladder.reachable_values() == [3, 5, 7]
        y5 = ladder.encode_lt(5)
        for bits, s in enumerate_models(solver, 3):
            value = evaluate(f, bits)
            assert s.model_value(y5) == (value < 5)


class TestDecomposition:
    """A busy ladder's sum, split by the solver over partial sums, means the
    same."""

    @pytest.mark.parametrize("weights", [[1] * 7, [2, 2, 2, 22, 22, 22, 22, 22], [3, 1, 3, 1, 1]])
    def test_decomposed_thresholds_exhaustive(self, weights):
        n = len(weights)
        f = LinearExpr(tuple((w, Literal(v + 1, v % 3 == 0)) for v, w in enumerate(weights)), 2)
        solver, encoder = fresh(n)
        ladder = encode_objective(encoder, 0, f, eager=True)
        solver._split(ladder.linear)
        assert ladder.linear.settled
        assert len(solver.linears) > 1  # the partial sums
        reachable = ladder.reachable_values()
        lits = {d: ladder.encode_lt(d) for d in range(reachable[-1] + 2)}
        for bits, s in enumerate_models(solver, n):
            value = evaluate(f, bits)
            for d, y in lits.items():
                assert s.model_value(y) == (value < d), (bits, d)

    def test_many_distinct_weights_not_decomposed(self):
        # only a sum of at most two distinct weights splits, where partial
        # sums act as totalizer nodes; 44 distinct weights, four or three
        # stay whole
        cases = [generate_mscp(60, 20, 3, 2).objectives[1],
                 *(LinearExpr(tuple((w, Literal(v + 1, v % 3 == 0)) for v, w in enumerate(ws)))
                   for ws in ([5, 1, 3, 2], [2, 1, 4, 1, 2, 4]))]
        for f in cases:
            solver, encoder = fresh(len(f.terms))
            whole = encode_objective(encoder, 0, f).linear
            terms = list(whole.terms)
            solver._split(whole)
            assert whole.settled and whole.terms == terms and len(solver.linears) == 1
        rounded = approx_coefficients(cases[0], 11).approx  # two distinct weights
        solver, encoder = fresh(60)
        solver._split(encode_objective(encoder, 0, rounded).linear)
        assert len(solver.linears) > 1


class TestClauseCounting:
    def test_objective_clauses_counted_separately(self, ladder_example):
        # constraints emit clauses and no threshold; a ladder emits no clause
        # and the count is of its threshold literals, one per attainable
        # value above the minimum
        solver, encoder = fresh(3)
        before = solver.num_clauses
        encode_instance_constraints(encoder, ladder_example)
        assert solver.num_clauses > before
        assert encoder.objective_clauses == 0
        before = solver.num_clauses
        ladder = encode_objective(encoder, 0, ladder_example.objectives[0])
        for d in ladder.reachable_values():
            ladder.encode_lt(d)
        assert solver.num_clauses == before
        assert encoder.objective_clauses == len(ladder.reachable_values()) - 1 == 5


class TestDeadline:
    """Past the solver's deadline, a ladder raises before creating a threshold
    variable, and constraint clauses are still added: only the solver reads
    the deadline, and constraint encoding stays outside the budget."""

    def expired(self, ladder_example):
        solver, encoder = fresh(3)
        encode_instance_constraints(encoder, ladder_example)
        encoder.true_lit()
        solver.deadline = time.monotonic() - 1
        return solver, encoder, (solver.num_clauses, solver.num_vars)

    def test_eager_build_raises(self, ladder_example):
        solver, encoder, sizes = self.expired(ladder_example)
        with pytest.raises(SolveBudgetExceeded):
            encode_objective(encoder, 0, ladder_example.objectives[0], eager=True)
        assert encoder.objective_clauses == 0
        assert (solver.num_clauses, solver.num_vars) == sizes

    def test_lazy_threshold_raises(self, ladder_example):
        solver, encoder, sizes = self.expired(ladder_example)
        ladder = encode_objective(encoder, 0, ladder_example.objectives[0])
        assert ladder.encode_lt(0) == -encoder.true_lit()  # a constant: nothing to create
        with pytest.raises(SolveBudgetExceeded):
            ladder.encode_lt(5)
        assert encoder.objective_clauses == 0
        assert (solver.num_clauses, solver.num_vars) == sizes

    def test_constraint_clause_is_added(self, ladder_example):
        solver, encoder, (clauses, _) = self.expired(ladder_example)
        encode_pb_geq(encoder, PBConstraint(LinearExpr(((1, lit(1)), (1, nlit(3)))), 1))
        assert solver.num_clauses == clauses + 1


def sink(num_vars):
    """``new_var`` and ``add`` for a ``UnarySum`` that writes into a list."""
    clauses = []
    top = itertools.count(num_vars + 1)
    return (lambda: next(top)), clauses.append, clauses


class TestSumStructures:
    @pytest.mark.parametrize("cls", [UnarySum])
    def test_random_geq_semantics(self, cls):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(1, 6)
            terms = [(rng.randint(1, 7), (v + 1) * rng.choice((1, -1))) for v in range(n)]
            solver, _ = fresh(n)
            s = cls(solver.new_var, solver.add_clause, terms)
            bound_lits = {}
            for v in s.reachable_sums():
                if v > 0:
                    bound_lits[v] = s.geq(v)
            for bits in itertools.product((0, 1), repeat=n):
                assumptions = [v + 1 if bits[v] else -(v + 1) for v in range(n)]
                assert solver.solve(assumptions)
                total = sum(w for w, l in terms if (bits[abs(l) - 1] == 1) == (l > 0))
                for v, g in bound_lits.items():
                    assert solver.model_value(g) == (total >= v)


def random_weight_vectors(seed):
    """(name, weights) cases: empty, one term, all equal, many distinct."""
    rng = random.Random(seed)
    yield "empty", []
    for _ in range(5):
        yield "one", [rng.randint(1, 1000)]
        yield "equal", [rng.randint(1, 50)] * rng.randint(2, 12)
        yield "distinct", rng.sample(range(1, 1001), rng.randint(2, 12))
        yield "mixed", [rng.randint(1, rng.randint(1, 1000)) for _ in range(rng.randint(2, 12))]


def signed_terms(weights, rng):
    return [(w, (v + 1) * rng.choice((1, -1))) for v, w in enumerate(weights)]


class TestEncodingRule:
    """The DAG that encodes pseudo-Boolean constraints and writes the dump:
    its size bound, and the thresholds it defines in ``SatSolver.to_dimacs``."""

    W13 = [34, 23, 14, 22, 11, 27, 29, 11, 26, 24, 24, 20, 17]

    def test_dag_within_bound_with_every_threshold(self):
        # one node per (term index, attainable nonzero suffix sum), at most 6
        # clauses each
        rng = random.Random(43)
        for name, weights in random_weight_vectors(43):
            new_var, add, clauses = sink(len(weights))
            dag = UnarySum(new_var, add, signed_terms(weights, rng))
            for v in dag.reachable_sums():
                dag.geq(v)
            bound = 6 * sum(m.bit_count() - 1 for m in dag.suffix_mask[:-1])
            assert len(clauses) <= bound, (name, weights)

    def test_dag_threshold_semantics_sampled(self):
        # the dump of a complete 13-term ladder keeps DAG variables; loaded
        # into a fresh solver, its thresholds mirror the objective's value
        f = LinearExpr(tuple((w, lit(v + 1)) for v, w in enumerate(self.W13)), 3)
        solver, encoder = fresh(len(self.W13))
        ladder = encode_objective(encoder, 0, f, eager=True)
        reachable = ladder.reachable_values()
        lits = {d: ladder.encode_lt(d) for d in reachable + [reachable[-1] + 1]}
        lines = solver.to_dimacs().strip().splitlines()
        num_vars = int(lines[0].split()[2])
        assert num_vars > solver.num_vars
        dumped = SatSolver()
        for _ in range(num_vars):
            dumped.new_var()
        for line in lines[1:]:
            dumped.add_clause([int(tok) for tok in line.split()[:-1]])
        rng = random.Random(53)
        for _ in range(40):
            bits = tuple(rng.randint(0, 1) for _ in self.W13)
            assert dumped.solve([v + 1 if b else -(v + 1) for v, b in enumerate(bits)])
            value = evaluate(f, bits)
            for d, y in lits.items():
                assert dumped.model_value(y) == (value < d), (bits, d)
