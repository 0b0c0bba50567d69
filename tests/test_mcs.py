import random

import pytest

from mobosat import mcs as mcs_module
from mobosat.encode import Encoder, encode_instance_constraints, encode_objective
from mobosat.io import generate_mscp
from mobosat.mcs import (
    LadderSoftSet,
    McsInvariantError,
    PreparedObjective,
    SoftSet,
    check_witness_bounds,
    extract_mcs,
    extract_mcs_literals,
)
from mobosat.model import evaluate
from mobosat.oracle import brute_force_pareto
from mobosat.sat import SatSolver


def make_solver(num_vars, clauses):
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    return solver


EX_HARD = [[-1, -2, -3], [1, 2], [-1, 2, 3]]
EX_SOFTS = [-1, -2, -3]  # (~x1), (~x2), (~x3)


class TestClauseD:
    def test_both_mcses_found_by_extract_and_block(self):
        solver = make_solver(3, EX_HARD)
        found = set()
        witnesses = {}
        while True:
            result = extract_mcs_literals(solver, EX_SOFTS)
            if result is None:
                break
            mcs, model = result
            found.add(mcs)
            witnesses[mcs] = tuple(1 if model[v] == 1 else 0 for v in (1, 2, 3))
            # block: require at least one clause of the MCS satisfied next time
            solver.add_clause([EX_SOFTS[i] for i in mcs])
        assert found == {frozenset({0, 2}), frozenset({1})}
        assert witnesses[frozenset({0, 2})] == (1, 0, 1)
        assert witnesses[frozenset({1})] == (0, 1, 0)

    def test_unsat_hard_gives_none(self):
        solver = make_solver(1, [[1], [-1]])
        assert extract_mcs_literals(solver, [1]) is None

    def test_jointly_satisfiable_gives_empty_set(self):
        solver = make_solver(2, [[1, 2]])
        mcs, model = extract_mcs_literals(solver, [1, -2])
        assert mcs == frozenset()

    def test_witness_corresponds(self):
        # witness satisfies hard, the assumptions and exactly the softs outside
        # the MCS; an empty soft list and assumptions that force one MCS pin it
        cases = [(EX_SOFTS, [], None), ([], [], frozenset()),
                 (EX_SOFTS, [2], frozenset({1})), (EX_SOFTS, [1, 3], frozenset({0, 2}))]
        for softs, assumptions, expected in cases:
            solver = make_solver(3, EX_HARD)
            mcs, model = extract_mcs_literals(solver, softs, assumptions)
            if expected is not None:
                assert mcs == expected
            assert all(model[a] == 1 for a in assumptions)
            for i, soft in enumerate(softs):
                value = (model[abs(soft)] == 1) == (soft > 0)
                assert value == (i not in mcs)

    def test_minimality_by_direct_sat_checks(self):
        rng = random.Random(23)
        for _ in range(30):
            num_vars = rng.randint(2, 6)
            hard = []
            for _ in range(rng.randint(1, 8)):
                vs = rng.sample(range(1, num_vars + 1), rng.randint(1, min(3, num_vars)))
                hard.append([v if rng.random() < 0.5 else -v for v in vs])
            softs = [v if rng.random() < 0.5 else -v
                     for v in rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars))]
            solver = make_solver(num_vars, hard)
            result = extract_mcs_literals(solver, softs)
            if result is None:
                continue
            mcs, _ = result
            satisfied = [softs[i] for i in range(len(softs)) if i not in mcs]
            probe = make_solver(num_vars, hard)
            assert probe.solve(satisfied)
            for i in mcs:
                probe = make_solver(num_vars, hard)
                assert not probe.solve(satisfied + [softs[i]]), (hard, softs, mcs, i)


def build_single_objective(instance):
    solver = SatSolver()
    encoder = Encoder(solver)
    encode_instance_constraints(encoder, instance)
    ladder = encode_objective(encoder, 0, instance.objectives[0], eager=True)
    reachable = ladder.reachable_values()
    domain = tuple(reachable) + (reachable[-1] + 1,)
    softs = SoftSet((tuple((d, ladder.encode_lt(d)) for d in domain),))
    return solver, softs, ladder


class TestThresholdMcs:
    def test_single_objective_unique_mcs(self, ladder_example):
        solver, softs, ladder = build_single_objective(ladder_example)
        mcs = extract_mcs(solver, softs)
        assert mcs.falsified == ((0, 2, 3),)
        assert mcs.representative == (3,)
        assert mcs.successor == (4,)
        # block and confirm uniqueness
        solver.add_clause([ladder.encode_lt(3)])
        assert extract_mcs(solver, softs) is None

    def test_witness_bounds_checked(self, ladder_example):
        solver, softs, ladder = build_single_objective(ladder_example)
        mcs = extract_mcs(solver, softs)
        value = evaluate(ladder_example.objectives[0],
                         tuple(1 if mcs.model[v] == 1 else 0 for v in (1, 2, 3)))
        check_witness_bounds(mcs, (value,), complete=True)
        with pytest.raises(McsInvariantError):
            check_witness_bounds(mcs, (value + 1,), complete=True)

    def test_representative_always_has_lowest_threshold(self, two_obj_triangle):
        solver = SatSolver()
        encoder = Encoder(solver)
        encode_instance_constraints(encoder, two_obj_triangle)
        ladders = [encode_objective(encoder, k, f, eager=True)
                   for k, f in enumerate(two_obj_triangle.objectives)]
        per_obj = []
        for ladder in ladders:
            reachable = ladder.reachable_values()
            domain = tuple(reachable) + (reachable[-1] + 1,)
            per_obj.append(tuple((d, ladder.encode_lt(d)) for d in domain))
        softs = SoftSet(tuple(per_obj))
        mcs = extract_mcs(solver, softs)
        # every objective has a nonempty falsified prefix (lowest threshold fails)
        assert all(len(f) >= 1 for f in mcs.falsified)
        for k, falsified in enumerate(mcs.falsified):
            assert falsified[0] == per_obj[k][0][0]


def complete_domains(instance, eager):
    """A solver holding ``instance``'s constraints and one prepared objective
    per objective over its complete domain; ``eager`` creates every
    threshold up front."""
    solver = SatSolver()
    encoder = Encoder(solver)
    encode_instance_constraints(encoder, instance)
    prepared = []
    for k, f in enumerate(instance.objectives):
        ladder = encode_objective(encoder, k, f, eager=eager)
        reachable = ladder.reachable_values()
        prepared.append(PreparedObjective(f, tuple(reachable) + (reachable[-1] + 1,),
                                          ladder.encode_lt))
    return solver, prepared


def enumerate_representatives(solver, prepared, softs):
    """Every MCS's representative, each region blocked once found."""
    reps = set()
    while (mcs := extract_mcs(solver, softs)) is not None:
        reps.add(mcs.representative)
        solver.add_clause([prep.encode_lt(d) for prep, d in zip(prepared, mcs.representative)])
    return reps


class TestLadderSoftSet:
    def test_same_representatives_as_explicit_pairs(self, unconstrained_biobjective):
        instances = [unconstrained_biobjective] + [
            generate_mscp(n, m, p, seed) for n, m, p, seed in
            ((8, 3, 2, 1), (10, 4, 2, 2), (10, 4, 3, 1), (12, 5, 3, 3))]
        for instance in instances:
            solver, prepared = complete_domains(instance, eager=False)
            by_value = enumerate_representatives(solver, prepared, LadderSoftSet(tuple(prepared)))
            solver, prepared = complete_domains(instance, eager=True)
            pairs = SoftSet(tuple(tuple((d, prep.encode_lt(d)) for d in prep.domain)
                                  for prep in prepared))
            by_literal = enumerate_representatives(solver, prepared, pairs)
            assert by_value == by_literal == set(brute_force_pareto(instance).pareto_front)

    def test_creates_only_the_thresholds_next_to_each_cut(self, unconstrained_biobjective):
        solver, prepared = complete_domains(unconstrained_biobjective, eager=False)
        mcs = extract_mcs(solver, LadderSoftSet(tuple(prepared)))
        # the first witness sets every variable false, already the front point
        # (1, 22): its one round asks for f1 < 1, f1 < 2, f2 < 22 and f2 < 23,
        # two of them constants
        assert mcs.representative == (1, 22)
        assert mcs.rounds == 1
        assert solver.num_thresholds == 2

    def test_corrupted_hold_literal_raises(self, unconstrained_biobjective):
        # the fifth MCS, (7, 5), takes a satisfiable round; its model is
        # changed to falsify that round's first hold literal
        solver, prepared = complete_domains(unconstrained_biobjective, eager=False)
        solve = solver.solve

        def corrupting(assumptions=()):
            sat = solve(assumptions)
            if sat and assumptions:
                hold = abs(assumptions[1])
                solver.model[hold] = -solver.model[hold]
            return sat

        solver.solve = corrupting
        with pytest.raises(McsInvariantError, match="hold literal"):
            enumerate_representatives(solver, prepared, LadderSoftSet(tuple(prepared)))

    def test_corrupted_value_reader_raises(self, unconstrained_biobjective, monkeypatch):
        # every threshold exists up front, so the witness of each round sets
        # the literals asked for: reading one past f1's value puts f1's cut
        # above a threshold the witness satisfies
        f1 = unconstrained_biobjective.objectives[0]
        read = mcs_module.expr_value
        monkeypatch.setattr(mcs_module, "expr_value",
                            lambda expr, model: read(expr, model) + (expr == f1))
        solver, prepared = complete_domains(unconstrained_biobjective, eager=True)
        with pytest.raises(McsInvariantError, match="improve literal"):
            extract_mcs(solver, LadderSoftSet(tuple(prepared)))


class TestSoftSet:
    def test_thresholds_must_ascend(self):
        with pytest.raises(ValueError):
            SoftSet((((3, 5), (1, 6)),))

    def test_flat_literals(self):
        softs = SoftSet((((0, 4), (2, 6)), ((0, 8),)))
        assert softs.flat_literals() == [4, 6, 8]
