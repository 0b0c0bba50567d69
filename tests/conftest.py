"""Shared fixtures: the worked examples used throughout the suite."""

import pytest

from mobosat.model import Instance, LinearExpr, Literal, PBConstraint
from mobosat.sat import SatSolver


def check_explanation(lin, clause, bound=None):
    """Reject an explanation clause that does not follow from its linear sum.

    With every literal of ``clause`` false, the sum's terms and the
    thresholds ``S < b`` named in it bound ``S`` from both sides; the clause
    follows from ``f < d`` or ``f >= d`` exactly when those bounds cross.
    ``bound`` maps the sum's threshold variables to their bounds.
    """
    if bound is None:
        bound = dict(zip(lin.vars, lin.bounds))
    weight = lin.weight
    low, high, forced_true, forced_false = 0, lin.total, 0, 0
    for code in clause:
        var = code >> 1
        if var in bound:  # y false: S >= b; ~y false: S < b
            if code & 1:
                high = min(high, bound[var] - 1)
            else:
                low = max(low, bound[var])
        elif code in weight:  # a term literal false: it adds nothing
            forced_false += weight[code]
        elif code ^ 1 in weight:  # a term literal true: it adds its weight
            forced_true += weight[code ^ 1]
        else:
            raise AssertionError(f"explanation {clause} names a literal outside its sum")
    if max(low, forced_true) <= min(high, lin.total - forced_false):
        raise AssertionError(f"explanation {clause} does not follow from its sum")


class ExplanationChecker:
    """``check_explanation`` for one solver's sums, with each sum's map of
    threshold variables to bounds kept until the sum gains a threshold."""

    def __init__(self):
        self.maps = {}  # id(sum) -> (sum, map)

    def __call__(self, lin, clause):
        entry = self.maps.get(id(lin))
        if entry is None or len(entry[1]) != len(lin.vars):
            entry = self.maps[id(lin)] = (lin, dict(zip(lin.vars, lin.bounds)))
        check_explanation(lin, clause, entry[1])


@pytest.fixture(autouse=True)
def check_every_model(monkeypatch):
    """Every solver a test builds checks each model it returns against its
    problem clauses, thresholds and assumptions, and each explanation clause
    of its linear sums with ``check_explanation``."""
    init = SatSolver.__init__

    def checking_init(self, check_models=True):
        init(self, check_models=True)
        self.explain_hook = ExplanationChecker()

    monkeypatch.setattr(SatSolver, "__init__", checking_init)


def lit(v):
    return Literal(v)


def nlit(v):
    return Literal(v, True)


@pytest.fixture
def two_obj_triangle():
    """f = (2x1 + x2 + ~x3, ~x1 + x2 + 2x3) subject to x1 + x2 + x3 >= 2.

    Four feasible assignments; front {(1,4), (2,2), (4,1)}.
    """
    return Instance(
        num_vars=3,
        constraints=(PBConstraint(LinearExpr(((1, lit(1)), (1, lit(2)), (1, lit(3)))), 2),),
        objectives=(
            LinearExpr(((2, lit(1)), (1, lit(2)), (1, nlit(3)))),
            LinearExpr(((1, nlit(1)), (1, lit(2)), (2, lit(3)))),
        ),
    )


@pytest.fixture
def ladder_example():
    """min 3x1 + 2x2 + 2x3 subject to {x1 + x2 >= 1, ~x2 + x3 >= 1}; optimum 3."""
    return Instance(
        num_vars=3,
        constraints=(
            PBConstraint(LinearExpr(((1, lit(1)), (1, lit(2)))), 1),
            PBConstraint(LinearExpr(((1, nlit(2)), (1, lit(3)))), 1),
        ),
        objectives=(LinearExpr(((3, lit(1)), (2, lit(2)), (2, lit(3)))),),
    )


@pytest.fixture
def unconstrained_biobjective():
    """f1 = 3x1 + 3x2 + x3 + 2x4 + 1, f2 = 4~x1 + 5~x2 + 5~x3 + 7~x4 + 1.

    Front {(1,22), (2,17), (3,15), (4,10), (7,5), (10,1)}.
    """
    return Instance(
        num_vars=4,
        constraints=(),
        objectives=(
            LinearExpr(((3, lit(1)), (3, lit(2)), (1, lit(3)), (2, lit(4))), 1),
            LinearExpr(((4, nlit(1)), (5, nlit(2)), (5, nlit(3)), (7, nlit(4))), 1),
        ),
    )


@pytest.fixture
def infeasible_instance():
    return Instance(
        num_vars=2,
        constraints=(
            PBConstraint(LinearExpr(((1, lit(1)),)), 1),
            PBConstraint(LinearExpr(((1, nlit(1)),)), 1),
        ),
        objectives=(LinearExpr(((1, lit(2)),)),),
    )


@pytest.fixture
def search_refuted_instance():
    """One clause over x1, x2 against each of their four assignments: no
    constraint propagates a unit at the root, so only search refutes them."""
    return Instance(
        num_vars=2,
        constraints=tuple(PBConstraint(LinearExpr(((1, a), (1, b))), 1)
                          for a in (lit(1), nlit(1)) for b in (lit(2), nlit(2))),
        objectives=(LinearExpr(((1, lit(1)), (1, lit(2)))),),
    )
