"""The benchmark's checkers against mobosat's brute-force oracle, on tiny instances.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from mobosat import engine, io, quality  # noqa: E402
from mobosat.model import Instance, LinearExpr, Literal, PBConstraint, SolutionRecord  # noqa: E402
from mobosat.oracle import brute_force_pareto  # noqa: E402

from checks import check_result, cover_front, enumerated_front, nondominated_rows  # noqa: E402
from workloads import conflict_instance  # noqa: E402


def oracle_front(instance):
    return set(brute_force_pareto(instance).pareto_front)


@pytest.mark.parametrize("seed", range(12))
def test_enumerated_front_matches_oracle(seed):
    instance = conflict_instance(6 + seed % 5, seed)
    assert enumerated_front(instance) == oracle_front(instance)


def test_enumerated_front_of_infeasible_instance_is_empty():
    x1 = Literal(1)
    instance = Instance(
        num_vars=2,
        constraints=(PBConstraint(LinearExpr(((1, x1),)), 1),
                     PBConstraint(LinearExpr(((1, x1.negation()),)), 1)),
        objectives=(LinearExpr(((1, x1), (2, Literal(2)))),),
    )
    assert enumerated_front(instance) == set() == oracle_front(instance)


@pytest.mark.parametrize("args", [(8, 3, 2, 0), (10, 4, 3, 1), (12, 5, 3, 2), (9, 6, 2, 3)])
def test_cover_front_matches_oracle(args):
    instance = io.generate_mscp(*args)
    assert cover_front(instance) == oracle_front(instance)


def test_cover_front_rejects_other_shapes():
    with pytest.raises(ValueError):
        cover_front(conflict_instance(6, 0))


def test_nondominated_rows_across_blocks():
    rng = np.random.default_rng(5)
    points = rng.integers(0, 40, size=(3000, 3))
    expected = {tuple(p) for p in points
                if not any((q <= p).all() and (q != p).any() for q in points)}
    assert {tuple(r) for r in nondominated_rows(points)} == expected


def test_check_result_accepts_exact_and_rejects_a_missing_point():
    instance = conflict_instance(8, 2)
    front = enumerated_front(instance)
    result = engine.solve_exact(instance)
    problems, eps = check_result(instance, result, front, True, Fraction(1),
                                 quality.epsilon_indicator)
    assert problems == [] and eps == 1
    short = engine.ApproxResult(result.records[1:], result.lower_bounds, Fraction(1),
                                False, False, ())
    problems, _ = check_result(instance, short, front, True, Fraction(1),
                               quality.epsilon_indicator)
    assert any("images differ" in p for p in problems)


def test_check_result_on_anytime_output():
    instance = conflict_instance(10, 3)
    front = enumerated_front(instance)
    result = engine.intre_solve(instance, engine.RatioSchedule(start=101, target=Fraction(11, 10)))
    problems, eps = check_result(instance, result, front, False, Fraction(11, 10),
                                 quality.epsilon_indicator)
    assert problems == [] and eps <= result.warranted_ratio
    bad = result.records[0]
    wrong_image = SolutionRecord(bad.assignment, tuple(c + 1 for c in bad.image))
    forged = engine.ApproxResult((wrong_image,) + result.records[1:], result.lower_bounds,
                                 result.warranted_ratio, False, False, ())
    problems, _ = check_result(instance, forged, front, False, Fraction(11, 10),
                               quality.epsilon_indicator)
    assert any("recomputed" in p for p in problems)
