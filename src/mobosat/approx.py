"""Interval-based threshold domains and coefficient-based objective rounding.

Both schemes share the same grid law: starting from a seed value, each next
grid value is ``max(previous + 1, floor(ratio * previous))`` where ``ratio``
is ``1 + epsilon`` held as an exact rational, so grids never drift with
floating point.  The interval scheme thins the threshold domain of an exact
objective; the coefficient scheme rounds the objective's weights down onto
the grid, which underestimates the true value by at most a factor of
``ratio`` on every assignment.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from .model import LinearExpr

Ratio = Union[int, Fraction, str]


def as_ratio(value: Ratio) -> Fraction:
    """Exact rational ratio ``1 + epsilon``; accepts 2, '1.1', '11/10', Fraction."""
    ratio = Fraction(value)
    if ratio < 1:
        raise ValueError(f"ratio 1+epsilon must be >= 1, got {ratio}")
    return ratio


@dataclass(frozen=True)
class CoeffApproxMap:
    """A coefficient rounding: the weight grid and the rounded objective."""

    grid: Tuple[int, ...]
    original: LinearExpr
    approx: LinearExpr

    @property
    def exact(self) -> bool:
        return self.approx == self.original


def compute_domain(lower: int, upper: int, ratio: Ratio) -> Tuple[int, ...]:
    """Threshold grid from ``lower``, stopping at the first value above ``upper``.

    With ratio 1 this is every integer in [lower, upper + 1]; larger ratios
    produce geometric spacing with +1 steps where the geometric step stalls.
    """
    if not 0 <= lower <= upper:
        raise ValueError(f"need 0 <= lower <= upper, got {lower}, {upper}")
    return weight_grid(lower, upper + 1, ratio)


def weight_grid(min_weight: int, max_weight: int, ratio: Ratio) -> Tuple[int, ...]:
    """Grid from ``min_weight`` up to the first value >= ``max_weight``.

    The one statement of the grid law; threshold domains and weight
    roundings both take their values from it.
    """
    ratio = as_ratio(ratio)
    num, den = ratio.numerator, ratio.denominator
    values = [min_weight]
    current = min_weight
    while current < max_weight:
        current = max(current + 1, num * current // den)  # floor(ratio * current)
        values.append(current)
    return tuple(values)


def approx_coefficients(expr: LinearExpr, ratio: Ratio) -> CoeffApproxMap:
    """Round each coefficient down to the largest grid value not exceeding it.

    The constant passes through unchanged.  The result underestimates:
    ``approx(x) <= expr(x) <= ratio * approx(x)`` for every assignment.
    """
    ratio = as_ratio(ratio)
    weights = [c for c, _ in expr.terms]
    if not weights:
        return CoeffApproxMap((), expr, expr)
    grid = weight_grid(min(weights), max(weights), ratio)
    rounded = []
    for coeff, lit in expr.terms:
        rounded.append((grid[bisect.bisect_right(grid, coeff) - 1], lit))
    approx = LinearExpr(tuple(rounded), expr.constant)
    return CoeffApproxMap(grid, expr, approx)
