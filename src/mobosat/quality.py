"""Quality indicators: multiplicative epsilon-indicator and hypervolume.

All computations use exact rational arithmetic; floats appear only when a
caller formats a report.  Points are minimization objective vectors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

log = logging.getLogger("mobosat.quality")

RatPoint = Tuple[Fraction, ...]


@dataclass(frozen=True)
class IndicatorReport:
    """Indicator values for a point set against a reference set."""

    epsilon_vs_reference: Optional[Fraction]
    hypervolume: Optional[Fraction]
    denominators: Tuple[int, ...]
    shifted: bool


def epsilon_indicator(a_points: Sequence[Sequence[int]],
                      r_points: Sequence[Sequence[int]]) -> Fraction:
    """Multiplicative epsilon-indicator of set A against reference set R.

    ``max over r of min over a of max_k a_k / r_k``.  When any reference
    coordinate is 0 both sets are shifted by +1 per coordinate first (the
    ratio is undefined at 0); use :func:`epsilon_indicator_shifted` to learn
    whether the shift was applied.
    """
    value, _ = epsilon_indicator_shifted(a_points, r_points)
    return value


def epsilon_indicator_shifted(a_points: Sequence[Sequence[int]],
                              r_points: Sequence[Sequence[int]]) -> Tuple[Fraction, bool]:
    a_points = [tuple(p) for p in a_points]
    r_points = [tuple(p) for p in r_points]
    if not a_points or not r_points:
        raise ValueError("epsilon indicator needs nonempty sets")
    p = len(r_points[0])
    if any(len(q) != p for q in a_points + r_points):
        raise ValueError("all points must have the same dimension")
    shifted = any(coord == 0 for r in r_points for coord in r)
    if shifted:
        a_points = [tuple(c + 1 for c in q) for q in a_points]
        r_points = [tuple(c + 1 for c in q) for q in r_points]
    worst = Fraction(0)
    for r in r_points:
        best = None
        for a in a_points:
            ratio = max(Fraction(a[k], r[k]) for k in range(p))
            if best is None or ratio < best:
                best = ratio
        worst = max(worst, best)
    return worst, shifted


def normalize(points: Sequence[Sequence[int]],
              denominators: Sequence[int]) -> List[RatPoint]:
    """Divide each coordinate by its denominator, exactly."""
    if any(d <= 0 for d in denominators):
        raise ValueError("denominators must be positive")
    return [tuple(Fraction(c, d) for c, d in zip(q, denominators)) for q in points]


def protocol_denominators(point_sets: Sequence[Sequence[Sequence[int]]],
                          slack: Fraction = Fraction(1)) -> Tuple[int, ...]:
    """Per-coordinate normalization denominators over several output sets.

    With the default slack this is "coordinate maximum plus one"; pass
    ``Fraction(11, 10)`` for the cross-algorithm 1.1x protocol (rounded up
    to an integer so exact arithmetic survives); a slack below 1 raises.
    """
    if slack < 1:
        raise ValueError(f"protocol slack must be at least 1, got {slack}")
    first = next((q for points in point_sets for q in points), None)
    if first is None:
        raise ValueError("need at least one point")
    p = len(first)
    denoms = []
    for k in range(p):
        m = max(q[k] for points in point_sets for q in points)
        if slack == 1:
            denoms.append(m + 1)
        else:
            scaled = m * slack
            denoms.append(max(int(scaled) + (0 if scaled == int(scaled) else 1), 1))
    return tuple(denoms)


def hypervolume(points: Sequence[Sequence[Fraction]],
                reference: Sequence[Fraction]) -> Fraction:
    """Lebesgue measure of the union of boxes [point, reference].

    Points not strictly below the reference in every coordinate contribute
    nothing and are dropped with a warning.  Exact dimension-sweep
    recursion; fine for small dimensions.
    """
    reference = tuple(Fraction(c) for c in reference)
    usable = []
    for q in points:
        q = tuple(Fraction(c) for c in q)
        if len(q) != len(reference):
            raise ValueError("point and reference dimensions differ")
        if all(c < r for c, r in zip(q, reference)):
            usable.append(q)
        else:
            log.warning("hypervolume: dropping point %s not dominating reference %s",
                        q, reference)
    return _hv(usable, reference)


def _hv(points: List[RatPoint], reference: Tuple[Fraction, ...]) -> Fraction:
    if not points:
        return Fraction(0)
    if len(reference) == 1:
        return reference[0] - min(q[0] for q in points)
    # sweep along the last coordinate, low to high
    last = sorted({q[-1] for q in points})
    total = Fraction(0)
    for i, z in enumerate(last):
        upper = last[i + 1] if i + 1 < len(last) else reference[-1]
        slab = upper - z
        if slab == 0:
            continue
        projected = [q[:-1] for q in points if q[-1] <= z]
        total += slab * _hv(projected, reference[:-1])
    return total


def hypervolume_inclusion_exclusion(points: Sequence[Sequence[Fraction]],
                                    reference: Sequence[Fraction]) -> Fraction:
    """Independent oracle: inclusion-exclusion over all box intersections."""
    reference = tuple(Fraction(c) for c in reference)
    boxes = [tuple(Fraction(c) for c in q) for q in points
             if all(Fraction(c) < r for c, r in zip(q, reference))]
    total = Fraction(0)
    n = len(boxes)
    for mask in range(1, 1 << n):
        corner = [Fraction(0)] * len(reference)
        size = 0
        for i in range(n):
            if mask >> i & 1:
                size += 1
                for k in range(len(reference)):
                    corner[k] = max(corner[k], boxes[i][k])
        volume = Fraction(1)
        for k in range(len(reference)):
            side = reference[k] - corner[k]
            if side <= 0:
                volume = Fraction(0)
                break
            volume *= side
        total += volume if size % 2 else -volume
    return total


def make_report(a_points: Sequence[Sequence[int]],
                reference: Optional[Sequence[Sequence[int]]] = None,
                slack: Fraction = Fraction(1)) -> IndicatorReport:
    """Indicator report: epsilon value plus normalized hypervolume of A.

    Normalization denominators follow the coordinate-maximum protocol over
    every set involved; the hypervolume reference point is (1, ..., 1).
    """
    a_points = [tuple(q) for q in a_points]
    sets = [a_points]
    eps_ref = None
    shifted = False
    if reference:
        ref = [tuple(q) for q in reference]
        sets.append(ref)
        eps_ref, shifted = epsilon_indicator_shifted(a_points, ref)
    hv = None
    if a_points:
        denoms = protocol_denominators(sets, slack)
        unit_ref = tuple(Fraction(1) for _ in denoms)
        hv = hypervolume(normalize(a_points, denoms), unit_ref)
    else:
        denoms = ()
    return IndicatorReport(eps_ref, hv, denoms, shifted)
