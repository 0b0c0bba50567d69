"""Reference fronts and result checks, computed apart from the solver.

Nothing here calls the encoder, the SAT solver, the MCS extractor or the
drivers.  Two independent references give the exact Pareto front:

* ``cover_front`` runs a Pareto dynamic programme over the set of covered
  constraints.  It applies to set-covering instances: positive clauses
  (bound 1 over positive literals) and objectives over positive literals.
* ``enumerated_front`` evaluates all 2^n assignments with numpy, in chunks,
  and keeps the nondominated images with ``nondominated_rows``, a
  sort-based filter.

``check_result`` then compares a driver's output with a reference front.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

Point = Tuple[int, ...]

_CHUNK_BITS = 16
_BLOCK = 1024


def _linear_form(expr, num_vars: int) -> Tuple[int, np.ndarray]:
    """``expr`` as ``constant + coeffs . x`` over the 0/1 variables."""
    constant = expr.constant
    coeffs = np.zeros(num_vars, dtype=np.int64)
    for coeff, lit in expr.terms:
        if lit.negated:
            constant += coeff
            coeffs[lit.var - 1] -= coeff
        else:
            coeffs[lit.var - 1] += coeff
    return constant, coeffs


def nondominated_rows(points: np.ndarray) -> np.ndarray:
    """The distinct nondominated rows of ``points`` (minimisation), sorted.

    Rows are made unique and sorted lexicographically, so a row can only be
    dominated by a row before it.  Blocks of rows are tested first against
    the front found so far, then the survivors against each other.
    """
    points = np.unique(np.asarray(points, dtype=np.int64), axis=0)
    front = np.empty((0, points.shape[1]), dtype=np.int64)
    for start in range(0, len(points), _BLOCK):
        block = points[start:start + _BLOCK]
        if len(front):
            covered = (front[None, :, :] <= block[:, None, :]).all(axis=2).any(axis=1)
            block = block[~covered]
        if not len(block):
            continue
        # rows are distinct, so weak dominance by another row is dominance
        leq = (block[None, :, :] <= block[:, None, :]).all(axis=2)
        np.fill_diagonal(leq, False)
        front = np.vstack([front, block[~leq.any(axis=1)]])
    return front


def _feasible_images(instance):
    """Images of the feasible assignments, one numpy array per chunk."""
    n = instance.num_vars
    if n > 24:
        raise ValueError(f"{n} variables is too many to enumerate")
    cons = [(_linear_form(c.lhs, n), c.bound) for c in instance.constraints]
    objs = [_linear_form(f, n) for f in instance.objectives]
    obj_const = np.array([c for c, _ in objs], dtype=np.int64)
    obj_coeffs = np.stack([v for _, v in objs], axis=1)
    chunk = 1 << min(n, _CHUNK_BITS)
    shifts = np.arange(n, dtype=np.int64)
    for start in range(0, 1 << n, chunk):
        idx = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        bits = (idx[:, None] >> shifts) & 1
        feasible = np.ones(len(idx), dtype=bool)
        for (constant, coeffs), bound in cons:
            feasible &= constant + bits @ coeffs >= bound
        if feasible.any():
            yield obj_const + bits[feasible] @ obj_coeffs


def is_feasible(instance) -> bool:
    """True when some assignment satisfies every constraint (n <= 24)."""
    return next(_feasible_images(instance), None) is not None


def enumerated_front(instance) -> Set[Point]:
    """Exact Pareto front by evaluating every assignment (n <= 24)."""
    partial = [nondominated_rows(images) for images in _feasible_images(instance)]
    if not partial:
        return set()
    front = nondominated_rows(np.vstack(partial))
    return {tuple(int(c) for c in row) for row in front}


def _filter_points(points: Sequence[Point]) -> List[Point]:
    kept: List[Point] = []
    for q in sorted(set(points)):
        if not any(all(a <= b for a, b in zip(r, q)) for r in kept):
            kept.append(q)
    return kept


def cover_front(instance) -> Set[Point]:
    """Exact Pareto front of a set-covering instance by dynamic programming.

    The state is the set of covered constraints; each state keeps its
    nondominated partial costs.  Raises ValueError on any other shape.
    """
    m = len(instance.constraints)
    cover = [0] * (instance.num_vars + 1)
    for i, con in enumerate(instance.constraints):
        if con.bound != 1 or any(lit.negated for _, lit in con.lhs.terms):
            raise ValueError("not a covering constraint")
        for _, lit in con.lhs.terms:
            cover[lit.var] |= 1 << i
    p = instance.num_objectives
    cost = [[0] * p for _ in range(instance.num_vars + 1)]
    for k, expr in enumerate(instance.objectives):
        for coeff, lit in expr.terms:
            if lit.negated:
                raise ValueError("objective over a negated literal")
            cost[lit.var][k] = coeff
    states: Dict[int, List[Point]] = {0: [(0,) * p]}
    for v in range(1, instance.num_vars + 1):
        step = tuple(cost[v])
        grown: Dict[int, List[Point]] = {mask: list(pts) for mask, pts in states.items()}
        for mask, pts in states.items():
            target = grown.setdefault(mask | cover[v], [])
            target.extend(tuple(a + b for a, b in zip(q, step)) for q in pts)
        states = {mask: _filter_points(pts) for mask, pts in grown.items()}
    full = states.get((1 << m) - 1, [])
    constants = tuple(f.constant for f in instance.objectives)
    return {tuple(a + c for a, c in zip(q, constants)) for q in full}


def recomputed_image(instance, assignment: Sequence[int]) -> Optional[Point]:
    """Objective values of a feasible assignment, or None if it is infeasible."""

    def value(expr) -> int:
        total = expr.constant
        for coeff, lit in expr.terms:
            if assignment[lit.var - 1] != int(lit.negated):
                total += coeff
        return total

    if len(assignment) != instance.num_vars or any(b not in (0, 1) for b in assignment):
        return None
    if any(value(c.lhs) < c.bound for c in instance.constraints):
        return None
    return tuple(value(f) for f in instance.objectives)


def check_result(instance, result, front: Set[Point], exact: bool,
                 target: Fraction, ratio_of) -> Tuple[List[str], Optional[Fraction]]:
    """Problems found in ``result`` against the reference ``front``.

    Returns the list of problems and I_eps(records, L), computed by
    ``ratio_of`` (the library's epsilon indicator).  ``exact`` asks for the
    front itself; otherwise for a warranted ratio of at most ``target``.
    """
    problems: List[str] = []
    if result.infeasible or not front:
        return [f"infeasible={result.infeasible}, reference front size {len(front)}"], None
    for i, rec in enumerate(result.records):
        image = recomputed_image(instance, rec.assignment)
        if image is None:
            problems.append(f"record {i} is not a feasible assignment")
        elif image != tuple(rec.image):
            problems.append(f"record {i} image {rec.image} != recomputed {image}")
    images = {tuple(q) for q in result.images}
    lower = [tuple(q) for q in result.lower_bounds]
    warranted = result.warranted_ratio
    if exact:
        if warranted != 1:
            problems.append(f"warranted ratio {warranted} != 1")
        if images != front:
            problems.append(f"images differ from the front: {len(images)} vs {len(front)} points")
        if set(lower) != front:
            problems.append(f"L differs from the front: {len(set(lower))} vs {len(front)} points")
    else:
        if warranted is None or warranted > target:
            problems.append(f"warranted ratio {warranted} above target {target}")
            return problems, None
        num, den = warranted.numerator, warranted.denominator
        for y in sorted(front):
            if not any(all(den * a <= num * b for a, b in zip(r, y)) for r in images):
                problems.append(f"front point {y} not within {warranted} of any record")
                break
        for y in sorted(front):
            if not any(all(a <= b for a, b in zip(q, y)) for q in lower):
                problems.append(f"front point {y} not weakly dominated by L")
                break
    if not images or not lower:
        problems.append("no records or an empty L")
        return problems, None
    eps = ratio_of(sorted(images), sorted(set(lower)))
    if eps > (warranted or 0):
        problems.append(f"I_eps(records, L) = {eps} above the warranted ratio {warranted}")
    return problems, eps
