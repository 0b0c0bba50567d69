"""Brute-force ground truth for small instances.

Everything here enumerates all 2^n assignments directly (chunked, via
numpy), sharing no solver, encoding, or extraction code with the engine so
it can serve as an independent witness in tests:

* exact Pareto fronts and efficient sets,
* direct verification of the (1+epsilon)-approximation property,
* all minimal correction subsets of a (hard clauses, unit softs) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import Instance, Point, SolutionRecord

_CHUNK_BITS = 16


class OracleCapError(ValueError):
    """The instance exceeds the brute-force enumeration cap."""


@dataclass(frozen=True)
class OracleReport:
    pareto_front: Tuple[Point, ...]
    efficient: Tuple[SolutionRecord, ...]
    feasible_count: int


def _assignment_bits(start: int, count: int, num_vars: int) -> np.ndarray:
    idx = np.arange(start, start + count, dtype=np.int64)
    return (idx[:, None] >> np.arange(num_vars, dtype=np.int64)) & 1


def _literal_values(bits: np.ndarray, var: int, negated: bool) -> np.ndarray:
    col = bits[:, var - 1]
    return 1 - col if negated else col


def _evaluate_exprs(instance: Instance, bits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    rows = bits.shape[0]
    feasible = np.ones(rows, dtype=bool)
    for con in instance.constraints:
        value = np.zeros(rows, dtype=np.int64)
        for coeff, lit in con.lhs.terms:
            value += coeff * _literal_values(bits, lit.var, lit.negated)
        feasible &= value >= con.bound
    images = np.zeros((rows, instance.num_objectives), dtype=np.int64)
    for k, expr in enumerate(instance.objectives):
        value = np.full(rows, expr.constant, dtype=np.int64)
        for coeff, lit in expr.terms:
            value += coeff * _literal_values(bits, lit.var, lit.negated)
        images[:, k] = value
    return feasible, images


def _pareto_of_unique(images: np.ndarray) -> np.ndarray:
    """Boolean mask of nondominated rows; ``images`` must be unique rows in
    lexicographic order.

    A row can only be dominated by a lexicographically earlier one, and a
    dominated earlier row is itself dominated by a kept one, so one sweep
    keeps a row iff no kept row is <= it everywhere.
    """
    keep = np.zeros(images.shape[0], dtype=bool)
    kept = np.empty_like(images)
    count = 0
    for i, row in enumerate(images):
        if not (kept[:count] <= row).all(axis=1).any():
            kept[count] = row
            count += 1
            keep[i] = True
    return keep


def brute_force_pareto(instance: Instance, cap: int = 24) -> OracleReport:
    """Exact Pareto front and efficient set by exhausting all assignments."""
    n = instance.num_vars
    if n > cap:
        raise OracleCapError(f"{n} variables exceeds the oracle cap of {cap}")
    feasible_count = 0
    unique_images: dict = {}
    chunk = 1 << min(n, _CHUNK_BITS)
    for start in range(0, 1 << n, chunk):
        bits = _assignment_bits(start, min(chunk, (1 << n) - start), n)
        feasible, images = _evaluate_exprs(instance, bits)
        feasible_count += int(feasible.sum())
        for row, img in zip(np.nonzero(feasible)[0], images[feasible]):
            unique_images.setdefault(tuple(int(c) for c in img), []).append(start + int(row))
    if not unique_images:
        return OracleReport((), (), 0)
    distinct = np.array(sorted(unique_images), dtype=np.int64)
    mask = _pareto_of_unique(distinct)
    front = tuple(tuple(int(c) for c in row) for row in distinct[mask])
    efficient: List[SolutionRecord] = []
    for img in front:
        for index in unique_images[img]:
            assignment = tuple((index >> j) & 1 for j in range(n))
            efficient.append(SolutionRecord(assignment, img))
    return OracleReport(front, tuple(efficient), feasible_count)


def verify_approximation(
    records: Sequence[SolutionRecord],
    instance: Instance,
    ratio,
    cap: int = 24,
) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Check every feasible point is within ``ratio`` of some record, exactly.

    Returns (True, None) or (False, a violating assignment).
    """
    n = instance.num_vars
    if n > cap:
        raise OracleCapError(f"{n} variables exceeds the oracle cap of {cap}")
    ratio = Fraction(ratio)
    num, den = ratio.numerator, ratio.denominator
    if not records:
        # vacuously true only when infeasible
        report_feasible = brute_force_pareto(instance, cap).feasible_count
        return (report_feasible == 0), None
    # f_j(rec) <= ratio * f_j(x')  <=>  den * f_j(rec) <= num * f_j(x')
    rec_scaled = np.array([[den * c for c in rec.image] for rec in records], dtype=np.int64)
    chunk = 1 << min(n, _CHUNK_BITS)
    for start in range(0, 1 << n, chunk):
        bits = _assignment_bits(start, min(chunk, (1 << n) - start), n)
        feasible, images = _evaluate_exprs(instance, bits)
        if not feasible.any():
            continue
        idxs = np.nonzero(feasible)[0]
        scaled = num * images[idxs]
        covered = (rec_scaled[None, :, :] <= scaled[:, None, :]).all(axis=2).any(axis=1)
        if not covered.all():
            bad = int(idxs[np.nonzero(~covered)[0][0]]) + start
            return False, tuple((bad >> j) & 1 for j in range(n))
    return True, None


def all_mcs_bruteforce(
    hard_clauses: Sequence[Sequence[int]],
    soft_lits: Sequence[int],
    var_cap: int = 20,
) -> Tuple[frozenset, ...]:
    """Every minimal correction subset of (hard, unit softs), as index sets.

    An MCS is a subset-minimal falsified-soft set over the models of the
    hard clauses, so we enumerate models, collect the distinct falsified
    sets, and keep the inclusion-minimal ones.
    """
    num_vars = 0
    for clause in hard_clauses:
        for lit in clause:
            num_vars = max(num_vars, abs(lit))
    for lit in soft_lits:
        num_vars = max(num_vars, abs(lit))
    if num_vars > var_cap:
        raise OracleCapError(f"{num_vars} variables exceeds the oracle cap of {var_cap}")
    if len(soft_lits) > 63:
        raise OracleCapError("too many soft clauses for bitmask enumeration")
    masks = set()
    chunk = 1 << min(num_vars, _CHUNK_BITS)
    total = 1 << num_vars
    for start in range(0, total, chunk):
        bits = _assignment_bits(start, min(chunk, total - start), max(num_vars, 1))
        ok = np.ones(bits.shape[0], dtype=bool)
        for clause in hard_clauses:
            if not clause:
                ok[:] = False
                break
            sat = np.zeros(bits.shape[0], dtype=bool)
            for lit in clause:
                val = bits[:, abs(lit) - 1]
                sat |= (val == 1) if lit > 0 else (val == 0)
            ok &= sat
        if not ok.any():
            continue
        falsified = np.zeros(bits.shape[0], dtype=np.int64)
        for i, lit in enumerate(soft_lits):
            val = bits[:, abs(lit) - 1]
            is_false = (val == 0) if lit > 0 else (val == 1)
            falsified |= is_false.astype(np.int64) << i
        masks.update(int(m) for m in falsified[ok])
    minimal = []
    for m in sorted(masks):
        if not any(other != m and other & m == other for other in masks):
            minimal.append(frozenset(i for i in range(len(soft_lits)) if (m >> i) & 1))
    return tuple(minimal)
