"""Minimal correction subset extraction over unit soft clauses.

The extractor implements the "clause D" strategy: take any model of the
hard clauses, split the soft literals into satisfied and falsified, then
repeatedly add the disjunction of the falsified ones (guarded by a fresh
selector so it can be retired; the solver has no deletion) and re-solve
with the satisfied literals as assumptions.  On UNSAT the falsified set is
a minimal correction subset and the last model is a corresponding witness.

``extract_mcs`` layers the objective-threshold structure on top: soft
literals are the unary thresholds of each objective, the falsified set per
objective must be a downward-closed prefix, and the representative /
successor points are the largest falsified and smallest satisfied
thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .model import Point
from .sat import SatSolver


class McsInvariantError(RuntimeError):
    """An extracted MCS violated a structural invariant of the encoding."""


@dataclass
class SoftSet:
    """Per-objective soft thresholds: sorted (threshold, literal) pairs."""

    per_objective: Tuple[Tuple[Tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        for pairs in self.per_objective:
            thresholds = [d for d, _ in pairs]
            if thresholds != sorted(thresholds) or len(set(thresholds)) != len(thresholds):
                raise ValueError("soft thresholds must be strictly ascending")

    @property
    def num_objectives(self) -> int:
        return len(self.per_objective)

    def flat_literals(self) -> List[int]:
        return [lit for pairs in self.per_objective for _, lit in pairs]


@dataclass
class Mcs:
    """One minimal correction subset with its bounding points and witness."""

    falsified: Tuple[Tuple[int, ...], ...]  # per objective, ascending thresholds
    representative: Point
    successor: Point
    model: Tuple[int, ...]  # solver assignment snapshot (+1/-1 per var, index 0 unused)


def extract_mcs_literals(
    solver: SatSolver,
    soft_lits: Sequence[int],
    assumptions: Sequence[int] = (),
    deadline: Optional[float] = None,
) -> Optional[Tuple[frozenset, Tuple[int, ...]]]:
    """One MCS of (hard clauses, unit softs), or None when the hard part is unsat.

    Returns the falsified soft indices and a witness model satisfying the
    hard clauses plus every soft outside the MCS.  The empty set is returned
    when hard and softs are jointly satisfiable.
    """
    base = list(assumptions)
    if not solver.solve(base, deadline=deadline):
        return None
    model = solver.model
    satisfied = []
    undone = []
    for i, lit in enumerate(soft_lits):
        val = model[abs(lit)]
        if (val == 1) == (lit > 0):
            satisfied.append(i)
        else:
            undone.append(i)
    witness = tuple(model)
    while undone:
        selector = solver.new_var()
        solver.add_clause([-selector] + [soft_lits[i] for i in undone])
        sat = solver.solve(base + [selector] + [soft_lits[i] for i in satisfied],
                           deadline=deadline)
        solver.add_clause([-selector])
        if not sat:
            break
        model = solver.model
        witness = tuple(model)
        still = []
        for i in undone:
            lit = soft_lits[i]
            if (model[abs(lit)] == 1) == (lit > 0):
                satisfied.append(i)
            else:
                still.append(i)
        if len(still) == len(undone):
            raise McsInvariantError("clause-D round made no progress")
        undone = still
    return frozenset(undone), witness


def _threshold_cuts(model: Sequence[int], softs: SoftSet) -> List[int]:
    """Per objective, the count of falsified thresholds in the model.

    Also verifies the model is prefix-consistent: falsified thresholds are
    exactly the leading ones (the encoding-level mirror of ladder
    monotonicity).
    """
    cuts = []
    for k, pairs in enumerate(softs.per_objective):
        cut = None
        for pos, (_, lit) in enumerate(pairs):
            true = (model[abs(lit)] == 1) == (lit > 0)
            if cut is None:
                if true:
                    cut = pos
            elif not true:
                raise McsInvariantError(
                    f"objective {k}: threshold values are not monotone "
                    f"(falsified at position {pos} after satisfied at {cut})"
                )
        if cut is None:
            raise McsInvariantError(f"objective {k}: top sentinel threshold falsified")
        if cut == 0:
            raise McsInvariantError(
                f"objective {k}: lowest threshold satisfied (must always fail)"
            )
        cuts.append(cut)
    return cuts


def extract_mcs(
    solver: SatSolver,
    softs: SoftSet,
    assumptions: Sequence[int] = (),
    deadline: Optional[float] = None,
) -> Optional[Mcs]:
    """Extract one MCS over objective-threshold softs, with structure checks.

    Because threshold softs are monotone per objective, the clause-D loop
    collapses: the satisfied set is summarized by one literal per objective
    (the smallest satisfied threshold implies all larger ones) and the
    disjunction of falsified softs by the largest falsified threshold per
    objective.  Each round therefore solves under p+1 assumptions with a
    (p+1)-literal guarded disjunction, instead of dragging every soft
    around.  Semantics are unchanged from literal clause-D.
    """
    base = list(assumptions)
    if not solver.solve(base, deadline=deadline):
        return None
    model = solver.model
    cuts = _threshold_cuts(model, softs)
    witness = tuple(model)
    pairs_by_obj = softs.per_objective
    while True:
        # disjunction of falsified softs == some largest-falsified threshold true
        improve = [pairs[cut - 1][1] for pairs, cut in zip(pairs_by_obj, cuts)]
        hold = [pairs[cut][1] for pairs, cut in zip(pairs_by_obj, cuts)]
        selector = solver.new_var()
        solver.add_clause([-selector] + improve)
        sat = solver.solve(base + [selector] + hold, deadline=deadline)
        solver.add_clause([-selector])
        if not sat:
            break
        model = solver.model
        new_cuts = _threshold_cuts(model, softs)
        if not all(n <= c for n, c in zip(new_cuts, cuts)) or new_cuts == cuts:
            raise McsInvariantError("clause-D round did not shrink the falsified set")
        cuts = new_cuts
        witness = tuple(model)
    falsified = tuple(
        tuple(pairs[pos][0] for pos in range(cut))
        for pairs, cut in zip(pairs_by_obj, cuts)
    )
    rep = tuple(pairs[cut - 1][0] for pairs, cut in zip(pairs_by_obj, cuts))
    succ = tuple(pairs[cut][0] for pairs, cut in zip(pairs_by_obj, cuts))
    return Mcs(falsified, rep, succ, witness)


def check_witness_bounds(mcs: Mcs, values: Sequence[int], complete: bool = False) -> None:
    """Verify representative <= f'(witness) < successor (equality when complete)."""
    for k, value in enumerate(values):
        if not mcs.representative[k] <= value < mcs.successor[k]:
            raise McsInvariantError(
                f"objective {k}: witness value {value} outside "
                f"[{mcs.representative[k]}, {mcs.successor[k]})"
            )
        if complete and value != mcs.representative[k]:
            raise McsInvariantError(
                f"objective {k}: complete domain but witness value {value} != "
                f"representative {mcs.representative[k]}"
            )
