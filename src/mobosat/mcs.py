"""Minimal correction subset extraction: one clause-D loop.

``extract_mcs`` solves once for a model of the hard clauses, then runs
"clause D" rounds from it: split the soft literals into satisfied and
falsified, add the disjunction of the falsified ones (guarded by a fresh
selector so it can be retired; the solver has no deletion) and re-solve
with the satisfied literals as assumptions, until a round is UNSAT.  The
last model found is the MCS's witness.  Soft literals are the unary
thresholds ``f < d`` of each objective, the falsified set per objective is
a downward-closed prefix of its threshold domain, and the representative /
successor points are the largest falsified and smallest satisfied
thresholds.

The loop reads a model's prefix length per objective, its cut, from one of
two soft sets.  A ``SoftSet`` holds explicit ``(d, literal)`` pairs and
scans their values.  A ``LadderSoftSet`` reads the cut off the objective's
value and asks its ladder for just the two thresholds next to each cut, so
a complete domain's thresholds are created only as rounds reach them.

``extract_mcs_literals`` adapts plain unit softs to that loop: each soft is
one objective whose only free threshold is the soft itself.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .model import LinearExpr, Point
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

    def flat_literals(self) -> List[int]:
        return [lit for pairs in self.per_objective for _, lit in pairs]

    def threshold(self, k: int, pos: int) -> int:
        return self.per_objective[k][pos][0]

    def literal(self, k: int, pos: int) -> int:
        return self.per_objective[k][pos][1]

    def cuts(self, model: Sequence[int]) -> List[int]:
        """Per objective, the count of falsified thresholds in the model.

        Also verifies the model is prefix-consistent: falsified thresholds
        are exactly the leading ones (the encoding-level mirror of ladder
        monotonicity).
        """
        cuts = []
        for k, pairs in enumerate(self.per_objective):
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


@dataclass
class PreparedObjective:
    """One objective wired into a solver: its expression, the domain of its
    soft thresholds ``f < d`` in ascending ``d``, and ``encode_lt(d)``, the
    literal for any ``d``, created on first request."""

    expr: LinearExpr
    domain: Tuple[int, ...]
    encode_lt: Callable[[int], int]


def expr_value(expr: LinearExpr, model: Sequence[int]) -> int:
    """Value of ``expr`` in a solver model (+1/-1 per var, index 0 unused)."""
    return expr.constant + sum(c for c, lit in expr.terms
                               if (model[lit.var] == 1) != lit.negated)


@dataclass
class LadderSoftSet:
    """Per-objective soft thresholds behind a ladder: a model's cut is read
    from the objective's value, and a literal is asked for only when a
    clause-D round needs it."""

    per_objective: Tuple[PreparedObjective, ...]

    def threshold(self, k: int, pos: int) -> int:
        return self.per_objective[k].domain[pos]

    def literal(self, k: int, pos: int) -> int:
        prep = self.per_objective[k]
        return prep.encode_lt(prep.domain[pos])

    def cuts(self, model: Sequence[int]) -> List[int]:
        """Per objective, the count of domain values at or below its value in
        the model: the thresholds ``f < d`` it falsifies."""
        cuts = []
        for k, prep in enumerate(self.per_objective):
            value = expr_value(prep.expr, model)
            cut = bisect_right(prep.domain, value)
            if not 0 < cut < len(prep.domain):
                raise McsInvariantError(
                    f"objective {k}: value {value} outside the threshold domain "
                    f"[{prep.domain[0]}, {prep.domain[-1]})"
                )
            cuts.append(cut)
        return cuts


@dataclass
class Mcs:
    """One minimal correction subset with its bounding points and witness."""

    representative: Point
    successor: Point
    model: Tuple[int, ...]  # solver assignment snapshot (+1/-1 per var, index 0 unused)
    rounds: int  # clause-D rounds, the last (unsatisfiable) one included
    cuts: Tuple[int, ...]  # per objective, the count of falsified thresholds
    softs: Union[SoftSet, LadderSoftSet]

    @property
    def falsified(self) -> Tuple[Tuple[int, ...], ...]:
        """Per objective, the falsified thresholds, ascending."""
        return tuple(tuple(self.softs.threshold(k, pos) for pos in range(cut))
                     for k, cut in enumerate(self.cuts))


def _check_literals(model: Sequence[int], improve: Sequence[int], hold: Sequence[int],
                    moved: Sequence[bool]) -> None:
    """Verify that ``model`` sets every ``hold`` literal true and each
    ``improve`` literal true exactly where its objective's cut ``moved``
    below the one the literals were asked for; a literal the model does not
    assign (created after it) is skipped."""
    for k, (up, keep, down) in enumerate(zip(improve, hold, moved)):
        for lit, want, name in ((up, down, "improve"), (keep, True, "hold")):
            if abs(lit) < len(model) and ((model[abs(lit)] == 1) == (lit > 0)) != want:
                raise McsInvariantError(f"objective {k}: {name} literal {lit} is {not want} "
                                        f"in a model whose value puts it {want}")


def extract_mcs(solver: SatSolver, softs: Union[SoftSet, LadderSoftSet],
                assumptions: Sequence[int] = ()) -> Optional[Mcs]:
    """Extract one MCS over objective-threshold softs, with structure checks:
    solve under ``assumptions``, then run clause-D rounds, each under
    ``assumptions`` too, until one is unsatisfiable.  None when the first
    solve is unsatisfiable.

    Because threshold softs are monotone per objective, the satisfied set
    is summarized by one literal per objective (the smallest satisfied
    threshold, ``hold``) and the disjunction of falsified softs by the
    largest falsified one (``improve``): each round solves under p+1
    assumptions with a (p+1)-literal guarded disjunction, with the
    semantics of literal clause-D.

    The model each round starts from must set its ``hold`` literals true
    and its ``improve`` literals false; the model the round finds must set
    every ``hold`` literal true, an ``improve`` literal true exactly where
    its cut moved, and must shrink the cuts.  Any breach raises
    McsInvariantError.  SolveBudgetExceeded passes through.
    """
    base = list(assumptions)
    if not solver.solve(base):
        return None
    witness = tuple(solver.model)
    cuts = softs.cuts(witness)
    rounds = 1
    while True:
        # disjunction of falsified softs == some largest-falsified threshold true
        improve = [softs.literal(k, cut - 1) for k, cut in enumerate(cuts)]
        hold = [softs.literal(k, cut) for k, cut in enumerate(cuts)]
        _check_literals(witness, improve, hold, [False] * len(cuts))
        selector = solver.new_var()
        solver.add_clause([-selector] + improve)
        sat = solver.solve([*base, selector, *hold])
        solver.add_clause([-selector])
        if not sat:
            break
        model = tuple(solver.model)
        new_cuts = softs.cuts(model)
        if not all(n <= c for n, c in zip(new_cuts, cuts)) or new_cuts == cuts:
            raise McsInvariantError("clause-D round did not shrink the falsified set")
        _check_literals(model, improve, hold, [n < c for n, c in zip(new_cuts, cuts)])
        witness, cuts = model, new_cuts
        rounds += 1
    rep = tuple(softs.threshold(k, cut - 1) for k, cut in enumerate(cuts))
    succ = tuple(softs.threshold(k, cut) for k, cut in enumerate(cuts))
    return Mcs(rep, succ, witness, rounds, tuple(cuts), softs)


def extract_mcs_literals(
    solver: SatSolver,
    soft_lits: Sequence[int],
    assumptions: Sequence[int] = (),
) -> Optional[Tuple[frozenset, Tuple[int, ...]]]:
    """One MCS of (hard clauses, unit softs), or None when the hard part is unsat.

    Returns the falsified soft indices and a witness model satisfying the
    hard clauses plus every soft outside the MCS.  The empty set is returned
    when hard and softs are jointly satisfiable.  Each soft ``s`` runs through
    ``extract_mcs`` as the one-objective ladder ``(0, -t), (1, s), (2, t)``
    over a fresh root-true ``t``: its representative is 1 exactly when ``s``
    is falsified.
    """
    t = solver.new_var()
    solver.add_clause([t])
    mcs = extract_mcs(solver, SoftSet(tuple(((0, -t), (1, s), (2, t)) for s in soft_lits)),
                      assumptions)
    if mcs is None:
        return None
    return frozenset(i for i, r in enumerate(mcs.representative) if r), mcs.model


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
